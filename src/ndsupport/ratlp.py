"""Exact rational linear programming via a two-phase primal simplex.

Every quantity is a ``fractions.Fraction``: statuses, optimal values and
solution vectors are exact, and each optimal result is re-substituted
into the original constraints before it is returned.  Bland's pivot
rule makes the solver deterministic and guarantees termination on the
degenerate systems that weight-space boundaries produce routinely.

Programs come in one form: minimize or maximize over x >= 0, subject
to ``<=``, ``=`` and ``>=`` rows.  Every program this package builds is
over nonnegative unknowns (simplex weights, max-min margins, convex
multipliers), so the variables are the tableau's structural columns as
they stand.  The solver is pure: identical programs yield identical
outcomes, and concurrent invocations share no state.

Not built for speed beyond desk scale (a few hundred constraints): the
tableau is dense and nothing is factorized or reused.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import ConsistencyError, ValidationError

# Relations accepted in constraints.
LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

# Solver statuses.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

MINIMIZE = "min"
MAXIMIZE = "max"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational(value) -> Fraction:
    """Coerce an int, Fraction or exact literal string ('a/b', '3', '0.7')
    to a Fraction.  Binary floats are rejected: they would silently
    corrupt exact comparisons downstream."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(
                f"not a rational literal: {reprlib.repr(value)}"
            ) from exc
    raise ValidationError(
        f"not an exact rational: {reprlib.repr(value)} (floats are not accepted)"
    )


def rational_vector(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(rational(v) for v in values)


def format_rational(value: Fraction):
    """Integers as plain ints, everything else as a reduced 'a/b' string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class LinearConstraint:
    """One row ``coeffs . x  <rel>  rhs`` with rel in {<=, =, >=}."""

    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeffs", rational_vector(self.coeffs))
        object.__setattr__(self, "rhs", rational(self.rhs))
        if self.relation not in _RELATIONS:
            raise ValidationError(f"unknown relation {self.relation!r}")

    def holds_at(self, x: Sequence[Fraction]) -> bool:
        """Exact check of this constraint at the point x."""
        if len(x) != len(self.coeffs):
            raise ValidationError(
                f"constraint has {len(self.coeffs)} coefficients, point has {len(x)}"
            )
        lhs = sum(c * v for c, v in zip(self.coeffs, x))
        if self.relation == LESS_EQUAL:
            return lhs <= self.rhs
        if self.relation == GREATER_EQUAL:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class LinearProgram:
    """``sense`` ('min' or 'max') of ``objective . x`` over x >= 0,
    subject to ``constraints``."""

    sense: str
    objective: tuple[Fraction, ...]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise ValidationError(f"sense must be 'min' or 'max', got {self.sense!r}")
        object.__setattr__(self, "objective", rational_vector(self.objective))
        n = len(self.objective)
        if n == 0:
            raise ValidationError("linear program needs at least one variable")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for idx, con in enumerate(self.constraints):
            if not isinstance(con, LinearConstraint):
                raise ValidationError(f"constraint {idx} is not a LinearConstraint")
            if len(con.coeffs) != n:
                raise ValidationError(
                    f"constraint {idx} has {len(con.coeffs)} coefficients, expected {n}"
                )

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpOutcome:
    """Result of an exact solve.

    status == 'optimal' holds exactly when both value and solution are
    present; the solution then satisfies every constraint exactly.
    """

    status: str
    value: Optional[Fraction] = None
    solution: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        if self.status not in (OPTIMAL, INFEASIBLE, UNBOUNDED):
            raise ValidationError(f"unknown status {self.status!r}")
        has_payload = self.value is not None and self.solution is not None
        if (self.status == OPTIMAL) != has_payload:
            raise ValidationError(
                "value and solution must be present iff status is 'optimal'"
            )


class _Tableau:
    """Dense simplex tableau: rows of length ncols+1 with the rhs last."""

    def __init__(self, rows: list[list[Fraction]], basis: list[int]):
        self.rows = rows
        self.basis = basis

    def reduced_cost_row(self, cost: list[Fraction]) -> list[Fraction]:
        r = list(cost) + [_ZERO]
        for i, b in enumerate(self.basis):
            cb = r[b]
            if cb:
                row = self.rows[i]
                for j, v in enumerate(row):
                    if v:
                        r[j] -= cb * v
        return r

    def pivot(self, r: list[Fraction], pi: int, pj: int) -> None:
        prow = self.rows[pi]
        piv = prow[pj]
        if piv != 1:
            prow[:] = [v / piv for v in prow]
        for row in self.rows:
            if row is prow:
                continue
            f = row[pj]
            if f:
                row[:] = [a - f * b if b else a for a, b in zip(row, prow)]
        f = r[pj]
        if f:
            r[:] = [a - f * b if b else a for a, b in zip(r, prow)]
        self.basis[pi] = pj

    def run(self, r: list[Fraction], ncols: int) -> str:
        """Minimize with Bland's rule; returns 'optimal' or 'unbounded'.

        Entering: smallest column index with negative reduced cost.
        Leaving: minimum ratio, ties broken by smallest basic index.
        """
        rows = self.rows
        basis = self.basis
        while True:
            enter = -1
            for j in range(ncols):
                if r[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best: Optional[Fraction] = None
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self.pivot(r, leave, enter)


def lp_solve(program: LinearProgram) -> LpOutcome:
    """Solve exactly; optimal results are certified by re-substitution.

    Malformed programs never reach the kernel: LinearProgram validates
    dimensions at construction.
    """
    n = program.num_vars
    minimize = program.objective
    if program.sense == MAXIMIZE:
        minimize = tuple(-c for c in minimize)

    # One slack/surplus column per inequality.
    num_slack = sum(1 for c in program.constraints if c.relation != EQUAL)
    cost = list(minimize) + [_ZERO] * num_slack
    rows: list[list[Fraction]] = []
    slack_col = n
    slack_of_row: list[Optional[int]] = []
    for con in program.constraints:
        row = list(con.coeffs)
        rhs = con.rhs
        row.extend([_ZERO] * num_slack)
        slack_sign = _ZERO
        if con.relation == LESS_EQUAL:
            slack_sign = _ONE
        elif con.relation == GREATER_EQUAL:
            slack_sign = -_ONE
        if slack_sign:
            row[slack_col] = slack_sign
            slack_of_row.append(slack_col)
            slack_col += 1
        else:
            slack_of_row.append(None)
        # Negate rows to keep the rhs nonnegative; a zero-rhs surplus row
        # is also negated so its slack column can seed the basis.
        if rhs < 0 or (rhs == 0 and slack_sign < 0):
            row = [-v for v in row]
            rhs = -rhs
        row.append(rhs)
        rows.append(row)

    base_cols = n + num_slack

    # Reuse slack columns with coefficient +1 as the starting basis;
    # only the remaining rows need artificial variables.
    basis = [-1] * len(rows)
    artificial_rows: list[int] = []
    for i, row in enumerate(rows):
        sc = slack_of_row[i]
        if sc is not None and row[sc] == 1:
            basis[i] = sc
        else:
            artificial_rows.append(i)

    ncols = base_cols + len(artificial_rows)
    for row in rows:
        rhs = row.pop()
        row.extend([_ZERO] * len(artificial_rows))
        row.append(rhs)
    for k, i in enumerate(artificial_rows):
        rows[i][base_cols + k] = _ONE
        basis[i] = base_cols + k

    tab = _Tableau(rows, basis)

    if artificial_rows:
        phase1_cost = [_ZERO] * ncols
        for k in range(len(artificial_rows)):
            phase1_cost[base_cols + k] = _ONE
        r = tab.reduced_cost_row(phase1_cost)
        status = tab.run(r, ncols)
        if status != OPTIMAL:  # sum of artificials is bounded below by 0
            raise ConsistencyError("phase one cannot be unbounded")
        if -r[-1] != 0:
            return LpOutcome(status=INFEASIBLE)
        # Drive leftover artificials out of the basis (degenerate rows).
        for i in range(len(tab.rows) - 1, -1, -1):
            if tab.basis[i] < base_cols:
                continue
            prow = tab.rows[i]
            for j in range(base_cols):
                if prow[j]:
                    dummy = [_ZERO] * (ncols + 1)
                    tab.pivot(dummy, i, j)
                    break
            else:
                # Redundant constraint: drop the row entirely.
                del tab.rows[i]
                del tab.basis[i]
        # Forbid artificial columns from re-entering.
        for row in tab.rows:
            row[base_cols:-1] = []
        ncols = base_cols

    r = tab.reduced_cost_row(cost + [_ZERO] * (ncols - base_cols))
    status = tab.run(r, ncols)
    if status == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED)

    std_solution = [_ZERO] * base_cols
    for i, b in enumerate(tab.basis):
        std_solution[b] = tab.rows[i][-1]

    solution = std_solution[:n]
    value = sum(c * v for c, v in zip(program.objective, solution))
    outcome = LpOutcome(status=OPTIMAL, value=value, solution=tuple(solution))
    _certify(program, outcome)
    return outcome


def _certify(program: LinearProgram, outcome: LpOutcome) -> None:
    """Exact feasibility re-check of an optimal solution."""
    x = outcome.solution
    assert x is not None
    for i, v in enumerate(x):
        if v < 0:
            raise ConsistencyError(f"solver returned negative x[{i}] = {v}")
    for idx, con in enumerate(program.constraints):
        if not con.holds_at(x):
            raise ConsistencyError(
                f"solver solution violates constraint {idx}: "
                f"{con.coeffs} {con.relation} {con.rhs} at {x}"
            )

