"""Exact rational linear programming via a two-phase primal simplex.

Programs, statuses, optimal values and solution vectors are exact
``fractions.Fraction``s, and each optimal result is re-substituted into
the original constraints, in ``Fraction``s, before it is returned.
Bland's pivot rule makes the solver deterministic and guarantees
termination on the degenerate systems that weight-space boundaries
produce routinely.

Programs come in one form: minimize or maximize over x >= 0, subject
to ``<=``, ``=`` and ``>=`` rows.  Every program this package builds is
over nonnegative unknowns (simplex weights, max-min margins, convex
multipliers), so the variables are the tableau's structural columns as
they stand.  The solver is pure: identical programs yield identical
outcomes, and concurrent invocations share no state.

Inside the kernel the tableau holds Python ints.  Each row is scaled
by the lcm of its denominators, with its slack and artificial
variables scaled alike, so the starting basis is the identity.  A row
is negated when its scaled rhs is negative, or zero on a ``>=`` row,
and it seeds the basis with its slack exactly when that slack is then
+1; every other row gets an artificial.  The columns (variables |
slacks | artificials | rhs) are fixed first, and each row is built
once at that width.  The true tableau is the int tableau over one
common divisor d > 0, which starts at 1.  Each pivot is a
fraction-free Bareiss step (Edmonds 1967; Bareiss 1968): every other
row becomes (p * row - f * pivot row) / d, an exact division, and d
becomes the pivot p.  Positive row and column scales change neither
the sign of a reduced cost nor the order of the ratios, so Bland's
rule takes the pivots a ``Fraction`` tableau would take, and every
outcome is the same.

Not built for speed beyond desk scale (a few hundred constraints): the
tableau is dense and nothing is factorized or reused across solves.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import ConsistencyError, ValidationError

# Relations accepted in constraints, and the coefficient each gives its
# row's slack column before any sign flip.
LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)
_SLACK_SIGN = {LESS_EQUAL: 1, EQUAL: 0, GREATER_EQUAL: -1}

# Solver statuses.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

MINIMIZE = "min"
MAXIMIZE = "max"

_ZERO = Fraction(0)


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
    # From a list, the tuple is allocated once at its final size.  Grown
    # from a generator past ten items it is reallocated, and such tuples
    # pile up on CPython's free lists between full collections.
    return tuple([rational(v) for v in values])


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[int, int]:
    """Exact inner product as (numerator, denominator > 0), accumulated
    over one common denominator and not reduced."""
    num, den = 0, 1
    for u, v in zip(a, b):
        d = u.denominator * v.denominator
        common = lcm(den, d)
        num = num * (common // den) + u.numerator * v.numerator * (common // d)
        den = common
    return num, den


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
        num, den = _dot(self.coeffs, x)
        # Compare num / den with rhs by cross-multiplying: both
        # denominators are positive.
        lhs = num * self.rhs.denominator
        rhs = self.rhs.numerator * den
        if self.relation == LESS_EQUAL:
            return lhs <= rhs
        if self.relation == GREATER_EQUAL:
            return lhs >= rhs
        return lhs == rhs


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
    """Fraction-free dense simplex tableau.

    ``rows`` hold Python ints, with the rhs last, and the true tableau is
    ``rows / d`` for one common divisor ``d > 0``.  With the identity as
    the starting basis, ``d`` is the determinant of the current basis up
    to sign, and every entry is a minor of the scaled integer program
    (Edmonds 1967), so each Bareiss update divides exactly.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.d = 1

    def reduced_cost_row(self, cost: list[int]) -> list[int]:
        """``d`` times the reduced costs of ``cost``, and minus ``d``
        times its value at the basic solution, last."""
        d = self.d
        r = [d * c for c in cost] + [0]
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                r = [a - cb * v if v else a for a, v in zip(r, self.rows[i])]
        return r

    def pivot(self, r: Optional[list[int]], pi: int, pj: int) -> None:
        """Bareiss step on (pi, pj): every other row, the objective row
        ``r`` included, becomes ``(p * row - row[pj] * prow) // d`` and
        ``d`` becomes the pivot ``p``.  A negative pivot (only a
        drive-out after phase one meets one) negates the pivot row and
        ``p`` first, which negates every updated row alike and keeps
        ``d`` positive."""
        prow = self.rows[pi]
        p = prow[pj]
        if p < 0:
            p = -p
            prow[:] = [-v for v in prow]
        d = self.d
        others = self.rows if r is None else self.rows + [r]
        for row in others:
            if row is prow:
                continue
            f = row[pj]
            if f:
                row[:] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                row[:] = [p * a // d for a in row]
        self.d = p
        self.basis[pi] = pj

    def run(self, r: list[int], ncols: int) -> str:
        """Minimize with Bland's rule; returns 'optimal' or 'unbounded'.

        Entering: smallest column index with negative reduced cost.
        Leaving: minimum ratio, ties broken by smallest basic index.
        Ratios rhs / a with a > 0 are compared by cross-multiplying.
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
            best_rhs = best_a = 0
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave, best_rhs, best_a = i, row[-1], a
                        continue
                    lhs = row[-1] * best_a
                    rhs = best_rhs * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, best_rhs, best_a = i, row[-1], a
            if leave < 0:
                return UNBOUNDED
            self.pivot(r, leave, enter)


def _scale(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the denominators, and the values times it."""
    s = lcm(*[v.denominator for v in values])
    return s, [v.numerator * (s // v.denominator) for v in values]


def lp_solve(program: LinearProgram) -> LpOutcome:
    """Solve exactly; optimal results are certified by re-substitution.

    Malformed programs never reach the kernel: LinearProgram validates
    dimensions at construction.
    """
    n = program.num_vars
    _, minimize = _scale(program.objective)
    if program.sense == MAXIMIZE:
        minimize = [-c for c in minimize]

    # Scale and sign every row; a zero-rhs surplus row is negated too,
    # so that its slack can seed the basis.
    scaled: list[tuple[list[int], int]] = []
    art_scales: list[int] = []
    for con in program.constraints:
        scale, row = _scale(con.coeffs + (con.rhs,))
        slack = _SLACK_SIGN[con.relation]
        if row[-1] < 0 or (row[-1] == 0 and slack < 0):
            row = [-v for v in row]
            slack = -slack
        scaled.append((row, slack))
        if slack != 1:
            art_scales.append(scale)

    num_slack = sum(1 for c in program.constraints if c.relation != EQUAL)
    cost = minimize + [0] * num_slack
    base_cols = n + num_slack
    ncols = base_cols + len(art_scales)
    rows: list[list[int]] = []
    basis: list[int] = []
    slack_col, art_col = n, base_cols
    for row, slack in scaled:
        full = row[:-1] + [0] * (ncols - n) + row[-1:]
        if slack == 1:
            basis.append(slack_col)
        else:
            full[art_col] = 1
            basis.append(art_col)
            art_col += 1
        if slack:
            full[slack_col] = slack
            slack_col += 1
        rows.append(full)

    tab = _Tableau(rows, basis)

    if art_scales:
        # Phase one minimizes the sum of the unscaled artificials: the
        # artificial of a row scaled by s weighs 1/s, here lcm / s.
        weight = lcm(*art_scales)
        r = tab.reduced_cost_row([0] * base_cols + [weight // s for s in art_scales])
        status = tab.run(r, ncols)
        if status != OPTIMAL:  # sum of artificials is bounded below by 0
            raise ConsistencyError("phase one cannot be unbounded")
        if r[-1] != 0:
            return LpOutcome(status=INFEASIBLE)
        # Drive leftover artificials out of the basis (degenerate rows).
        for i in range(len(tab.rows) - 1, -1, -1):
            if tab.basis[i] < base_cols:
                continue
            prow = tab.rows[i]
            for j in range(base_cols):
                if prow[j]:
                    tab.pivot(None, i, j)
                    break
            else:
                # Redundant constraint: drop the row entirely.
                del tab.rows[i]
                del tab.basis[i]
        # Forbid artificial columns from re-entering.
        for row in tab.rows:
            row[base_cols:-1] = []
        ncols = base_cols

    r = tab.reduced_cost_row(cost)
    status = tab.run(r, ncols)
    if status == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED)

    solution = [_ZERO] * n
    for i, b in enumerate(tab.basis):
        if b < n:
            solution[b] = Fraction(tab.rows[i][-1], tab.d)

    value = Fraction(*_dot(program.objective, solution))
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

