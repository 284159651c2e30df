"""Exact rational linear programming via a two-phase primal simplex.

Programs hold exact coefficients: an ``int`` stays an ``int``, and
anything else becomes a ``fractions.Fraction``.  Optimal values and
solution vectors are ``Fraction``s.  Each optimum is read as int
numerators X over the dictionary's divisor d and re-substituted into
the program's own rows, exactly, as ``coeffs . X <rel> rhs * d``,
before its ``Fraction``s are made and it is returned.
Bland's pivot rule makes the solver deterministic and guarantees
termination on the degenerate systems that weight-space boundaries
produce routinely.

Programs come in one form: minimize or maximize over x >= 0, subject
to ``<=``, ``=`` and ``>=`` rows.  Every program this package builds is
over nonnegative unknowns (simplex weights, max-min margins, convex
multipliers), so the program's variables enter the simplex as they
stand.  ``lp_solve`` is pure: identical programs yield identical
outcomes, and concurrent invocations share no state.  A warm start
(below) changes only the dictionary it is handed, and may end at
another optimal solution of the same value.

Inside the kernel the simplex is an integer dictionary (Chvatal 1983,
ch. 2), pivoted as in Avis's lrs.  Each row is scaled once by the lcm of
its denominators, and negated when its scaled rhs is negative, or zero
on a ``>=`` row.  A row of plain ints, as every program this package
builds is, is told by one type pass and taken as it stands.  Variables
are labelled in order: the program's variables, the slacks, then one
artificial per row whose slack is not then +1.  Only nonbasic variables
have a column, the rhs last; a pivot swaps two labels, so the width
never changes.  The true dictionary is the int one
over a common divisor d > 0, which starts at 1.  Each pivot is a
fraction-free Bareiss step (Edmonds 1967; Bareiss 1968): every other
row becomes (p * row - f * pivot row) / d, an exact division, and d
becomes |p|.  Bland's rule enters the smallest label below a bar with a
negative reduced cost; phase two bars the artificials.  Positive row
and column scales change neither the sign of a reduced cost nor the
order of the ratios, so the pivots and outcomes are those a
``Fraction`` tableau would give.  ``lp_solve`` returns the outcome
alone; the private ``_solve`` also hands back the final dictionary and
reduced-cost row.  From an optimal one ``_unique_optimum`` reads
whether the optimum is the only one, and from an infeasible one
``_farkas`` reads multipliers on the program's rows that prove it
infeasible.

That final dictionary can also start a program that differs only in
its right-hand side b' (Lemke 1954; Koberstein 2005).  It keeps a row
map: each program row's identity label (its +1 slack after the sign
flip, or its artificial), its signed scale, and the phase-two costs.
Row i's identity column is e_i, so d * B^-1 is read off the
dictionary, and the rhs column becomes d * B^-1 b' in the old row
signs.  The old basis stays dual feasible, and a dual simplex under
Bland's dual rule (Bland 1977) finishes on the same Bareiss pivots;
its optimum is read and re-checked as a cold one is.  The same map
turns a row of the dictionary into a combination of the program's own
rows: row i's identity label appears in row i alone, with coefficient
1, so its coefficient in a dictionary row is row i's multiplier, and
the signed scale carries it back to the row as given.

Not built for speed beyond desk scale (a few hundred constraints): the
dictionary is dense and nothing is factorized; a dictionary is reused
only by a caller that hands it back.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import eq, ge, le, mul
from typing import Iterable, Optional, Sequence

from .errors import ConsistencyError, ValidationError

# Relations accepted in constraints, the comparison each makes of a
# row's two sides, and the coefficient each gives its row's slack column
# before any sign flip.
LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_HOLDS = {LESS_EQUAL: le, EQUAL: eq, GREATER_EQUAL: ge}
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


def _plain_ints(values: Iterable) -> bool:
    """Are all the values plain ints (a bool is not one)?  One pass at
    C speed, so a row of ints costs no Python loop."""
    return set(map(type, values)) <= {int}


def _exact_vector(values: Iterable) -> tuple[Fraction | int, ...]:
    """Each int as it stands, anything else through ``rational``."""
    # A generator is listed first, so the tuple is allocated once at its
    # final size.  Grown from a generator past ten items it is
    # reallocated, and such tuples pile up on CPython's free lists
    # between full collections.
    if not isinstance(values, (list, tuple)):
        values = list(values)
    if _plain_ints(values):
        return tuple(values)
    return tuple([v if type(v) is int else rational(v) for v in values])


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
    """One row ``coeffs . x  <rel>  rhs`` with rel in {<=, =, >=}.

    Coefficients and rhs are exact: an ``int`` stays an ``int``, and
    anything else becomes a ``Fraction`` through ``rational``."""

    coeffs: tuple[Fraction | int, ...]
    relation: str
    rhs: Fraction | int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _exact_vector(self.coeffs))
        if type(self.rhs) is not int:
            object.__setattr__(self, "rhs", rational(self.rhs))
        if self.relation not in _HOLDS:
            raise ValidationError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """``sense`` ('min' or 'max') of ``objective . x`` over x >= 0,
    subject to ``constraints``."""

    sense: str
    objective: tuple[Fraction | int, ...]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise ValidationError(f"sense must be 'min' or 'max', got {self.sense!r}")
        object.__setattr__(self, "objective", _exact_vector(self.objective))
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


class _Dictionary:
    """Fraction-free simplex dictionary: ``rows[i]`` holds the basic
    label ``basic[i]`` and column j the nonbasic label ``nonbasic[j]``,
    over the common divisor ``d``.  With the identity as the starting
    basis, ``d`` is the determinant of the current basis up to sign, and
    every entry is a minor of the scaled integer program (Edmonds 1967),
    so each Bareiss update divides exactly.
    """

    def __init__(
        self,
        rows: list[list[int]],
        basic: list[int],
        nonbasic: list[int],
        base_cols: int,
        program: LinearProgram,
        signs: list[int],
        cost: list[int],
    ):
        self.rows = rows
        self.basic = basic
        self.nonbasic = nonbasic
        self.base_cols = base_cols  # labels from here on are artificials
        self.d = 1
        # The row map: the program solved, and for each of its rows the
        # identity label it seeds the basis with and its signed scale;
        # then the phase-two costs of the program's variables.
        self.program = program
        self.units = list(basic)
        self.signs = signs
        self.cost = cost

    def reduced_cost_row(self, cost: list[int]) -> list[int]:
        """``d`` times the reduced costs of ``cost``, one per label, on the
        columns, and minus ``d`` times its value at the basic solution."""
        d = self.d
        r = [d * cost[label] for label in self.nonbasic] + [0]
        for row, b in zip(self.rows, self.basic):
            cb = cost[b]
            if cb:
                r = [a - cb * v if v else a for a, v in zip(r, row)]
        return r

    def pivot(self, r: Optional[list[int]], pi: int, pj: int) -> None:
        """Bareiss step on (pi, pj): every other row, ``r`` included,
        becomes ``(p * row - f * prow) // d`` with ``f = row[pj]``, and d
        becomes |p|.  The leaving label takes column pj: ``s * d`` in the
        pivot row, ``-s * f`` elsewhere, with s the sign of p (negative
        only in a drive-out, which negates the pivot row first)."""
        prow = self.rows[pi]
        p = prow[pj]
        s = 1
        if p < 0:
            p, s = -p, -1
            prow[:] = [-v for v in prow]
        d = self.d
        others = self.rows if r is None else self.rows + [r]
        for row in others:
            if row is prow:
                continue
            f = row[pj]
            if f:
                row[:] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                row[pj] = -s * f
            elif p != d:
                row[:] = [p * a // d for a in row]
        prow[pj] = s * d
        self.d = p
        self.basic[pi], self.nonbasic[pj] = self.nonbasic[pj], self.basic[pi]

    def run(self, r: list[int], bar: int) -> str:
        """Minimize with Bland's rule over the labels below ``bar``;
        returns 'optimal' or 'unbounded'.

        Entering: smallest label with negative reduced cost.
        Leaving: minimum ratio, ties broken by smallest basic label.
        Ratios rhs / a with a > 0 are compared by cross-multiplying.
        """
        rows = self.rows
        basic = self.basic
        nonbasic = self.nonbasic
        while True:
            candidates = [j for j, v in enumerate(nonbasic) if v < bar and r[j] < 0]
            if not candidates:
                return OPTIMAL
            enter = min(candidates, key=nonbasic.__getitem__)
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
                    if lhs < rhs or (lhs == rhs and basic[i] < basic[leave]):
                        leave, best_rhs, best_a = i, row[-1], a
            if leave < 0:
                return UNBOUNDED
            self.pivot(r, leave, enter)

    def dual_run(self, r: list[int], bar: int) -> str:
        """Dual simplex from reduced costs >= 0 on the labels below
        ``bar``, which alone may enter; returns 'optimal' or
        'infeasible'.

        Leaving: smallest basic label with a negative value.
        Entering: minimum ratio r_j / -a over a < 0 in the leaving row,
        ties broken by smallest label.  With none, the row sets a sum
        of terms >= 0 (the barred artificials are 0) to a negative
        value, so the program is infeasible.  Ratios are compared by
        cross-multiplying.  This is Bland's rule on the dual, so it
        terminates.
        """
        rows = self.rows
        basic = self.basic
        nonbasic = self.nonbasic
        while True:
            negative = [i for i, row in enumerate(rows) if row[-1] < 0]
            if not negative:
                return OPTIMAL
            leave = min(negative, key=basic.__getitem__)
            enter = -1
            best_r = best_a = 0
            for j, a in enumerate(rows[leave][:-1]):
                if a < 0 and nonbasic[j] < bar:
                    if enter < 0:
                        enter, best_r, best_a = j, r[j], a
                        continue
                    lhs = r[j] * -best_a
                    rhs = best_r * -a
                    if lhs < rhs or (lhs == rhs and nonbasic[j] < nonbasic[enter]):
                        enter, best_r, best_a = j, r[j], a
            if enter < 0:
                return INFEASIBLE
            self.pivot(r, leave, enter)


def _scale(values: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """The lcm of the denominators, and the values times it.  The
    values are listed once, so an iterator is read once."""
    values = list(values)
    if _plain_ints(values):
        return 1, values
    s = lcm(*[v.denominator for v in values])
    return s, [v.numerator * (s // v.denominator) for v in values]


def lp_solve(program: LinearProgram) -> LpOutcome:
    """Solve exactly; optimal results are certified by re-substitution.

    Malformed programs never reach the kernel: LinearProgram validates
    dimensions at construction.
    """
    return _solve(program)[0]


def _unique_optimum(tab: _Dictionary, r: list[int]) -> bool:
    """Does the final phase-two state prove the optimum unique?  It does
    when every nonbasic label below the artificials has a reduced cost
    > 0: a feasible point has every artificial at 0, so its value
    exceeds the optimum by sum(r_j * x_j) / d over those labels, which
    is 0 only when each of them is 0, and that fixes the basic ones.
    The test is sufficient, not necessary: a primal degenerate optimum
    may be unique with a zero reduced cost."""
    return all(v > 0 for j, v in zip(tab.nonbasic, r) if j < tab.base_cols)


def _farkas(tab: _Dictionary, r: list[int]) -> list[int]:
    """Multipliers pi on the rows of tab's program, one per row, read
    off an infeasible ending of ``_solve``: pi_i >= 0 on a ``<=`` row and
    <= 0 on a ``>=`` row, pi . A >= 0 in every column, and pi . b < 0.
    No x >= 0 meets them all: it would give 0 <= pi . A x <= pi . b,
    the second row by row (Farkas 1902).  They are ints; any positive
    multiple would do.

    Kernel row i is signs[i] times program row i, plus its slack and
    artificial, and its identity label units[i] has coefficient 1 there
    and 0 in every other row.  A combination of kernel rows with
    multipliers m is the program's rows with m_i * signs[i].

    A warm ending has a row with a negative value, where ``dual_run``
    stopped: the smallest basic label with one.  That row is d * B^-1
    applied to the kernel rows, so m_i is its coefficient on units[i]
    (d if that label is the row's own basic label, 0 if it is basic
    elsewhere).  Every label below the artificials has a coefficient
    >= 0 in it, so every column and every slack does, the slack's
    sign giving pi_i's; the rhs is < 0.

    A cold ending is phase one's optimum: every value >= 0, and the
    sum of the artificials, weighted by c (lcm / |signs[i]| on row i's
    artificial, as ``_solve`` weighs them), > 0.  Its simplex
    multipliers u give units[i] the reduced cost c_i - u_i, and r holds
    d times it off the basis (0 on it).  Every reduced cost is >= 0, so
    u . A <= 0 on the program's columns and on each slack, and
    u . b is the positive optimum: m = -d * u, that is, r on units[i]
    minus d * c_i."""
    d = tab.d
    column = {label: j for j, label in enumerate(tab.nonbasic)}
    negative = [i for i, row in enumerate(tab.rows) if row[-1] < 0]
    if negative:
        i = min(negative, key=tab.basic.__getitem__)
        row, own = tab.rows[i], tab.basic[i]
        m = [
            d if unit == own else row[column[unit]] if unit in column else 0
            for unit in tab.units
        ]
    else:
        base = tab.base_cols
        weight = lcm(*[abs(s) for u, s in zip(tab.units, tab.signs) if u >= base])
        m = [
            (r[column[u]] if u in column else 0)
            - (d * weight // abs(s) if u >= base else 0)
            for u, s in zip(tab.units, tab.signs)
        ]
    return [v * s for v, s in zip(m, tab.signs)]


def _solve(
    program: LinearProgram,
    start: Optional[tuple[_Dictionary, list[int]]] = None,
) -> tuple[LpOutcome, _Dictionary, list[int]]:
    """``lp_solve``'s outcome together with the final state: the
    dictionary and its reduced-cost row (``d`` times the reduced costs
    of the objective it minimized).  That is phase two's, except when a
    cold solve finds the program infeasible: it then ends in phase one,
    and the state is phase one's, the sum of the artificials minimized
    at a positive value.  Either infeasible ending is what ``_farkas``
    reads.

    ``start`` is the final state of an earlier solve, which this one
    takes over and changes.  It is used when it ended a program with
    this one's sense, objective, relations and coefficients, kept every
    row, has no basic artificial and has reduced costs >= 0 below the
    artificials, and when this program's rhs are ints: its rhs column
    is set to this program's (``_rebase``) and the dual simplex
    finishes.  An infeasible result then hands back its dictionary,
    which is still a start.  Any other start is left alone and the
    solve is cold.  A phase-one ending is never a start: one of its
    artificials is basic at a positive value."""
    if start is not None and _rebase(program, *start):
        tab, r = start
        if tab.dual_run(r, tab.base_cols) == INFEASIBLE:
            return LpOutcome(status=INFEASIBLE), tab, r
        return _finish(program, tab, r)

    n = program.num_vars
    _, minimize = _scale(program.objective)
    if program.sense == MAXIMIZE:
        minimize = [-c for c in minimize]

    num_slack = sum(1 for c in program.constraints if c.relation != EQUAL)
    base_cols = n + num_slack
    scaled = [
        (_scale(con.coeffs + (con.rhs,)), _SLACK_SIGN[con.relation])
        for con in program.constraints
    ]
    # A surplus keeps slack -1 after the sign flip below: a ``>=`` row
    # with rhs > 0 or a ``<=`` row with rhs < 0.  It starts as a column.
    num_surplus = sum(slack * row[-1] < 0 for (_, row), slack in scaled)
    rows: list[list[int]] = []
    basic: list[int] = []
    nonbasic = list(range(n))
    art_scales: list[int] = []
    signs: list[int] = []
    slack_label = n
    for (scale, row), slack in scaled:
        # Sign the row; a zero-rhs surplus row is negated too, so that
        # its slack can seed the basis.
        if row[-1] < 0 or (row[-1] == 0 and slack < 0):
            row = [-v for v in row]
            slack = -slack
            scale = -scale
        signs.append(scale)
        full = row[:-1] + [0] * num_surplus + row[-1:]
        if slack == 1:
            basic.append(slack_label)
        else:
            basic.append(base_cols + len(art_scales))
            art_scales.append(abs(scale))
        if slack < 0:
            full[len(nonbasic)] = -1
            nonbasic.append(slack_label)
        if slack:
            slack_label += 1
        rows.append(full)

    tab = _Dictionary(rows, basic, nonbasic, base_cols, program, signs, minimize)

    if art_scales:
        # Phase one minimizes the sum of the unscaled artificials: the
        # artificial of a row scaled by s weighs 1/s, here lcm / s.
        weight = lcm(*art_scales)
        r = tab.reduced_cost_row([0] * base_cols + [weight // s for s in art_scales])
        # The sum of the artificials is bounded below by 0.
        if tab.run(r, base_cols + len(art_scales)) != OPTIMAL:
            raise ConsistencyError("phase one cannot be unbounded")
        if r[-1] != 0:
            return LpOutcome(status=INFEASIBLE), tab, r
        # Drive leftover artificials out of the basis (degenerate rows).
        for i in range(len(rows) - 1, -1, -1):
            if basic[i] < base_cols:
                continue
            prow = rows[i]
            columns = [j for j, v in enumerate(nonbasic) if v < base_cols and prow[j]]
            if columns:
                tab.pivot(None, i, min(columns, key=nonbasic.__getitem__))
            else:
                # Redundant constraint: drop the row entirely.
                del rows[i]
                del basic[i]

    # Phase two bars the artificials from entering; their columns stay.
    r = tab.reduced_cost_row(minimize + [0] * (num_slack + len(art_scales)))
    if tab.run(r, base_cols) == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED), tab, r
    return _finish(program, tab, r)


def _rebase(program: LinearProgram, tab: _Dictionary, r: list[int]) -> bool:
    """Set tab's rhs column to d * B^-1 b', b' program's int rhs in the
    row signs and scales of tab's own program, and r's value to match,
    when tab may start program (see ``_solve``); else change nothing
    and return False.  Row i's identity column is e_i in those rows, so
    d * B^-1 b' sums b'_i times tab's column of i's identity label, or
    d * b'_i at that label's row when it is basic."""
    old = tab.program
    base = tab.base_cols
    rhs = [con.rhs * s for con, s in zip(program.constraints, tab.signs)]
    if (
        (old.sense, old.objective) != (program.sense, program.objective)
        or [(c.coeffs, c.relation) for c in old.constraints]
        != [(c.coeffs, c.relation) for c in program.constraints]
        or len(tab.rows) != len(rhs)
        or not _plain_ints(rhs)
        or any(b >= base for b in tab.basic)
        or any(v < 0 for j, v in zip(tab.nonbasic, r) if j < base)
    ):
        return False
    d = tab.d
    column = {label: j for j, label in enumerate(tab.nonbasic)}
    values = [0] * len(rhs)
    for unit, b in zip(tab.units, rhs):
        if b:
            j = column.get(unit)
            if j is None:
                values[tab.basic.index(unit)] += d * b
            else:
                values = [v + row[j] * b for v, row in zip(values, tab.rows)]
    r[-1] = 0
    for row, v, label in zip(tab.rows, values, tab.basic):
        row[-1] = v
        if label < len(tab.cost):
            r[-1] -= tab.cost[label] * v
    return True


def _finish(
    program: LinearProgram, tab: _Dictionary, r: list[int]
) -> tuple[LpOutcome, _Dictionary, list[int]]:
    """The optimal outcome read off tab, cold or warm: the optimum is
    X / d, X[b] the rhs of b's row and 0 off the basis, re-checked
    against the program's own rows before its ``Fraction``s are made."""
    d = tab.d
    n = program.num_vars
    x = [0] * n
    for row, b in zip(tab.rows, tab.basic):
        if b < n:
            x[b] = row[-1]
    _check_solution(program, x, d)
    outcome = LpOutcome(
        status=OPTIMAL,
        value=Fraction(sum(map(mul, program.objective, x)), d),
        solution=tuple([Fraction(v, d) if v else _ZERO for v in x]),
    )
    return outcome, tab, r


def _check_solution(program: LinearProgram, x: list[int], d: int) -> None:
    """Exact feasibility re-check of the solution X / d, d > 0, against
    the program's own rows: X >= 0, and each row as
    ``coeffs . X  <rel>  rhs * d``, in ints for a row of ints and exact
    for any other."""
    for i, v in enumerate(x):
        if v < 0:
            raise ConsistencyError(
                f"solver returned negative x[{i}] = {Fraction(v, d)}"
            )
    for idx, con in enumerate(program.constraints):
        if not _HOLDS[con.relation](sum(map(mul, con.coeffs, x)), con.rhs * d):
            raise ConsistencyError(
                f"solver solution violates constraint {idx}: "
                f"{con.coeffs} {con.relation} {con.rhs} "
                f"at {tuple(Fraction(v, d) for v in x)}"
            )
