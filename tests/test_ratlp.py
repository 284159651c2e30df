import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import ndsupport.classify
import ndsupport.ratlp
import ndsupport.weightspace
from conftest import (
    anticorrelated_rows,
    differential_corpus,
    random_rational_rows,
    random_rows,
)
from ndsupport.classify import _below_program, _cell_program, classify_all, cross_check
from ndsupport.errors import ConsistencyError, ValidationError
from ndsupport.instances import generate_points, lift_zero_objective
from ndsupport.outcomes import validate_instance
from ndsupport.ratlp import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    LinearConstraint,
    LinearProgram,
    LpOutcome,
    OPTIMAL,
    UNBOUNDED,
    _HOLDS,
    _check_solution,
    _duals,
    _exact_vector,
    _farkas,
    _scale,
    _solve,
    _unique_optimum,
    lp_solve,
    rational,
)
from ndsupport.weightspace import decompose


def ge(coeffs, rhs):
    return LinearConstraint(coeffs, GREATER_EQUAL, rhs)


def le(coeffs, rhs):
    return LinearConstraint(coeffs, LESS_EQUAL, rhs)


def eq(coeffs, rhs):
    return LinearConstraint(coeffs, EQUAL, rhs)


def test_single_variable_bound():
    out = lp_solve(LinearProgram("min", (1,), (ge((1,), 3),)))
    assert out.status == OPTIMAL
    assert out.value == 3
    assert out.solution == (F(3),)


def test_counterexample_strict_witness_lp():
    # maximize t subject to lambda in the simplex, lambda_i >= t, and
    # lambda . (y^j - y^1) >= 0 for the three other outcome points.
    y1, y2, y3, y4 = (2, 9, 1), (3, 6, 1), (8, 3, 1), (6, 5, 1)
    cons = [eq((1, 1, 1, 0), 1)]
    for i in range(3):
        coeffs = [0, 0, 0, -1]
        coeffs[i] = 1
        cons.append(ge(coeffs, 0))
    for other in (y2, y3, y4):
        cons.append(ge(tuple(o - a for o, a in zip(other, y1)) + (0,), 0))
    out = lp_solve(LinearProgram("max", (0, 0, 0, 1), tuple(cons)))
    assert out.status == OPTIMAL
    assert out.value > 0
    lam = out.solution[:3]
    assert sum(lam) == 1 and all(v >= out.value for v in lam)
    # The optimizer really makes y^1 a weighted-sum minimizer.
    score = lambda y: sum(l * c for l, c in zip(lam, y))
    assert all(score(y1) <= score(y) for y in (y2, y3, y4))


def test_forced_zero_optimum():
    # 3*l1 <= l2 and l2 <= l1 pinch l1 = l2 = 0, so max l1 is 0.
    cons = (
        ge((-3, 1), 0),
        ge((1, -1), 0),
        le((1, 1), 1),
    )
    out = lp_solve(LinearProgram("max", (1, 0), cons))
    assert out.status == OPTIMAL
    assert out.value == 0


def test_feasibility_contradictory_bounds():
    out = lp_solve(LinearProgram("min", (0,), (ge((1,), 1), le((1,), 0))))
    assert out.status == INFEASIBLE and out.solution is None


def test_feasibility_weak_witness_for_y4():
    # lambda >= 0, sum = 1, lambda.(y' - y4) >= 0 for the other
    # three points; the only solution is (0, 0, 1).
    y4 = (6, 5, 1)
    others = [(2, 9, 1), (3, 6, 1), (8, 3, 1)]
    cons = [eq((1, 1, 1), 1)]
    for other in others:
        cons.append(ge(tuple(o - a for o, a in zip(other, y4)), 0))
    out = lp_solve(LinearProgram("min", (0, 0, 0), tuple(cons)))
    assert out.status == OPTIMAL
    assert out.solution == (F(0), F(0), F(1))


def test_feasibility_vacuous_system():
    out = lp_solve(LinearProgram("min", (0,), ()))
    assert out.status == OPTIMAL
    assert out.solution == (F(0),)


def test_infeasible_equalities():
    out = lp_solve(LinearProgram("min", (1, 1), (eq((1, 1), 1), eq((1, 1), 2))))
    assert out.status == INFEASIBLE
    assert out.value is None and out.solution is None


def test_unbounded():
    out = lp_solve(LinearProgram("max", (1,), (ge((1,), 0),)))
    assert out.status == UNBOUNDED


def test_rational_coefficients_stay_exact():
    out = lp_solve(
        LinearProgram(
            "min",
            (F(1, 3), F(1, 7)),
            (ge((1, 0), F(2, 5)), ge((0, 1), F(3, 11))),
        )
    )
    assert out.status == OPTIMAL
    assert out.value == F(1, 3) * F(2, 5) + F(1, 7) * F(3, 11)


def test_reduced_form_closure():
    import math

    rng = random.Random(5)
    for _ in range(20):
        cons = tuple(
            ge(tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)),
               F(rng.randint(-5, 5)))
            for _ in range(4)
        )
        out = lp_solve(LinearProgram("min", (1, 1, 1), cons))
        if out.status != OPTIMAL:
            continue
        for v in list(out.solution) + [out.value]:
            assert v.denominator > 0
            assert math.gcd(abs(v.numerator), v.denominator) == 1


def test_degenerate_cycling_candidate_terminates():
    # Beale-style degeneracy; Bland's rule must terminate.
    cons = (
        le((F(1, 4), -60, F(-1, 25), 9), 0),
        le((F(1, 2), -90, F(-1, 50), 3), 0),
        le((0, 0, 1, 0), 1),
    )
    out = lp_solve(
        LinearProgram("max", (F(3, 4), -150, F(1, 50), -6), cons)
    )
    assert out.status == OPTIMAL
    assert out.value == F(1, 20)


def test_redundant_constraints():
    cons = (eq((1, 1), 1), eq((2, 2), 2), ge((1, 0), 0))
    out = lp_solve(LinearProgram("min", (1, 2), cons))
    assert out.status == OPTIMAL
    assert out.value == 1
    assert out.solution == (F(1), F(0))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        LinearProgram("min", (1, 2), (ge((1,), 0),))
    with pytest.raises(ValidationError):
        LinearProgram("min", (), ())
    with pytest.raises(ValidationError):
        LinearConstraint((1, 2), "<", 0)


def _certify(program, outcome):
    """Reference: exact feasibility re-check of an optimal outcome's
    solution, scaled once to ints X over the lcm of its denominators
    and handed to the kernel's own check."""
    assert outcome.solution is not None
    d, x = _scale(outcome.solution)
    _check_solution(program, x, d)


def _dot(a, b):
    """Reference: exact inner product as (numerator, denominator > 0),
    accumulated over one common denominator and not reduced."""
    num, den = 0, 1
    for u, v in zip(a, b):
        d = u.denominator * v.denominator
        common = math.lcm(den, d)
        num = num * (common // den) + u.numerator * v.numerator * (common // d)
        den = common
    return num, den


def holds_at(con, x):
    """Reference: exact check of the constraint con at the point x,
    one ``_dot`` over a common denominator and a cross-multiplied
    comparison: both denominators are positive."""
    num, den = _dot(con.coeffs, x)
    return _HOLDS[con.relation](num * con.rhs.denominator, con.rhs.numerator * den)


def test_certify_rejects_corrupted_solutions():
    # Mutations of a certified optimum must not pass the exact re-check.
    prog = LinearProgram("min", (1, 1), (ge((1, 1), 2),))
    out = lp_solve(prog)
    assert out.status == OPTIMAL and out.value == 2
    # The row still holds at (3, -1); only the sign of x[1] is wrong.
    negative = LpOutcome(status=OPTIMAL, value=F(2), solution=(F(3), F(-1)))
    with pytest.raises(ConsistencyError, match=r"negative x\[1\]"):
        _certify(prog, negative)
    # (1, 0) is nonnegative but misses the row x0 + x1 >= 2.
    violating = LpOutcome(status=OPTIMAL, value=F(1), solution=(F(1), F(0)))
    with pytest.raises(ConsistencyError, match="violates constraint 0"):
        _certify(prog, violating)
    # An int-row program and its Fraction-row twin (every row over 6),
    # checked at solutions with mixed denominators.
    int_rows = (ge((1, 1), 2), le((3, -1), 4), LinearConstraint((2, 3), EQUAL, 7))
    frac_rows = tuple(
        LinearConstraint([F(c, 6) for c in con.coeffs], con.relation, F(con.rhs, 6))
        for con in int_rows
    )
    for rows in (int_rows, frac_rows):
        prog = LinearProgram("min", (1, 1), rows)
        out = lp_solve(prog)
        assert out.status == OPTIMAL
        _certify(prog, out)
        # x0 + x1 = 7/3 >= 2 and 3 x0 - x1 = 1 <= 4 hold; 2 x0 + 3 x1 = 37/6 misses 7.
        near = LpOutcome(status=OPTIMAL, value=F(7, 3), solution=(F(5, 6), F(3, 2)))
        with pytest.raises(ConsistencyError, match="violates constraint 2"):
            _certify(prog, near)
        # 3 x0 - x1 = 13/3 misses <= 4 before the equality row is reached.
        high = LpOutcome(status=OPTIMAL, value=F(7, 3), solution=(F(16, 9), F(1, 1)))
        with pytest.raises(ConsistencyError, match="violates constraint 1"):
            _certify(prog, high)
        negative = LpOutcome(status=OPTIMAL, value=F(2), solution=(F(7, 2), F(-1, 3)))
        with pytest.raises(ConsistencyError, match=r"negative x\[1\]"):
            _certify(prog, negative)


@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(-1000, 1000), st.fractions(-100, 100, max_denominator=90)),
            st.fractions(0, 100, max_denominator=90),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from((LESS_EQUAL, EQUAL, GREATER_EQUAL)),
    st.one_of(st.integers(-1000, 1000), st.fractions(-100, 100, max_denominator=90)),
    st.sampled_from((None, -1, 0, 1)),
)
def test_certify_equals_holds_at(pairs, relation, rhs, offset):
    # _certify checks each row on the solution scaled to ints; holds_at,
    # term by term over Fractions, is the reference, for int and
    # Fraction rows alike.
    coeffs = tuple(c for c, _ in pairs)
    x = tuple(v for _, v in pairs)
    if offset is not None:
        # Land on, or just beside, the row's boundary.
        rhs = sum(F(c) * v for c, v in zip(coeffs, x)) + F(offset, 7)
    con = LinearConstraint(coeffs, relation, rhs)
    prog = LinearProgram("min", (0,) * len(x), (con,))
    out = LpOutcome(status=OPTIMAL, value=F(0), solution=x)
    if holds_at(con, x):
        _certify(prog, out)
    else:
        with pytest.raises(ConsistencyError, match="violates constraint 0"):
            _certify(prog, out)


def corrupt_phase_two(monkeypatch, n, corrupt):
    """Run the dictionary as usual, then after phase two replace the rhs
    of the first row whose basic label is one of the n program variables
    by ``corrupt(rhs, d)``: the optimum X / d the solver reads is wrong."""
    run = ndsupport.ratlp._Dictionary.run

    def corrupted(tab, r, bar):
        status = run(tab, r, bar)
        if bar == tab.base_cols:  # phase two bars the artificials
            i = next(i for i, b in enumerate(tab.basic) if b < n)
            tab.rows[i][-1] = corrupt(tab.rows[i][-1], tab.d)
        return status

    monkeypatch.setattr(ndsupport.ratlp._Dictionary, "run", corrupted)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda v, d: v + d, "violates constraint 0"),
        (lambda v, d: -v, r"negative x\["),
    ],
)
def test_solve_rejects_a_corrupted_int_optimum(monkeypatch, corrupt, message):
    # The optimum (8/5, 6/5) makes both rows tight over d = 5: one more
    # unit on a basic variable breaks row 0, and a negated rhs makes a
    # variable negative.  _solve must catch either before returning.
    prog = LinearProgram("max", (1, 1), (le((1, 2), 4), le((3, 1), 6)))
    out = lp_solve(prog)
    assert out.solution == (F(8, 5), F(6, 5))
    corrupt_phase_two(monkeypatch, prog.num_vars, corrupt)
    with pytest.raises(ConsistencyError, match=message):
        lp_solve(prog)


# One coordinate as a caller may write it: a plain int, a bool, a
# Fraction, or an exact literal.
loose = st.one_of(
    st.integers(-10**20, 10**20),
    st.booleans(),
    st.fractions(-100, 100, max_denominator=90),
    st.fractions(-100, 100, max_denominator=90).map(str),
    st.sampled_from(("9/2", "0.7", "-3", "1e2")),
)
loose_rows = st.one_of(
    st.lists(st.integers(-10**20, 10**20), max_size=14),
    st.lists(loose, max_size=14),
)
row_forms = st.sampled_from((tuple, list, lambda values: (v for v in values)))


@given(loose_rows, row_forms)
def test_exact_vector_fast_path_equals_the_comprehension(values, form):
    expected = tuple([v if type(v) is int else rational(v) for v in values])
    got = _exact_vector(form(values))
    assert got == expected
    assert list(map(type, got)) == list(map(type, expected))


@given(loose_rows, row_forms)
def test_scale_fast_path_equals_the_lcm_formula(values, form):
    exact = [v if type(v) is int or type(v) is bool else rational(v) for v in values]
    s = math.lcm(*[v.denominator for v in exact])
    expected = [v.numerator * (s // v.denominator) for v in exact]
    scale, got = _scale(form(exact))
    assert (scale, got) == (s, expected)
    assert {type(v) for v in got} <= {int}


@given(loose_rows, row_forms, st.data())
def test_a_float_anywhere_in_a_row_is_refused(values, form, data):
    row = list(values)
    row.insert(data.draw(st.integers(0, len(row))), data.draw(st.floats()))
    with pytest.raises(ValidationError):
        _exact_vector(form(row))
    with pytest.raises(ValidationError):
        LinearConstraint(form(row), LESS_EQUAL, 0)


exact = st.one_of(st.integers(-1000, 1000), st.fractions(-100, 100, max_denominator=90))


@given(
    st.lists(st.tuples(exact, exact), min_size=1, max_size=6),
    st.sampled_from((LESS_EQUAL, EQUAL, GREATER_EQUAL)),
    exact,
    st.sampled_from((None, -1, 0, 1)),
)
def test_holds_at_equals_plain_fraction_comparison(pairs, relation, rhs, offset):
    coeffs = tuple(c for c, _ in pairs)
    x = tuple(F(v) for _, v in pairs)
    lhs = sum(F(c) * v for c, v in zip(coeffs, x))
    if offset is not None:
        # Land on, or just beside, the row's boundary.
        rhs = lhs + F(offset, 7)
    con = LinearConstraint(coeffs, relation, rhs)
    plain = {LESS_EQUAL: lhs <= rhs, EQUAL: lhs == rhs, GREATER_EQUAL: lhs >= rhs}
    assert holds_at(con, x) is plain[relation]


def test_floats_rejected():
    with pytest.raises(ValidationError):
        rational(0.5)
    assert rational("0.7") == F(7, 10)
    assert rational("2/3") == F(2, 3)


def test_outcome_invariant_enforced():
    with pytest.raises(ValidationError):
        LpOutcome(status=OPTIMAL)
    with pytest.raises(ValidationError):
        LpOutcome(status=INFEASIBLE, value=F(0), solution=(F(0),))


def test_determinism():
    cons = (le((1, 2), 4), le((3, 1), 6), ge((1, 1), 1))
    prog = LinearProgram("max", (2, 3), cons)
    first = lp_solve(prog)
    for _ in range(3):
        again = lp_solve(prog)
        assert again == first


def _random_primal_dual(rng):
    """Primal min c.x, Ax >= b, x >= 0 with c >= 0 and its dual."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 8)
    a = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]
    b = [F(rng.randint(-5, 5)) for _ in range(m)]
    c = [F(rng.randint(0, 9)) for _ in range(n)]
    primal = LinearProgram(
        "min", tuple(c), tuple(ge(tuple(row), rhs) for row, rhs in zip(a, b))
    )
    a_t = [[a[i][j] for i in range(m)] for j in range(n)]
    dual = LinearProgram(
        "max", tuple(b), tuple(le(tuple(col), cj) for col, cj in zip(a_t, c))
    )
    return primal, dual


def test_duality_spot_check():
    rng = random.Random(20240817)
    optimal_pairs = 0
    for _ in range(60):
        primal, dual = _random_primal_dual(rng)
        pout = lp_solve(primal)
        dout = lp_solve(dual)
        if pout.status == OPTIMAL:
            assert dout.status == OPTIMAL
            assert dout.value == pout.value
            optimal_pairs += 1
        else:
            # c >= 0 keeps the primal bounded below, so the only other
            # primal status is infeasible, which forces an unbounded dual
            # (y = 0 is always dual-feasible here).
            assert pout.status == INFEASIBLE
            assert dout.status == UNBOUNDED
    assert optimal_pairs >= 20


# ---------------------------------------------------------------------------
# Differential test: the integer kernel against the Fraction kernel it
# replaced.  Bland's rule picks the same pivots in both, so every
# LpOutcome must be equal, witness vectors included.
# ---------------------------------------------------------------------------

_ZERO = F(0)
_ONE = F(1)


class _FractionTableau:
    """Dense simplex tableau: rows of length ncols+1 with the rhs last."""

    def __init__(self, rows, basis):
        self.rows = rows
        self.basis = basis

    def reduced_cost_row(self, cost):
        r = list(cost) + [_ZERO]
        for i, b in enumerate(self.basis):
            cb = r[b]
            if cb:
                row = self.rows[i]
                for j, v in enumerate(row):
                    if v:
                        r[j] -= cb * v
        return r

    def pivot(self, r, pi, pj):
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

    def run(self, r, ncols):
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
            best = None
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


def fraction_lp_solve(program, paths=None):
    """The two-phase Bland simplex in Fraction arithmetic, as the package
    ran it before the integer kernel.  Adds the name of each rare path
    it takes to ``paths`` when given.  Every coefficient, rhs and
    objective entry becomes a ``Fraction`` on entry: a program may keep
    ints, and ``v / piv`` must not turn into float division."""
    paths = set() if paths is None else paths
    n = program.num_vars
    objective = tuple(F(c) for c in program.objective)
    minimize = objective
    if program.sense == "max":
        minimize = tuple(-c for c in minimize)

    num_slack = sum(1 for c in program.constraints if c.relation != EQUAL)
    cost = list(minimize) + [_ZERO] * num_slack
    rows = []
    slack_col = n
    slack_of_row = []
    for con in program.constraints:
        row = [F(c) for c in con.coeffs]
        rhs = F(con.rhs)
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
        if rhs < 0 or (rhs == 0 and slack_sign < 0):
            row = [-v for v in row]
            rhs = -rhs
        row.append(rhs)
        rows.append(row)

    base_cols = n + num_slack
    basis = [-1] * len(rows)
    artificial_rows = []
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

    tab = _FractionTableau(rows, basis)

    if artificial_rows:
        phase1_cost = [_ZERO] * ncols
        for k in range(len(artificial_rows)):
            phase1_cost[base_cols + k] = _ONE
        r = tab.reduced_cost_row(phase1_cost)
        status = tab.run(r, ncols)
        assert status == OPTIMAL
        if -r[-1] != 0:
            paths.add("phase-one infeasible")
            return LpOutcome(status=INFEASIBLE)
        for i in range(len(tab.rows) - 1, -1, -1):
            if tab.basis[i] < base_cols:
                continue
            prow = tab.rows[i]
            for j in range(base_cols):
                if prow[j]:
                    paths.add(
                        "drive-out pivot on a negative element"
                        if prow[j] < 0
                        else "drive-out pivot on a positive element"
                    )
                    dummy = [_ZERO] * (ncols + 1)
                    tab.pivot(dummy, i, j)
                    break
            else:
                paths.add("redundant row dropped")
                del tab.rows[i]
                del tab.basis[i]
        for row in tab.rows:
            row[base_cols:-1] = []
        ncols = base_cols

    r = tab.reduced_cost_row(cost + [_ZERO] * (ncols - base_cols))
    status = tab.run(r, ncols)
    if status == UNBOUNDED:
        paths.add("unbounded")
        return LpOutcome(status=UNBOUNDED)

    std_solution = [_ZERO] * base_cols
    for i, b in enumerate(tab.basis):
        std_solution[b] = tab.rows[i][-1]
    solution = std_solution[:n]
    value = sum(c * v for c, v in zip(objective, solution))
    return LpOutcome(status=OPTIMAL, value=value, solution=tuple(solution))


_RARE_PATHS = {
    "phase-one infeasible",
    "unbounded",
    "redundant row dropped",
    "drive-out pivot on a negative element",
}

_DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 12)


def _random_fraction(rng, lo=-6, hi=6):
    return F(rng.randint(lo, hi), rng.choice(_DENOMINATORS))


def random_program(rng):
    """A small program with mixed denominators, every relation, signed
    right-hand sides, either sense and the odd all-zero row."""
    n = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.1:
            coeffs = (0,) * n
        else:
            coeffs = tuple(
                0 if rng.random() < 0.3 else _random_fraction(rng) for _ in range(n)
            )
        relation = rng.choice((LESS_EQUAL, EQUAL, GREATER_EQUAL))
        rhs = 0 if rng.random() < 0.25 else _random_fraction(rng)
        rows.append(LinearConstraint(coeffs, relation, rhs))
    if rng.random() < 0.6:
        # A positive row bounds the region, so most programs that are
        # feasible have an optimum.
        coeffs = tuple(_random_fraction(rng, 1, 6) for _ in range(n))
        rows.append(LinearConstraint(coeffs, LESS_EQUAL, _random_fraction(rng, 1, 9)))
        rng.shuffle(rows)
    objective = tuple(_random_fraction(rng, -4, 4) for _ in range(n))
    return LinearProgram(rng.choice(("min", "max")), objective, tuple(rows))


def random_equality_system(rng):
    """Three or four ``=`` / ``>=`` rows with nonnegative coefficients and
    positive right-hand sides, so every row starts with an artificial,
    and a zero or nonnegative objective.  The optimum is often not
    unique, and then the vertex phase one ends at is the one returned:
    the weights of the artificials in the phase-one cost decide it."""
    n = rng.randint(4, 8)
    rows = tuple(
        LinearConstraint(
            tuple(_random_fraction(rng, 0, 6) for _ in range(n)),
            rng.choice((EQUAL, GREATER_EQUAL)),
            _random_fraction(rng, 1, 9),
        )
        for _ in range(rng.randint(3, 4))
    )
    if rng.random() < 0.5:
        objective = (0,) * n
    else:
        objective = tuple(_random_fraction(rng, 0, 3) for _ in range(n))
    return LinearProgram("min", objective, rows)


def integer_row(values):
    """values times the lcm of their denominators, as ints."""
    scale = math.lcm(*(F(v).denominator for v in values))
    return tuple(int(v * scale) for v in values)


def classify_corpus_programs(monkeypatch):
    """Every program classify_all, cross_check and decompose pass to
    lp_solve on seeded sets, p = 2..5, integer and rational, each with
    its zero-objective lift.  Every one goes through classify's lp_solve
    or _solve (the V-row witness programs): decompose solves only the
    margin pass."""
    programs = []
    for name in ("lp_solve", "_solve"):
        solve = getattr(ndsupport.classify, name)

        def recorded(program, *start, solve=solve):
            programs.append(program)
            return solve(program, *start)

        monkeypatch.setattr(ndsupport.classify, name, recorded)
    rng = random.Random(71)
    bases = []
    for p in (2, 3, 4, 5):
        for rational_rows in (False, True):
            for _ in range(2):
                n = rng.randint(5, 9)
                if rational_rows:
                    rows = random_rational_rows(rng, n, p)
                else:
                    rows = random_rows(rng, n, p, 0, 6)
                bases.append(validate_instance(rows, p))
    # Two more p = 3 sets keep the corpus above 1,000 programs, since
    # one margin program per point replaces a vertex and a boundary one.
    rng = random.Random(72)
    bases += [validate_instance(random_rows(rng, 9, 3, 0, 6), 3) for _ in range(2)]
    for base in bases:
        for s in (base, lift_zero_objective(base)):
            classify_all(s)
            cross_check(s)
            decompose(s)
    monkeypatch.undo()
    # Every program the package builds is integer, so it takes the
    # kernel's plain-int path going in and coming out.
    for prog in programs:
        values = list(prog.objective)
        for con in prog.constraints:
            values += con.coeffs + (con.rhs,)
        assert all(type(v) is int for v in values), prog
    return programs


def record_pivots(monkeypatch):
    """(entering label, leaving label) of every pivot either kernel takes
    from now on.  A label is a column index of the Fraction tableau."""
    seen = {"int": [], "fraction": []}
    int_pivot = ndsupport.ratlp._Dictionary.pivot
    fraction_pivot = _FractionTableau.pivot

    def recorded_int(tab, r, pi, pj):
        seen["int"].append((tab.nonbasic[pj], tab.basic[pi]))
        int_pivot(tab, r, pi, pj)

    def recorded_fraction(tab, r, pi, pj):
        seen["fraction"].append((pj, tab.basis[pi]))
        fraction_pivot(tab, r, pi, pj)

    monkeypatch.setattr(ndsupport.ratlp._Dictionary, "pivot", recorded_int)
    monkeypatch.setattr(_FractionTableau, "pivot", recorded_fraction)
    return seen


def solve_both(prog, pivots, paths=None):
    """lp_solve's outcome, after checking that it equals the Fraction
    kernel's and came by the same pivots."""
    for sequence in pivots.values():
        sequence.clear()
    out = lp_solve(prog)
    assert out == fraction_lp_solve(prog, paths), prog
    assert pivots["int"] == pivots["fraction"], prog
    return out, len(pivots["int"])


class TestIntegerKernelDifferential:
    def test_classify_corpus_programs(self, monkeypatch):
        programs = classify_corpus_programs(monkeypatch)
        assert len(programs) >= 1000
        pivots = record_pivots(monkeypatch)
        statuses = set()
        total_pivots = 0
        for prog in programs:
            out, count = solve_both(prog, pivots)
            statuses.add(out.status)
            total_pivots += count
        assert statuses == {OPTIMAL, INFEASIBLE}
        assert total_pivots >= 5000

    def test_random_programs(self, monkeypatch):
        pivots = record_pivots(monkeypatch)
        rng = random.Random(20261018)
        paths = set()
        statuses = set()
        # Relation and rhs sign decide a row's sign flip and whether it
        # seeds the basis with its slack or needs an artificial.
        row_kinds = set()
        total_pivots = 0
        for _ in range(3000):
            prog = random_program(rng)
            out, count = solve_both(prog, pivots, paths)
            statuses.add(out.status)
            total_pivots += count
            row_kinds.update(
                (c.relation, (c.rhs > 0) - (c.rhs < 0)) for c in prog.constraints
            )
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
        assert _RARE_PATHS <= paths
        assert row_kinds == {
            (relation, sign)
            for relation in (LESS_EQUAL, EQUAL, GREATER_EQUAL)
            for sign in (-1, 0, 1)
        }
        assert total_pivots >= 3000

    def test_int_programs_match_their_fraction_form(self, monkeypatch):
        # Each random program cleared of denominators row by row, kept in
        # ints and written again in Fractions: the same program, so the
        # same outcome by the same pivots, and the Fraction kernel's.
        pivots = record_pivots(monkeypatch)
        rng = random.Random(20261019)
        statuses = set()
        for _ in range(1500):
            prog = random_program(rng)
            rows = [
                integer_row(con.coeffs + (con.rhs,)) for con in prog.constraints
            ]
            ints = LinearProgram(
                prog.sense,
                integer_row(prog.objective),
                tuple(
                    LinearConstraint(row[:-1], con.relation, row[-1])
                    for row, con in zip(rows, prog.constraints)
                ),
            )
            assert all(type(v) is int for v in ints.objective)
            assert all(
                type(v) is int
                for con in ints.constraints
                for v in con.coeffs + (con.rhs,)
            )
            fractions = LinearProgram(
                ints.sense,
                tuple(map(F, ints.objective)),
                tuple(
                    LinearConstraint(tuple(map(F, con.coeffs)), con.relation, F(con.rhs))
                    for con in ints.constraints
                ),
            )
            out, _ = solve_both(ints, pivots)
            int_pivots = list(pivots["int"])
            assert solve_both(fractions, pivots)[0] == out
            assert pivots["int"] == int_pivots
            statuses.add(out.status)
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_random_equality_systems(self, monkeypatch):
        pivots = record_pivots(monkeypatch)
        rng = random.Random(1968)
        optimal = 0
        for _ in range(1000):
            out, _ = solve_both(random_equality_system(rng), pivots)
            optimal += out.status == OPTIMAL
        assert optimal >= 500


def label_values(tab, nonbasic_values):
    """Every label's value when the nonbasic labels of tab take
    nonbasic_values: row i reads d * x[basic[i]] + row . x[nonbasic] = rhs."""
    values = dict(zip(tab.nonbasic, nonbasic_values))
    for row, b in zip(tab.rows, tab.basic):
        lhs = sum(v * values[label] for v, label in zip(row, tab.nonbasic))
        values[b] = F(row[-1] - lhs, tab.d)
    return values


class TestDictionary:
    """The kernel stores one column per nonbasic label and nothing for a
    basic one."""

    def test_cell_program_width_is_p_plus_2(self, monkeypatch):
        # Every row of a witness program seeds the basis with its slack but
        # sum(lambda) = 1, which needs an artificial and no surplus.
        p = 3
        pivot = ndsupport.ratlp._Dictionary.pivot
        pivots = []

        def checked(tab, r, pi, pj):
            pivot(tab, r, pi, pj)
            pivots.append(pj)
            assert all(len(row) == p + 2 for row in tab.rows)
            assert len(tab.nonbasic) == p + 1
            assert not set(tab.basic) & set(tab.nonbasic)

        monkeypatch.setattr(ndsupport.ratlp._Dictionary, "pivot", checked)
        statuses = set()
        for outcomes in (generate_points(150, p, 7), generate_points(150, p, 8)):
            for k in range(len(outcomes)):
                program = _cell_program(k, outcomes, outcomes.lattice)
                assert len(program.constraints) == len(outcomes) + p
                statuses.add(lp_solve(program).status)
        assert statuses == {OPTIMAL, INFEASIBLE}
        assert len(pivots) >= 500

    def test_every_pivot_keeps_the_solution_set(self, monkeypatch):
        # The leaving label's column is checked too, though phase two
        # never reads an artificial's column: it must carry the sign of
        # a negative drive-out pivot.
        pivot = ndsupport.ratlp._Dictionary.pivot
        rng = random.Random(11)
        negative_pivots = 0

        def checked(tab, r, pi, pj):
            nonlocal negative_pivots
            negative_pivots += tab.rows[pi][pj] < 0
            rows = [list(row) for row in tab.rows]
            basic, nonbasic, d = list(tab.basic), list(tab.nonbasic), tab.d
            pivot(tab, r, pi, pj)
            values = label_values(tab, [rng.randint(-9, 9) for _ in tab.nonbasic])
            for row, b in zip(rows, basic):
                lhs = sum(v * values[label] for v, label in zip(row, nonbasic))
                assert d * values[b] + lhs == row[-1]

        monkeypatch.setattr(ndsupport.ratlp._Dictionary, "pivot", checked)
        programs = random.Random(20261018)
        for _ in range(3000):
            lp_solve(random_program(programs))
        assert negative_pivots > 0


class TestUniqueOptimum:
    """``_solve`` hands back the final phase-two dictionary and reduced-cost
    row, and ``_unique_optimum`` reads from them whether the optimum is
    provably the only one."""

    def test_a_unique_optimum_is_reported_unique(self):
        # min x + 2y s.t. x + y >= 1: only (1, 0) attains 1.
        out, tab, r = _solve(LinearProgram("min", (1, 2), (ge((1, 1), 1),)))
        assert out == lp_solve(LinearProgram("min", (1, 2), (ge((1, 1), 1),)))
        assert out.solution == (1, 0)
        assert _unique_optimum(tab, r)

    def test_two_optimal_vertices_are_not_reported_unique(self):
        # min x + y s.t. x + y >= 1: (1, 0) and (0, 1) both attain 1.
        out, tab, r = _solve(LinearProgram("min", (1, 1), (ge((1, 1), 1),)))
        assert out.value == 1
        assert not _unique_optimum(tab, r)

    def test_barred_artificial_columns_are_left_out(self):
        # The equality row needs an artificial, which phase two keeps as
        # a barred column.  min x s.t. x + y = 1 has the single optimum
        # (0, 1), although the artificial's reduced cost there is 0.
        out, tab, r = _solve(LinearProgram("min", (1, 0), (eq((1, 1), 1),)))
        assert out.solution == (0, 1)
        assert [v for j, v in zip(tab.nonbasic, r) if j >= tab.base_cols] == [0]
        assert _unique_optimum(tab, r)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.data())
    def test_a_unique_optimum_does_not_depend_on_the_pivot_path(self, rng, data):
        # Permuting the columns and the rows changes Bland's pivot path;
        # a proven unique optimum must come back all the same.  A
        # positive row bounds every program.  Maximizing that row, or an
        # objective copied from another row or with zeros, makes ties
        # between optimal vertices common.
        program = random_program(rng)
        positive = tuple(_random_fraction(rng, 1, 6) for _ in program.objective)
        rows = program.constraints + (le(positive, 9),)
        sense = program.sense
        tie = data.draw(st.sampled_from(("none", "facet", "row", "zeros")))
        if tie == "facet":
            sense, objective = "max", positive
        elif tie == "row":
            objective = rng.choice(rows).coeffs
        elif tie == "zeros":
            objective = tuple(0 if rng.random() < 0.5 else v for v in program.objective)
        else:
            objective = program.objective
        program = LinearProgram(sense, objective, rows)
        out, tab, r = _solve(program)
        if out.status != OPTIMAL or not _unique_optimum(tab, r):
            return  # only a proven unique optimum is checked
        cols = data.draw(st.permutations(range(program.num_vars)))
        rows = data.draw(st.permutations(rows))
        moved = lp_solve(
            LinearProgram(
                sense,
                tuple(objective[j] for j in cols),
                tuple(
                    LinearConstraint(tuple(c.coeffs[j] for j in cols), c.relation, c.rhs)
                    for c in rows
                ),
            )
        )
        back = [None] * program.num_vars
        for k, j in enumerate(cols):
            back[j] = moved.solution[k]
        assert moved.value == out.value
        assert tuple(back) == out.solution


def assert_farkas(program, pi):
    """pi, one multiplier per row of program, proves it infeasible, read
    exactly against the program's own rows: pi_i >= 0 on a <= row and
    <= 0 on a >= row, every column's combined coefficient >= 0, and the
    combined rhs < 0."""
    assert len(pi) == len(program.constraints), program
    for v, con in zip(pi, program.constraints):
        assert {LESS_EQUAL: v >= 0, EQUAL: True, GREATER_EQUAL: v <= 0}[con.relation]
    for j in range(program.num_vars):
        assert sum(v * con.coeffs[j] for v, con in zip(pi, program.constraints)) >= 0
    assert sum(v * con.rhs for v, con in zip(pi, program.constraints)) < 0, program


def farkas_of_every_ending(family, seen):
    """Solve each program of family warm, from the final state of the one
    before, and cold; check the multipliers of every infeasible ending.
    seen counts the warm and the cold ones."""
    start = None
    for prog in family:
        for out, tab, r in (_solve(prog, start), _solve(prog)):
            if out.status == INFEASIBLE:
                seen["warm" if start and tab is start[0] else "cold"] += 1
                assert_farkas(prog, _farkas(tab, r))
        start = tab, r


class TestFarkas:
    """``_solve`` hands back the dictionary an infeasible program ended
    on, warm or cold, and ``_farkas`` reads off it multipliers on the
    program's own rows that prove it infeasible."""

    def test_every_infeasible_program_of_the_classify_corpus(self, monkeypatch):
        seen = Counter()
        for family in same_column_families(classify_corpus_programs(monkeypatch)):
            farkas_of_every_ending(family, seen)
        assert seen["warm"] >= 15 and seen["cold"] >= 300, seen

    def test_every_infeasible_program_of_the_differential_corpus(self, monkeypatch):
        seen = Counter()
        solve = ndsupport.classify._solve

        def checked(program, start=None):
            out = solve(program, start)
            if out[0].status == INFEASIBLE:
                seen["warm" if start and out[1] is start[0] else "cold"] += 1
                assert_farkas(program, _farkas(*out[1:]))
            return out

        monkeypatch.setattr(ndsupport.classify, "_solve", checked)
        for s in differential_corpus():
            classify_all(s)
            cross_check(s)
        assert seen["warm"] >= 30 and seen["cold"] >= 300, seen

    def test_a_cold_infeasible_solve_hands_back_phase_one(self):
        # x >= 2 and x <= 1: phase one ends with the >= row's artificial
        # basic at a positive value, so the state is no start.
        program = LinearProgram("min", (1,), (ge((1,), 2), le((1,), 1)))
        out, tab, r = _solve(program)
        assert out.status == INFEASIBLE
        assert r[-1] < 0 and all(row[-1] >= 0 for row in tab.rows)
        assert any(b >= tab.base_cols for b in tab.basic)
        assert_farkas(program, _farkas(tab, r))
        assert not ndsupport.ratlp._rebase(program, tab, r)

    def test_a_negated_row(self):
        # -x - y <= -3 is negated going in (its rhs is negative), and
        # x + y <= 2 contradicts it.  Cold, and warm from a start that
        # negated the same row.
        program = lambda b: LinearProgram(
            "min", (1, 0), (le((-1, -1), b), le((1, 1), 2))
        )
        out, tab, r = _solve(program(-3))
        assert out.status == INFEASIBLE and tab.signs[0] < 0
        assert_farkas(program(-3), _farkas(tab, r))
        out, tab, r = _solve(program(-1))
        assert out.status == OPTIMAL and tab.signs[0] < 0
        out, warm, r = _solve(program(-3), (tab, r))
        assert warm is tab and out.status == INFEASIBLE
        assert_farkas(program(-3), _farkas(tab, r))

    def test_a_fraction_row_scaled_by_six(self):
        # x / 2 + y / 3 >= b is scaled by 6 going in; over x + y <= 1 it
        # reaches 1/2 at most.  The other row's scale is 1, so a reader
        # that leaves a row's scale on gets the combination wrong.
        program = lambda b: LinearProgram(
            "min", (1, 1), (ge((F(1, 2), F(1, 3)), b), le((1, 1), 1))
        )
        out, tab, r = _solve(program(1))
        assert out.status == INFEASIBLE and tab.signs == [6, 1]
        assert_farkas(program(1), _farkas(tab, r))
        out, tab, r = _solve(program(F(1, 3)))
        assert out.status == OPTIMAL
        out, warm, r = _solve(program(1), (tab, r))
        assert warm is tab and out.status == INFEASIBLE
        assert_farkas(program(1), _farkas(tab, r))


def assert_duals(program, outcome, m, d):
    """m, one multiplier per row of program, is an optimal dual solution
    times d * s, read exactly against the program's own rows, with c the
    objective as minimized and s the lcm of its denominators: m_i >= 0
    on a <= row and <= 0 on a >= row, d * s * c_j + m . A_j >= 0 in
    every column j (dual feasibility, so complementary slackness holds
    at equality below), and -m . b = d * s * (c . x*), the primal
    optimum."""
    assert len(m) == len(program.constraints), program
    scale, c = _scale(program.objective)
    sign = -1 if program.sense == "max" else 1
    for v, con in zip(m, program.constraints):
        assert {LESS_EQUAL: v >= 0, EQUAL: True, GREATER_EQUAL: v <= 0}[con.relation]
    for j in range(program.num_vars):
        combined = sum(v * con.coeffs[j] for v, con in zip(m, program.constraints))
        assert d * sign * c[j] + combined >= 0, program
    dual = -sum(v * con.rhs for v, con in zip(m, program.constraints))
    assert dual == d * scale * sign * outcome.value, program


def duals_of_every_ending(family, seen):
    """Solve each program of family warm, from the final state of the one
    before, and cold; check the multipliers of every optimal ending.
    seen counts the warm and the cold ones."""
    start = None
    for prog in family:
        for out, tab, r in (_solve(prog, start), _solve(prog)):
            if out.status == OPTIMAL:
                seen["warm" if start and tab is start[0] else "cold"] += 1
                assert_duals(prog, out, _duals(tab, r), tab.d)
        start = tab, r


class TestDuals:
    """``_duals`` reads an optimal dual solution on the program's own
    rows off an optimal ending of ``_solve``, warm or cold, scaled by
    the dictionary's divisor and the objective's lcm."""

    def test_every_optimal_program_of_the_classify_corpus(self, monkeypatch):
        seen = Counter()
        for family in same_column_families(classify_corpus_programs(monkeypatch)):
            duals_of_every_ending(family, seen)
        assert seen["warm"] >= 400 and seen["cold"] >= 1100, seen

    def test_every_optimal_program_of_the_differential_corpus(self, monkeypatch):
        seen = Counter()
        solve = ndsupport.classify._solve

        def checked(program, start=None):
            out = solve(program, start)
            if out[0].status == OPTIMAL:
                seen["warm" if start and out[1] is start[0] else "cold"] += 1
                assert_duals(program, out[0], _duals(*out[1:]), out[1].d)
            return out

        monkeypatch.setattr(ndsupport.classify, "_solve", checked)
        for s in differential_corpus():
            classify_all(s)
            cross_check(s)
        assert seen["warm"] >= 1800 and seen["cold"] >= 1700, seen

    def test_random_programs(self):
        # Fraction objectives and rows, every relation, and rows a cold
        # phase one drops as redundant, whose multipliers read 0.
        rng = random.Random(83)
        seen = Counter()
        for _ in range(1000):
            prog = random_program(rng)
            out, tab, r = _solve(prog)
            if out.status != OPTIMAL:
                continue
            seen["optimal"] += 1
            seen["fraction objective"] += _scale(prog.objective)[0] > 1
            seen["row dropped"] += len(tab.rows) < len(prog.constraints)
            assert_duals(prog, out, _duals(tab, r), tab.d)
        assert seen["optimal"] >= 300 and seen["fraction objective"] >= 250, seen
        assert seen["row dropped"] >= 5, seen

    def test_a_fraction_objective_carries_its_lcm(self):
        # min x / 2 + y / 3 over x + y >= 1 is 1/3 at y = 1, with dual
        # multiplier 1/3 on the row; as minimized, times d * 6, that is
        # -2 * d.
        program = LinearProgram("min", (F(1, 2), F(1, 3)), (ge((1, 1), 1),))
        out, tab, r = _solve(program)
        assert out.value == F(1, 3)
        assert _duals(tab, r) == [-2 * tab.d]
        assert_duals(program, out, _duals(tab, r), tab.d)

    def test_a_negated_row(self):
        # -x - y <= b with b < 0 is negated going in, and x + y <= 5
        # caps it: min x + 2 y is -b, with multiplier 1 on the first row.
        # Cold, and warm from a start that negated the same row.
        program = lambda b: LinearProgram(
            "min", (1, 2), (le((-1, -1), b), le((1, 1), 5))
        )
        out, tab, r = _solve(program(-3))
        assert out.value == 3 and tab.signs[0] < 0
        assert _duals(tab, r) == [tab.d, 0]
        assert_duals(program(-3), out, _duals(tab, r), tab.d)
        out, tab, r = _solve(program(-1))
        out, warm, r = _solve(program(-4), (tab, r))
        assert warm is tab and out.value == 4
        assert _duals(tab, r) == [tab.d, 0]
        assert_duals(program(-4), out, _duals(tab, r), tab.d)

    def test_a_fraction_row_scaled_by_six(self):
        # x / 2 + y / 3 >= b is scaled by 6 going in; with x + y <= 4,
        # min x + y is 2 b at x = 2 b, with multiplier -2 on that row.
        # The other row's scale is 1, so a reader that leaves a row's
        # scale off gets the combination wrong.
        program = lambda b: LinearProgram(
            "min", (1, 1), (ge((F(1, 2), F(1, 3)), b), le((1, 1), 4))
        )
        out, tab, r = _solve(program(1))
        assert out.value == 2 and tab.signs == [6, 1]
        assert _duals(tab, r) == [-2 * tab.d, 0]
        assert_duals(program(1), out, _duals(tab, r), tab.d)
        out, tab, r = _solve(program(F(1, 3)))
        assert out.value == F(2, 3)
        out, warm, r = _solve(program(1), (tab, r))
        assert warm is tab and out.value == 2
        assert _duals(tab, r) == [-2 * tab.d, 0]
        assert_duals(program(1), out, _duals(tab, r), tab.d)


def same_column_families(programs):
    """programs grouped by sense, objective, relations and coefficients,
    each group in the order given: the runs a warm start may chain."""
    families = {}
    for prog in programs:
        key = (
            prog.sense,
            prog.objective,
            tuple((con.coeffs, con.relation) for con in prog.constraints),
        )
        families.setdefault(key, []).append(prog)
    return list(families.values())


def solve_warm_and_cold(family, seen):
    """Solve each program of family from the final state of the one
    before and cold: status and value must agree.  seen counts the warm
    solves, the warm infeasible ones, and the warm ones whose rhs has a
    sign the start's row flip does not match."""
    start = None
    for prog in family:
        flipped = start is not None and any(
            con.rhs * sign < 0 for con, sign in zip(prog.constraints, start[0].signs)
        )
        out, tab, r = _solve(prog, start)
        cold = lp_solve(prog)
        assert (out.status, out.value) == (cold.status, cold.value), prog
        if start is not None and tab is start[0]:
            seen["warm"] += 1
            seen["warm infeasible"] += out.status == INFEASIBLE
            seen["flipped"] += flipped
        if tab is not None:
            start = tab, r


def rhs_family(ints):
    """Programs over fixed columns that differ only in their int rhs,
    drawn through ints(lo, hi): up to four rows of every relation and a
    last row bounding sum(x), with rhs from -6 to 9, so that a rhs may
    flip a row against the start's sign or make the program infeasible."""
    n = ints(1, 4)
    rows = [
        (tuple(ints(-5, 5) for _ in range(n)), (LESS_EQUAL, EQUAL, GREATER_EQUAL)[ints(0, 2)])
        for _ in range(ints(1, 4))
    ]
    rows.append(((1,) * n, LESS_EQUAL))
    sense = ("min", "max")[ints(0, 1)]
    objective = tuple(ints(-4, 4) for _ in range(n))
    return [
        LinearProgram(
            sense,
            objective,
            tuple(LinearConstraint(c, rel, ints(-6, 9)) for c, rel in rows),
        )
        for _ in range(ints(2, 8))
    ]


def rebased_solution_holds(program, tab, r):
    """The basic solution of a rebased dictionary (every nonbasic label
    at 0) meets each row of program as an equation in its slack, and
    r's value is minus d times the minimized int objective there."""
    values = dict.fromkeys(tab.nonbasic, 0)
    for row, b in zip(tab.rows, tab.basic):
        values[b] = F(row[-1], tab.d)
    x = [values[j] for j in range(program.num_vars)]
    slack = program.num_vars
    for con in program.constraints:
        lhs = sum(c * v for c, v in zip(con.coeffs, x))
        if con.relation != EQUAL:
            lhs += (1 if con.relation == LESS_EQUAL else -1) * values[slack]
            slack += 1
        if lhs != con.rhs:
            return False
    value = sum(c * v for c, v in zip(program.objective, x))
    return F(-r[-1], tab.d) == (value if program.sense == "min" else -value)


def fraction_dual_run(tab, r):
    """Reference for ``_Dictionary.dual_run``: Bland's dual rule on a
    Fraction copy of tab and r, the artificials barred.  The smallest
    basic label with a negative value leaves; the column minimizing
    (r_j / -a, label) over a < 0 in its row enters.  Returns the status,
    the (entering, leaving) labels of each pivot, the number of pivots
    whose minimum ratio was a tie, and the final rows and cost row."""
    rows = [[F(v, tab.d) for v in row] for row in tab.rows]
    cost = [F(v, tab.d) for v in r]
    basic, nonbasic = list(tab.basic), list(tab.nonbasic)
    pivots, ties = [], 0
    while True:
        negative = [i for i, row in enumerate(rows) if row[-1] < 0]
        if not negative:
            return OPTIMAL, pivots, ties, rows, cost
        leave = min(negative, key=basic.__getitem__)
        prow = rows[leave]
        ratios = sorted(
            (cost[j] / -a, nonbasic[j], j)
            for j, a in enumerate(prow[:-1])
            if a < 0 and nonbasic[j] < tab.base_cols
        )
        if not ratios:
            return INFEASIBLE, pivots, ties, rows, cost
        ties += len(ratios) > 1 and ratios[0][0] == ratios[1][0]
        _, label, enter = ratios[0]
        a = prow[enter]
        new = [v / a for v in prow]
        new[enter] = 1 / a
        for row in rows + [cost]:
            if row is not prow:
                f = row[enter]
                row[:] = [v - f * w for v, w in zip(row, new)]
                row[enter] = -f / a
        rows[leave] = new
        pivots.append((label, basic[leave]))
        basic[leave], nonbasic[enter] = label, basic[leave]


def record_warm_solves(monkeypatch):
    """Wrap the classify module's ``_solve`` so that each warm solve is
    compared with a cold one in status and value.  Returns the list of
    (kind, warm) of every solve, kind 'margin', 'frontier' or 'witness'."""
    solve = ndsupport.classify._solve
    solves = []

    def wrapped(program, start=None):
        out = solve(program, start)
        warm = start is not None and out[1] is start[0]
        if warm:
            cold = lp_solve(program)
            assert (out[0].status, out[0].value) == (cold.status, cold.value), program
        if program.constraints[-1].relation != LESS_EQUAL:
            kind = "witness"
        else:
            kind = "margin" if program.sense == "max" else "frontier"
        solves.append((kind, warm))
        return out

    monkeypatch.setattr(ndsupport.classify, "_solve", wrapped)
    return solves


class TestWarmStart:
    """``_solve(program, start)`` finishes a program from the final state
    of an earlier one with the same columns and objective."""

    def test_warm_equals_cold_on_the_classify_corpus_families(self, monkeypatch):
        seen = Counter()
        for family in same_column_families(classify_corpus_programs(monkeypatch)):
            solve_warm_and_cold(family, seen)
        assert seen["warm"] >= 400 and seen["warm infeasible"] > 0, seen

    def test_every_warm_solve_on_the_differential_corpus_equals_cold(
        self, monkeypatch
    ):
        solves = record_warm_solves(monkeypatch)
        for s in differential_corpus():
            classify_all(s)
            cross_check(s)
        warm = Counter(kind for kind, warm in solves if warm)
        assert warm["margin"] >= 600 and warm["frontier"] >= 1000, warm
        assert "witness" not in warm

    def test_rebase_and_dual_pivots_follow_the_fraction_reference(self, monkeypatch):
        # Margin programs have a zero objective but for eps, so their
        # ratio tests tie often; Bland's rule breaks every tie by label.
        pivots = []
        int_pivot = ndsupport.ratlp._Dictionary.pivot

        def recorded(tab, r, pi, pj):
            pivots.append((tab.nonbasic[pj], tab.basic[pi]))
            int_pivot(tab, r, pi, pj)

        monkeypatch.setattr(ndsupport.ratlp._Dictionary, "pivot", recorded)
        totals = Counter()
        solve = ndsupport.classify._solve

        def compared(program, start=None):
            if start is None:
                return solve(program)
            tab, r = start
            if not ndsupport.ratlp._rebase(program, tab, r):
                return solve(program)
            assert rebased_solution_holds(program, tab, r), program
            status, expected, ties, rows, cost = fraction_dual_run(tab, r)
            pivots.clear()
            out = solve(program, start)
            assert out[1] is tab and pivots == expected, program
            assert out[0].status == status
            assert [[F(v, tab.d) for v in row] for row in tab.rows] == rows
            assert [F(v, tab.d) for v in r] == cost
            totals["pivots"] += len(expected)
            totals["ties"] += ties
            return out

        monkeypatch.setattr(ndsupport.classify, "_solve", compared)
        for s in differential_corpus()[::3]:
            classify_all(s)
            cross_check(s)
        assert totals["pivots"] >= 600 and totals["ties"] >= 200, totals

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_warm_equals_cold_over_a_stream_of_rhs(self, data):
        family = rhs_family(lambda lo, hi: data.draw(st.integers(lo, hi)))
        solve_warm_and_cold(family, Counter())

    def test_the_rhs_stream_reaches_flips_and_infeasible_warm_solves(self):
        seen = Counter()
        rng = random.Random(31)
        for _ in range(600):
            solve_warm_and_cold(rhs_family(rng.randint), seen)
        assert seen["warm"] >= 600, seen
        assert seen["flipped"] >= 100 and seen["warm infeasible"] >= 100, seen

    def test_a_degenerate_margin_rhs_terminates(self, monkeypatch):
        # The margin program of y over these columns (a zero-objective
        # lift, so every last coordinate is 0) ends at eps = 0 with most
        # reduced costs 0, and the dual ratio tests for z from there tie
        # at 0.  Breaking those ties toward the larger label cycles;
        # Bland's dual rule proves z's program infeasible.
        cols = [
            (63, 8, 128, 0),
            (29, 23, 148, 0),
            (51, 70, 78, 0),
            (56, 35, 108, 0),
            (76, 50, 74, 0),
            (33, 50, 117, 0),
        ]
        y, z = (45, 61, 94, 0), (95, 10, 95, 0)
        count = [0]
        pivot = ndsupport.ratlp._Dictionary.pivot

        def capped(tab, r, pi, pj):
            count[0] += 1
            assert count[0] < 100, "no termination"
            pivot(tab, r, pi, pj)

        monkeypatch.setattr(ndsupport.ratlp._Dictionary, "pivot", capped)
        margin = lambda y: _below_program(y, cols, "max", (0,) * len(cols), margin=True)
        out, tab, r = _solve(margin(y))
        assert out.value == 0
        count[0] = 0
        out, warm, _ = _solve(margin(z), (tab, r))
        assert warm is tab and out.status == INFEASIBLE
        assert 0 < count[0] <= 7

    def test_a_start_that_dropped_a_row_or_has_a_basic_artificial_is_not_used(self):
        def solved_cold(program, start):
            tab, r = start
            before = ([list(row) for row in tab.rows], list(tab.basic), list(r))
            out, new, _ = _solve(program, start)
            assert new is not tab
            assert ([list(row) for row in tab.rows], list(tab.basic), list(r)) == before
            assert out == lp_solve(program)

        # x + y = 1 twice over: the cold solve drops one row.
        redundant = lambda b: LinearProgram(
            "min", (1, 2), (eq((1, 1), b), eq((2, 2), 2 * b), ge((1, 0), 0))
        )
        _, tab, r = _solve(redundant(1))
        assert len(tab.rows) == 2
        solved_cold(redundant(3), (tab, r))
        # The equality row's artificial pivoted back into the basis.
        equality = lambda b: LinearProgram("min", (1, 1), (eq((1, 2), b), le((1, 0), 5)))
        _, tab, r = _solve(equality(4))
        j = next(j for j, label in enumerate(tab.nonbasic) if label >= tab.base_cols)
        i = next(i for i, row in enumerate(tab.rows) if row[j])
        tab.pivot(r, i, j)
        assert any(b >= tab.base_cols for b in tab.basic)
        solved_cold(equality(2), (tab, r))
        # Other columns, and a start that ended unbounded.
        _, tab, r = _solve(equality(4))
        solved_cold(LinearProgram("min", (1, 1), (eq((1, 3), 2), le((1, 0), 5))), (tab, r))
        unbounded = lambda b: LinearProgram("max", (1, 1), (ge((1, -1), b),))
        out, tab, r = _solve(unbounded(1))
        assert out.status == UNBOUNDED
        solved_cold(unbounded(2), (tab, r))

    def test_every_frontier_program_after_the_first_is_warm(self, monkeypatch):
        solves = record_warm_solves(monkeypatch)
        s = validate_instance(anticorrelated_rows(random.Random(5), 40, 3), 3)
        ndsupport.classify._classify_nondominated(s)
        frontier = [warm for kind, warm in solves if kind == "frontier"]
        assert len(frontier) >= 10
        assert frontier == [False] + [True] * (len(frontier) - 1)


@pytest.mark.parametrize("values", [[1, 2, 3], [F(1, 2), F(2, 3), 3]])
def test_scale_reads_a_generator_once(values):
    assert _scale(v for v in values) == _scale(list(values))
