import random
from fractions import Fraction as F

import pytest

from ndsupport.errors import ConsistencyError, ValidationError
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
    _certify,
    lp_solve,
    rational,
)


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
