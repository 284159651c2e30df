"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths:
dominance is re-derived with explicit loops, and bi-objective
supportedness is re-derived from the lower convex chain, so they can
stand as independent ground truth for the LP-based classifier.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from ndsupport.instances import lift_zero_objective
from ndsupport.outcomes import validate_instance
from ndsupport.ratlp import (
    EQUAL,
    LESS_EQUAL,
    OPTIMAL,
    LinearConstraint,
    LinearProgram,
    lp_solve,
)

# The four-point, three-objective counterexample set used throughout.
COUNTEREXAMPLE_ROWS = [[2, 9, 1], [3, 6, 1], [8, 3, 1], [6, 5, 1]]

# Its two-objective sibling with extra dominated points.
FIGURE_2D_ROWS = [[2, 9], [3, 6], [8, 3], [6, 5], [3, 9], [7, 7]]


@pytest.fixture
def counterexample_set():
    return validate_instance(COUNTEREXAMPLE_ROWS)


@pytest.fixture
def fig2d_set():
    return validate_instance(FIGURE_2D_ROWS)


def reference_below_program(y, pts, sense, costs, margin=False):
    """The geometry program as it was built from Fraction coordinates:
    convex weights mu over pts whose combination sits at or below y,
    with eps subtracted from y in every coordinate under a margin."""
    pad = (F(1),) if margin else ()
    cons = [LinearConstraint((F(1),) * len(pts) + (F(0),) * len(pad), EQUAL, F(1))]
    for k, bound in enumerate(y.coords):
        coeffs = tuple(pt.coords[k] for pt in pts) + pad
        cons.append(LinearConstraint(coeffs, LESS_EQUAL, bound))
    return LinearProgram(sense, tuple(costs) + pad, tuple(cons))


def reference_is_vertex(y, pts):
    """Is y a vertex of conv(pts) + R^p_+?  True exactly when no convex
    combination of the other points of pts sits at or below y: the
    zero-objective feasibility program, built from the exact coordinates."""
    others = [pt for pt in pts if pt.id != y.id]
    if not others:
        return True
    zeros = (F(0),) * len(others)
    return lp_solve(reference_below_program(y, others, "min", zeros)).status != OPTIMAL


def reference_vertices(yn):
    """The vertices of yn's upper image, in input order."""
    return [y for y in yn if reference_is_vertex(y, yn.points)]


def random_rows(rng, n, p, lo=0, hi=100):
    return [[rng.randint(lo, hi) for _ in range(p)] for _ in range(n)]


def anticorr_rows(seed, n, p):
    """Anti-correlated points: the first p - 1 coordinates are uniform in
    0..100 and the last is 100 (p - 1) - sum +- 15."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        head = [rng.randint(0, 100) for _ in range(p - 1)]
        rows.append(head + [100 * (p - 1) - sum(head) + rng.randint(-15, 15)])
    return rows


def random_rational_rows(rng, n, p):
    """Rows of signed rationals with mixed denominators."""
    return [
        [F(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 7, 12))) for _ in range(p)]
        for _ in range(n)
    ]


def clip_corpus_sets(rng):
    """p = 3 sets whose cells are empty, single points, segments and
    polygons.  Points on a common plane (p = 3) or line (lifted p = 2)
    get single-point and segment cells; points just above it get empty
    or single-point ones."""
    sets = [validate_instance(COUNTEREXAMPLE_ROWS), validate_instance([[5, 5, 5]])]
    for _ in range(8):
        sets.append(validate_instance(random_rows(rng, rng.randint(3, 10), 3, 0, 6)))
        sets.append(
            validate_instance(
                [
                    [x, y, 12 - x - y + rng.randint(0, 2)]
                    for x, y in random_rows(rng, rng.randint(4, 12), 2, 0, 6)
                ]
            )
        )
        xs = rng.sample(range(13), rng.randint(3, 10))
        sets.append(
            lift_zero_objective(
                validate_instance([[x, 12 - x + rng.randint(0, 1)] for x in xs])
            )
        )
        sets.append(
            validate_instance(
                [
                    [F(rng.randint(0, 24), rng.randint(1, 4)) for _ in range(3)]
                    for _ in range(rng.randint(3, 10))
                ]
            )
        )
    return sets


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def oracle_dominates(a, b):
    """Component-wise dominance rewritten from scratch (index loop)."""
    if len(a) != len(b):
        raise AssertionError("oracle misuse: unequal dimensions")
    some_strict = False
    for k in range(len(a)):
        if a[k] > b[k]:
            return False
        if a[k] < b[k]:
            some_strict = True
    return some_strict


def oracle_nondominated(rows):
    """Pairwise brute-force filter returning the surviving rows."""
    rows = [tuple(F(c) if not isinstance(c, F) else c for c in row) for row in rows]
    unique = []
    for row in rows:
        if row not in unique:
            unique.append(row)
    keep = []
    for row in unique:
        dominated = False
        for other in unique:
            if other != row and oracle_dominates(other, row):
                dominated = True
                break
        if not dominated:
            keep.append(row)
    return keep


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_labels_2d(rows):
    """Bi-objective supportedness oracle via the lower convex chain.

    Returns a dict mapping each distinct coordinate pair to one of
    'dominated', 'unsupported', 'supported', 'extreme-supported'.
    Exact arithmetic; completely independent of any LP.
    """
    rows = [tuple(F(c) if not isinstance(c, F) else c for c in row) for row in rows]
    nondom = oracle_nondominated(rows)
    staircase = sorted(nondom)
    chain = []
    for pt in staircase:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], pt) <= 0:
            chain.pop()
        chain.append(pt)
    chain_set = set(chain)
    labels = {}
    for row in set(rows):
        if row not in set(nondom):
            labels[row] = "dominated"
        elif row in chain_set:
            labels[row] = "extreme-supported"
        else:
            on_edge = False
            for a, b in zip(chain, chain[1:]):
                if a[0] <= row[0] <= b[0] and _cross(a, b, row) == 0:
                    on_edge = True
                    break
            labels[row] = "supported" if on_edge else "unsupported"
    return labels


def anticorrelated_rows(rng, n, p, noise=15):
    """First p - 1 coordinates uniform in 0..100, the last one within
    noise of 100 (p - 1) minus their sum, so most points are
    non-dominated; with no noise every point is on one hyperplane."""
    rows = []
    for _ in range(n):
        head = [rng.randint(0, 100) for _ in range(p - 1)]
        rows.append(head + [100 * (p - 1) - sum(head) + rng.randint(-noise, noise)])
    return rows


def differential_corpus():
    """Seeded base sets for p = 2..5 of four kinds, each followed by
    its zero-objective lift."""
    rng = random.Random(53)
    sets = []
    for p in (2, 3, 4, 5):
        for kind in ("anticorrelated", "hyperplane", "rational", "small-range"):
            for _ in range(4 if p < 4 else 3):
                n = rng.randint(5, 14 if p < 4 else 10)
                if kind == "anticorrelated":
                    rows = anticorrelated_rows(rng, n, p)
                elif kind == "hyperplane":
                    rows = anticorrelated_rows(rng, n, p, noise=0)
                elif kind == "rational":
                    rows = random_rational_rows(rng, n, p)
                else:
                    rows = random_rows(rng, n, p, 0, 3)
                base = validate_instance(rows, p)
                sets.append(base)
                sets.append(lift_zero_objective(base))
    # Two larger p = 3 sets.  On the first (seed 31) a vertex's max-min
    # witness is not unique and a Bland path over the vertex rows alone
    # ends at another optimum: it keeps the comparison sensitive to the
    # rows of the witness programs of boundary points, and so to the
    # uniqueness proof that lets classify_all solve them over V rows.
    for seed, noise in ((31, 3), (133, 1)):
        rng = random.Random(seed)
        rows = anticorrelated_rows(rng, rng.randint(20, 30), 3, noise)
        base = validate_instance(rows, 3)
        sets.append(base)
        sets.append(lift_zero_objective(base))
    return sets


# Exact coordinates for the strategies below: small ints, so equal
# scores and dominated points are common, and rationals over 1..12.
_COORD = st.one_of(
    st.integers(0, 30), st.builds(F, st.integers(0, 360), st.integers(1, 12))
)
_STEP = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
_POSITIVE = st.builds(F, st.integers(1, 24), st.integers(1, 4))


@st.composite
def rows_with_runs(draw, p):
    """Exact rows in p objectives: scattered points and up to three
    collinear runs, each 2 to 6 equally spaced points along a rational
    step.  Rows may repeat; ``validate_instance`` collapses them."""
    rows = draw(st.lists(st.tuples(*[_COORD] * p), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.tuples(*[_COORD] * p))
        step = draw(st.tuples(*[_STEP] * p))
        count = draw(st.integers(2, 6))
        rows += [tuple(a + j * d for a, d in zip(start, step)) for j in range(count)]
    if not rows:
        rows.append(draw(st.tuples(*[_COORD] * p)))
    return rows


@st.composite
def chain_rows_with_runs(draw):
    """Bi-objective rows whose lower hull is known to have collinear
    runs: a strictly convex decreasing chain with rational steps and
    slopes, up to three equally spaced points inside each of its edges,
    points the chain's first point dominates and, at times,
    ``rows_with_runs(2)``, whose points may cut the chain, in drawn
    order."""
    n = draw(st.integers(1, 6))
    steps = draw(st.lists(_POSITIVE, min_size=n, max_size=n))
    slopes = draw(st.lists(_POSITIVE, min_size=n, max_size=n, unique=True))
    chain = [(F(0), sum(dx * sl for dx, sl in zip(steps, slopes)))]
    for dx, sl in zip(steps, sorted(slopes, reverse=True)):
        chain.append((chain[-1][0] + dx, chain[-1][1] - dx * sl))
    rows = list(chain)
    for (x0, y0), (x1, y1) in zip(chain, chain[1:]):
        inside = draw(st.integers(0, 3))
        rows += [
            (x0 + (x1 - x0) * j / (inside + 1), y0 + (y1 - y0) * j / (inside + 1))
            for j in range(1, inside + 1)
        ]
    top = chain[0][1]
    above = st.tuples(_COORD, _COORD.map(lambda v: top + v))
    rows += draw(st.lists(above, max_size=4))
    if draw(st.booleans()):
        rows += draw(rows_with_runs(2))
    return draw(st.permutations(rows))
