import gc
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import hull_labels_2d, random_rational_rows, random_rows
from ndsupport.classify import Label, WeightVector, classify_all
from ndsupport.dichotomic import dichotomic_extremes, weighted_sum_argmin
from ndsupport.errors import ValidationError
from ndsupport.outcomes import validate_instance


def fraction_argmin(lam, outcome_set):
    """The Fraction-arithmetic oracle the lattice oracle replaced, kept as
    the reference: exact weighted sum, ties to the lexicographically
    smallest coordinates."""
    return min(
        outcome_set,
        key=lambda pt: (sum(l * c for l, c in zip(lam, pt.coords)), pt.coords),
    )


def _weights(rng, p):
    """Random exact weights, some with zero components."""
    raw = [rng.choice((0, 0, 1, 2, 3, 5, 7)) for _ in range(p)]
    if not any(raw):
        raw[rng.randrange(p)] = 1
    total = sum(raw)
    return WeightVector(tuple(F(r, total) for r in raw))


class TestWeightedSumArgmin:
    def test_equal_weights(self):
        s = validate_instance([[2, 9], [3, 6], [8, 3]])
        got = weighted_sum_argmin(WeightVector((F(1, 2), F(1, 2))), s)
        assert got.coords == (3, 6)  # scores 11/2, 9/2, 11/2

    def test_pure_first_objective(self):
        s = validate_instance([[2, 9], [3, 6]])
        got = weighted_sum_argmin(WeightVector((1, 0)), s)
        assert got.coords == (2, 9)

    def test_lexicographic_tiebreak_on_shared_layer(self, counterexample_set):
        got = weighted_sum_argmin(WeightVector((0, 0, 1)), counterexample_set)
        assert got.coords == (2, 9, 1)

    def test_weight_validation(self, counterexample_set):
        with pytest.raises(ValidationError):
            weighted_sum_argmin(WeightVector((F(1, 2), F(1, 2))), counterexample_set)
        with pytest.raises(ValidationError):
            WeightVector((F(2), F(-1)))


class TestLatticeOracleDifferential:
    def test_matches_fraction_reference(self):
        rng = random.Random(109)
        for trial in range(60):
            p = rng.randint(2, 4)
            n = rng.randint(1, 40)
            if trial % 3 == 0:
                rows = random_rational_rows(rng, n, p)
            else:
                # a small grid, so exact weighted-sum ties are common
                rows = random_rows(rng, n, p, -3, 3)
            s = validate_instance(rows)
            units = [
                WeightVector(tuple(int(k == i) for k in range(p))) for i in range(p)
            ]
            weights = units + [_weights(rng, p) for _ in range(8)]
            if p == 2 and len(s) > 1:
                # the exact normal of a segment between two stored points
                # makes both score the same
                a, b = rng.sample(s.points, 2)
                d1, d2 = a.coords[1] - b.coords[1], b.coords[0] - a.coords[0]
                if d1 * d2 > 0:
                    weights.append(WeightVector((d1 / (d1 + d2), d2 / (d1 + d2))))
            for lam in weights:
                got = weighted_sum_argmin(lam, s)
                assert got == fraction_argmin(lam, s), f"trial {trial}, {tuple(lam)}"

    def test_outcome_set_is_freed_without_a_collection(self):
        # A reference cycle through the recursion would keep the set (and
        # its lattice) alive until the cyclic collector ran.
        s = validate_instance([[0, 10], [1, 6], [3, 3], [6, 1], [10, 0], [5, 5]])
        ref = weakref.ref(s)
        gc.disable()
        try:
            assert len(dichotomic_extremes(s).extremes) == 5
            del s
            assert ref() is None
        finally:
            gc.enable()


nonnegative = st.fractions(min_value=0, max_value=50, max_denominator=60)
coordinate = st.one_of(
    st.integers(-1000, 1000), st.fractions(-100, 100, max_denominator=90)
)


@given(st.lists(st.tuples(nonnegative, coordinate), min_size=1, max_size=6))
def test_dot_equals_plain_fraction_sum(pairs):
    raw = [w for w, _ in pairs]
    total = sum(raw)
    if total:
        lam = WeightVector(tuple(w / total for w in raw))
    else:
        lam = WeightVector((1,) + (0,) * (len(raw) - 1))
    coords = tuple(c for _, c in pairs)
    got = lam.dot(coords)
    assert type(got) is F
    assert got == sum(l * c for l, c in zip(lam, coords))


class TestDichotomicExtremes:
    def test_figure_instance(self):
        s = validate_instance([[2, 9], [3, 6], [8, 3], [6, 5]])
        result = dichotomic_extremes(s)
        assert [e.coords for e in result.extremes] == [
            (2, 9),
            (3, 6),
            (8, 3),
        ]

    def test_singleton(self):
        result = dichotomic_extremes(validate_instance([[0, 0]]))
        assert len(result.extremes) == 1
        assert result.oracle_calls <= 2

    def test_collinear_points_yield_endpoints_only(self):
        s = validate_instance([[0, 6], [1, 4], [2, 2], [3, 0]])
        result = dichotomic_extremes(s)
        assert [e.coords for e in result.extremes] == [(0, 6), (3, 0)]

    def test_requires_two_objectives(self, counterexample_set):
        with pytest.raises(ValidationError, match="two objectives"):
            dichotomic_extremes(counterexample_set)

    def test_anchors_are_lexicographic_minima(self):
        rng = random.Random(89)
        for _ in range(10):
            s = validate_instance(random_rows(rng, rng.randint(2, 30), 2, 0, 50))
            result = dichotomic_extremes(s)
            rows = s.coord_rows()
            assert result.extremes[0].coords == min(rows, key=lambda r: (r[0], r[1]))
            assert result.extremes[-1].coords == min(rows, key=lambda r: (r[1], r[0]))

    def test_witnesses_certify_each_extreme(self):
        rng = random.Random(97)
        for _ in range(10):
            s = validate_instance(random_rows(rng, rng.randint(2, 25), 2, 0, 40))
            result = dichotomic_extremes(s)
            for pt, lam in zip(result.extremes, result.witness_weights):
                score = lam.dot(pt.coords)
                assert all(score <= lam.dot(q.coords) for q in s)

    def test_edge_slopes_strictly_increase(self):
        rng = random.Random(101)
        for _ in range(10):
            s = validate_instance(random_rows(rng, rng.randint(3, 30), 2, 0, 60))
            ext = [e.coords for e in dichotomic_extremes(s).extremes]
            slopes = [
                (b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(ext, ext[1:])
            ]
            assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))

    def test_matches_classifier_and_call_bound(self):
        rng = random.Random(103)
        for trial in range(15):
            s = validate_instance(random_rows(rng, rng.randint(3, 40), 2, 0, 50))
            result = dichotomic_extremes(s)
            expected = {
                c.point_id
                for c in classify_all(s)
                if c.label == Label.EXTREME_SUPPORTED
            }
            assert {e.id for e in result.extremes} == expected, f"trial {trial}"
            assert result.oracle_calls <= 2 * len(result.extremes) - 1 + 2

    def test_matches_hull_oracle(self):
        rng = random.Random(107)
        for _ in range(15):
            rows = random_rows(rng, rng.randint(3, 35), 2, 0, 45)
            s = validate_instance(rows)
            labels = hull_labels_2d(rows)
            expected = {c for c, lab in labels.items() if lab == "extreme-supported"}
            got = {e.coords for e in dichotomic_extremes(s).extremes}
            assert got == expected
