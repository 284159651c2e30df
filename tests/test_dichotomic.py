import gc
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import ndsupport.dichotomic
from conftest import hull_labels_2d, random_rational_rows, random_rows
from ndsupport.classify import (
    Label,
    WeightVector,
    _check_weight_certificate,
    classify_all,
)
from ndsupport.dichotomic import _check_chain, dichotomic_extremes, weighted_sum_argmin
from ndsupport.errors import ConsistencyError, ValidationError
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


class TestNondominatedSearch:
    def test_oracle_and_chain_check_see_only_the_nondominated_points(
        self, monkeypatch
    ):
        # (1, 5) ties the left anchor (1, 3) under the weight (1, 0), and
        # (5, 1) ties the right anchor (4, 1) under (0, 1); both are
        # dominated, as are (3, 4) and (6, 6).
        s = validate_instance([[1, 5], [1, 3], [5, 1], [3, 4], [2, 2], [6, 6], [4, 1]])
        nondominated = {(1, 3), (2, 2), (4, 1)}
        seen = []
        argmin, check = weighted_sum_argmin, _check_chain

        def spied_argmin(lam, outcome_set):
            seen.append({pt.coords for pt in outcome_set})
            return argmin(lam, outcome_set)

        def spied_check(outcome_set, extremes, witnesses):
            seen.append({pt.coords for pt in outcome_set})
            return check(outcome_set, extremes, witnesses)

        monkeypatch.setattr(ndsupport.dichotomic, "weighted_sum_argmin", spied_argmin)
        monkeypatch.setattr(ndsupport.dichotomic, "_check_chain", spied_check)
        result = dichotomic_extremes(s)
        assert [e.coords for e in result.extremes] == [(1, 3), (2, 2), (4, 1)]
        assert [e.id for e in result.extremes] == ["y2", "y5", "y7"]
        assert result.oracle_calls == 5
        assert len(seen) == result.oracle_calls + 1
        assert all(points == nondominated for points in seen)


def chain_witnesses(extremes):
    """Averages of the normals next to each extreme, the unit weights at
    the two ends, written out independently of the module."""
    normals = [(F(1), F(0))]
    for a, b in zip(extremes, extremes[1:]):
        d1, d2 = a.coords[1] - b.coords[1], b.coords[0] - a.coords[0]
        normals.append((d1 / (d1 + d2), d2 / (d1 + d2)))
    normals.append((F(0), F(1)))
    return [
        WeightVector(((u[0] + v[0]) / 2, (u[1] + v[1]) / 2))
        for u, v in zip(normals, normals[1:])
    ]


class TestChainSweep:
    ROWS = [[0, 10], [1, 6], [3, 3], [6, 1], [10, 0], [5, 5], [2, 8]]

    def _chain(self, s, *coords):
        by_coords = {pt.coords: pt for pt in s}
        return [by_coords[c] for c in coords]

    def test_accepts_the_found_chain(self):
        s = validate_instance(self.ROWS)
        result = dichotomic_extremes(s)
        _check_chain(s, list(result.extremes), list(result.witness_weights))
        assert list(result.witness_weights) == chain_witnesses(result.extremes)

    def test_dropped_interior_extreme(self):
        s = validate_instance(self.ROWS)
        chain = self._chain(s, (0, 10), (1, 6), (6, 1), (10, 0))
        with pytest.raises(ConsistencyError, match="y3 lies below the edge"):
            _check_chain(s, chain, chain_witnesses(chain))

    def test_dropped_extreme_from_the_search(self, monkeypatch):
        s = validate_instance(self.ROWS)
        monkeypatch.setattr(ndsupport.dichotomic, "_probe", lambda *args: [])
        with pytest.raises(ConsistencyError, match="lies below the edge"):
            dichotomic_extremes(s)

    def test_non_convex_chain(self):
        s = validate_instance([[0, 10], [5, 9], [10, 0]])
        chain = list(s.points)
        with pytest.raises(ConsistencyError, match="slopes do not strictly increase"):
            _check_chain(s, chain, chain_witnesses(chain))

    def test_chain_that_does_not_descend(self):
        s = validate_instance([[0, 10], [3, 3], [10, 0]])
        chain = self._chain(s, (3, 3), (0, 10), (10, 0))
        with pytest.raises(ConsistencyError, match="do not descend"):
            _check_chain(s, chain, chain_witnesses(chain))

    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_tampered_witness(self, index):
        s = validate_instance(self.ROWS)
        result = dichotomic_extremes(s)
        witnesses = list(result.witness_weights)
        lam = witnesses[index]
        witnesses[index] = WeightVector((lam[0] + F(1, 97), lam[1] - F(1, 97)))
        with pytest.raises(ConsistencyError, match="not the average"):
            _check_chain(s, list(result.extremes), witnesses)

    def test_point_left_of_the_left_anchor(self):
        s = validate_instance([[0, 10], [3, 3], [10, 0]])
        chain = self._chain(s, (3, 3), (10, 0))
        with pytest.raises(ConsistencyError, match="left of the left anchor"):
            _check_chain(s, chain, chain_witnesses(chain))

    def test_point_below_the_right_anchor(self):
        s = validate_instance([[0, 10], [3, 3], [10, 0]])
        chain = self._chain(s, (0, 10), (3, 3))
        with pytest.raises(ConsistencyError, match="below the right anchor"):
            _check_chain(s, chain, chain_witnesses(chain))

    def test_point_under_the_left_anchor(self):
        # one unit below the first edge, at the anchor's own first coordinate
        s = validate_instance([[0, 6], [1, 4], [4, 0], [0, 5]])
        chain = self._chain(s, (0, 6), (1, 4), (4, 0))
        with pytest.raises(ConsistencyError, match="y4 lies below the edge"):
            _check_chain(s, chain, chain_witnesses(chain))

    def test_single_extreme(self):
        s = validate_instance([[2, 2], [3, 2], [2, 5], [9, 9]])
        chain = self._chain(s, (2, 2))
        _check_chain(s, chain, [WeightVector((F(1, 2), F(1, 2)))])
        with pytest.raises(ConsistencyError, match="not the average"):
            _check_chain(s, chain, [WeightVector((F(1, 3), F(2, 3)))])
        low = validate_instance([[2, 2], [5, 1]])
        with pytest.raises(ConsistencyError, match="below the right anchor"):
            _check_chain(low, self._chain(low, (2, 2)), [WeightVector((F(1, 2), F(1, 2)))])

    def test_rational_points_on_and_off_an_edge(self):
        # (1/2, 5) lies exactly on the edge from (0, 6) to (1, 4)
        on = validate_instance([[0, 6], ["1/2", 5], [1, 4], [3, "7/2"], [4, 0]])
        result = dichotomic_extremes(on)
        assert [e.coords for e in result.extremes] == [(0, 6), (1, 4), (4, 0)]
        below = validate_instance([[0, 6], ["1/2", "9/2"], [1, 4], [4, 0]])
        chain = self._chain(below, (0, 6), (1, 4), (4, 0))
        with pytest.raises(ConsistencyError, match="below the edge"):
            _check_chain(below, chain, chain_witnesses(chain))

    def test_matches_per_extreme_certificates_on_rational_sets(self):
        rng = random.Random(127)
        for trial in range(20):
            s = validate_instance(random_rational_rows(rng, rng.randint(1, 40), 2))
            result = dichotomic_extremes(s)
            assert list(result.witness_weights) == chain_witnesses(result.extremes)
            for pt, lam in zip(result.extremes, result.witness_weights):
                _check_weight_certificate(lam, s.ids.index(pt.id), s)

    def test_every_point_of_a_convex_curve_is_extreme(self):
        s = validate_instance([[i, (1200 - i) ** 2] for i in range(1201)])
        result = dichotomic_extremes(s)
        assert [e.coords for e in result.extremes] == s.coord_rows()
        assert list(result.witness_weights) == chain_witnesses(result.extremes)
        # the check the sweep replaced: one pass over the set per extreme
        for pt, lam in zip(result.extremes, result.witness_weights):
            _check_weight_certificate(lam, s.ids.index(pt.id), s)
