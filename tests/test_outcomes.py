import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_nondominated, random_rational_rows, random_rows
import ndsupport.outcomes
from ndsupport.errors import ValidationError
from ndsupport.classify import Classification
from ndsupport.cli import main
from ndsupport.instances import (
    AssignmentSpec,
    KnapsackSpec,
    enumerate_assignment,
    enumerate_instance,
    enumerate_knapsack,
    generate_assignment,
    generate_knapsack,
    lift_zero_objective,
    parse_instance,
    serialize_instance,
)
from ndsupport.ratlp import _scale, rational
from ndsupport.outcomes import (
    OutcomePoint,
    OutcomeSet,
    ParetoFilterResult,
    _collapse,
    dominates,
    filter_nondominated,
    validate_instance,
)


def pt(*coords, pid="a"):
    return OutcomePoint(pid, tuple(coords))


class TestDominates:
    def test_strictly_smaller_in_one_coordinate(self):
        assert dominates(pt(6, F(21, 5), 1), pt(6, 5, 1, pid="b"))

    def test_never_dominates_itself(self):
        assert not dominates(pt(2, 9, 1), pt(2, 9, 1, pid="b"))

    def test_incomparable_pair(self):
        a, b = pt(3, 6, 1), pt(2, 9, 1, pid="b")
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            dominates(pt(1, 2), pt(1, 2, 3, pid="b"))


coordinate = st.integers(min_value=-50, max_value=50)
triple = st.tuples(coordinate, coordinate, coordinate)


@given(triple)
def test_dominance_irreflexive(coords):
    a = OutcomePoint("a", coords)
    b = OutcomePoint("b", coords)
    assert not dominates(a, b)


@given(triple, triple)
def test_dominance_antisymmetric(ca, cb):
    a, b = OutcomePoint("a", ca), OutcomePoint("b", cb)
    assert not (dominates(a, b) and dominates(b, a))


@given(triple, st.tuples(*[st.integers(0, 5)] * 3), st.tuples(*[st.integers(0, 5)] * 3))
def test_dominance_transitive_on_chains(base, d1, d2):
    # b = a + d1 and c = b + d2 with nonnegative deltas: whenever the two
    # links dominate, so must the composite.
    a = OutcomePoint("a", base)
    b = OutcomePoint("b", tuple(x + d for x, d in zip(base, d1)))
    c = OutcomePoint("c", tuple(x + d for x, d in zip(b.coords, d2)))
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


class TestValidateInstance:
    def test_duplicates_collapse_with_multiplicity(self):
        s = validate_instance([[2, 9, 1], [2, 9, 1], [3, 6, 1]])
        assert len(s) == 2
        assert s.multiplicity["y1"] == 2
        assert s.multiplicity["y2"] == 1
        assert s.get("y1").coords == (F(2), F(9), F(1))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            validate_instance([[1, 2], [3]])

    def test_single_objective_rejected(self):
        with pytest.raises(ValidationError, match="bi-objective minimum"):
            validate_instance([[1], [2]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty outcome set"):
            validate_instance([])

    def test_rational_literals(self):
        s = validate_instance([[1, "9/2"], [2, 3]])
        assert s.get("y1").coords == (F(1), F(9, 2))

    def test_direct_construction_rejects_shared_coords(self):
        with pytest.raises(ValidationError):
            OutcomeSet(p=2, points=(pt(1, 2, pid="a"), pt(1, 2, pid="b")))

    @pytest.mark.parametrize(
        "rows, bad",
        [
            ([(1, 2, 3), (4, 5), (6, 7)], 0),
            ([(1, 2), (3, 4), (5, 6, 7), (8, 9), (1, 2, 3)], 2),
            ([(1, 2), (F(1, 3),), (4, 5, 6)], 1),
        ],
        ids=["long-first", "long-mid-set", "short-rational"],
    )
    def test_direct_construction_names_first_bad_point(self, rows, bad):
        points = tuple(pt(*row, pid=f"q{i}") for i, row in enumerate(rows))
        message = (
            f"dimension mismatch: point q{bad} has {len(rows[bad])} "
            "coordinates, expected 2"
        )
        with pytest.raises(ValidationError, match=f"^{message}$"):
            OutcomeSet(p=2, points=points)

    def test_membership(self):
        s = validate_instance([[1, 2], [3, 0]])
        assert pt(1, 2, pid="y1") in s
        assert pt(9, 9, pid="y1") not in s
        with pytest.raises(ValidationError):
            s.get("nope")

    @pytest.mark.parametrize(
        "count, ok",
        [
            (1, True),
            (2, True),
            (7, True),
            (0, False),
            (-1, False),
            (True, False),
            (2.0, False),
            (1.5, False),
            ("2", False),
            (F(2), False),
            (None, False),
        ],
    )
    def test_multiplicity_is_a_positive_int(self, count, ok):
        points = (pt(1, 2, pid="y1"), pt(2, 1, pid="y2"))
        builds = (
            lambda: OutcomeSet(p=2, points=points, multiplicity={"y1": count}),
            lambda: _collapse({(1, 2): count, (2, 1): 1}, 2),
        )
        for build in builds:
            if not ok:
                with pytest.raises(
                    ValidationError,
                    match=re.escape(
                        f"multiplicity of 'y1' must be a positive integer, got {count!r}"
                    ),
                ):
                    build()
                continue
            s = build()
            assert s.multiplicity == {"y1": count, "y2": 1}
            assert parse_instance(serialize_instance(s)) == s


class TestFilterNondominated:
    def test_counterexample_points_all_retained(self, counterexample_set):
        result = filter_nondominated(counterexample_set)
        assert len(result.nondominated) == 4
        assert not result.dominated_by

    def test_singleton(self):
        s = validate_instance([[0, 0]])
        result = filter_nondominated(s)
        assert result.nondominated.coord_rows() == [(F(0), F(0))]

    def test_figure_2d(self, fig2d_set):
        result = filter_nondominated(fig2d_set)
        kept = {p.coords for p in result.nondominated}
        assert kept == {(2, 9), (3, 6), (8, 3), (6, 5)}
        assert set(result.dominated_by) == {"y5", "y6"}

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(7)
        for trial in range(20):
            rows = random_rows(rng, 30, 3, lo=0, hi=12)
            s = validate_instance(rows)
            kept = {p.coords for p in filter_nondominated(s).nondominated}
            assert kept == set(oracle_nondominated(rows)), f"trial {trial}"

    def test_idempotent(self):
        rng = random.Random(11)
        s = validate_instance(random_rows(rng, 25, 2, lo=0, hi=9))
        once = filter_nondominated(s).nondominated
        twice = filter_nondominated(once).nondominated
        assert once == twice

    def test_output_is_antichain(self):
        rng = random.Random(13)
        for _ in range(10):
            s = validate_instance(random_rows(rng, 20, 4, lo=0, hi=8))
            sub = filter_nondominated(s).nondominated
            for a in sub:
                for b in sub:
                    if a.id != b.id:
                        assert not dominates(a, b)

    def test_removed_points_have_retained_dominator_witness(self):
        rng = random.Random(17)
        for _ in range(10):
            s = validate_instance(random_rows(rng, 25, 3, lo=0, hi=10))
            result = filter_nondominated(s)
            for loser_id, winner_id in result.dominated_by.items():
                assert dominates(
                    result.nondominated.get(winner_id), s.get(loser_id)
                )

    def test_partition_invariant_under_increasing_affine_maps(self):
        rng = random.Random(19)
        for _ in range(10):
            rows = random_rows(rng, 20, 3, lo=0, hi=20)
            scale = [rng.randint(1, 50) for _ in range(3)]
            shift = [rng.randint(-40, 40) for _ in range(3)]
            mapped = [
                [a * c + b for a, b, c in zip(scale, shift, row)] for row in rows
            ]
            base = filter_nondominated(validate_instance(rows))
            image = filter_nondominated(validate_instance(mapped))
            assert set(base.dominated_by) == set(image.dominated_by)


def pairwise_filter(outcome_set: OutcomeSet) -> ParetoFilterResult:
    """The pairwise O(n^2) filter that the sort-filter-skyline replaced,
    kept as the reference: a point is removed when any other point
    dominates it, and its witness is the first kept point in input
    order that dominates it."""
    pts = outcome_set.points
    keep, removed = [], []
    for pt in pts:
        if any(dominates(other, pt) for other in pts if other is not pt):
            removed.append(pt)
        else:
            keep.append(pt)
    dominated_by = {}
    for pt in removed:
        for winner in keep:
            if dominates(winner, pt):
                dominated_by[pt.id] = winner.id
                break
    subset = OutcomeSet(
        p=outcome_set.p,
        points=tuple(keep),
        multiplicity={pt.id: outcome_set.multiplicity[pt.id] for pt in keep},
    )
    return ParetoFilterResult(nondominated=subset, dominated_by=dominated_by)


def _differential_corpus():
    rng = random.Random(23)
    sets = []
    for p in (2, 3, 4, 5):
        for _ in range(6):
            for rows in (
                random_rows(rng, rng.randint(2, 60), p, -20, 20),
                random_rows(rng, rng.randint(20, 80), p, 0, 4),
                random_rational_rows(rng, rng.randint(2, 50), p),
            ):
                sets.append(validate_instance(rows))
        # antichain: a common coordinate sum, so no point dominates another
        rows = {tuple(rng.randint(-9, 9) for _ in range(p - 1)) for _ in range(30)}
        sets.append(validate_instance([[*r, -sum(r)] for r in rows]))
        # chain, shuffled: every point dominates all later ones in the chain
        chain = [[i + k for k in range(p)] for i in range(25)]
        rng.shuffle(chain)
        sets.append(validate_instance(chain))
        sets.append(validate_instance([[F(rng.randint(-9, 9), 5) for _ in range(p)]]))
    for seed in range(3):
        sets.append(enumerate_instance(generate_knapsack(10, 2, seed)))
    return sets


class TestSortFilterDifferential:
    def test_matches_pairwise_reference(self):
        for trial, s in enumerate(_differential_corpus()):
            got, ref = filter_nondominated(s), pairwise_filter(s)
            assert [pt.id for pt in got.nondominated] == [
                pt.id for pt in ref.nondominated
            ], f"trial {trial}"
            assert got.nondominated == ref.nondominated, f"trial {trial}"
            assert list(got.dominated_by.items()) == list(
                ref.dominated_by.items()
            ), f"trial {trial}"

    def test_lattice_is_coordinates_times_common_denominator(self):
        for s in _differential_corpus():
            scale = math.lcm(*(c.denominator for pt in s for c in pt.coords))
            assert len(s.lattice) == len(s)
            for pt, row in zip(s, s.lattice):
                assert all(type(v) is int for v in row)
                assert row == tuple(c * scale for c in pt.coords)


def two_pass_validate_instance(raw_points, p=None) -> OutcomeSet:
    """The ``validate_instance`` that the single collapse replaced, kept
    as the reference: rows are converted to ``Fraction`` tuples, the
    first occurrence of each gets the next id and later ones add to its
    count."""
    rows = [tuple(rational(c) for c in row) for row in raw_points]
    if not rows:
        raise ValidationError("empty outcome set")
    if p is None:
        p = len(rows[0])
    if p < 2:
        raise ValidationError(f"bi-objective minimum violated: p = {p}")
    for i, row in enumerate(rows):
        if len(row) != p:
            raise ValidationError(
                f"dimension mismatch: row {i} has {len(row)} coordinates, expected {p}"
            )
    points, counts, first_id = [], {}, {}
    for row in rows:
        if row in first_id:
            counts[first_id[row]] += 1
            continue
        pid = f"y{len(points) + 1}"
        first_id[row] = pid
        counts[pid] = 1
        points.append(OutcomePoint(pid, row))
    return OutcomeSet(p=p, points=tuple(points), multiplicity=counts)


def knapsack_rows(spec):
    """Images of the feasible selections, in order of their bitmask
    (item k is bit k), which is the order the enumerator meets them in."""
    rows = []
    for mask in range(1 << len(spec.items)):
        chosen = [item for k, item in enumerate(spec.items) if mask >> k & 1]
        if sum(w for w, _ in chosen) <= spec.capacity:
            rows.append(
                tuple(sum(costs[i] for _, costs in chosen) for i in range(spec.p))
            )
    return rows


def assignment_rows(spec):
    return [
        tuple(
            sum(spec.costs[agent][task][i] for agent, task in enumerate(perm))
            for i in range(spec.p)
        )
        for perm in itertools.permutations(range(spec.n))
    ]


def lifted_rows(s):
    return [
        pt.coords + (F(0),) for pt in s for _ in range(s.multiplicity[pt.id])
    ]


def respelled(rng, value):
    """One of the ways to write the rational ``value``."""
    value = F(value)
    k = rng.randint(2, 5)
    forms = [value, f"{value.numerator * k}/{value.denominator * k}", str(value)]
    if value.denominator == 1:
        forms += [value.numerator, F(value.numerator)]
    return rng.choice(forms)


def _collapse_corpus():
    """(label, built set, raw rows, p) over every path that builds a set
    from rows."""
    rng = random.Random(29)
    cases = []
    for p in (2, 3, 4):
        for trial in range(4):
            rows = random_rows(rng, 40, p, 0, 3)
            rows += [rng.choice(rows) for _ in range(20)]
            rng.shuffle(rows)
            cases.append((f"int p{p} t{trial}", validate_instance(rows), rows, None))
            base = random_rational_rows(rng, 15, p)
            rows = [
                [respelled(rng, c) for c in rng.choice(base)] for _ in range(45)
            ]
            cases.append((f"spelled p{p} t{trial}", validate_instance(rows, p), rows, p))
    rows = [["1/2", 3], ["2/4", F(3)], [F(1, 2), "6/2"]]
    cases.append(("one half, three", validate_instance(rows), rows, None))
    for n in range(0, 11, 2):
        for p in (2, 3):
            for seed in range(2):
                spec = generate_knapsack(n, p, seed)
                cases.append((f"knapsack {n} {p} {seed}", enumerate_knapsack(spec), knapsack_rows(spec), p))
    # coinciding selections: equal items, and a free item doubling every count
    spec = KnapsackSpec(
        p=2,
        capacity=4,
        items=((1, (-1, -2)), (1, (-1, -2)), (2, (-2, -4)), (0, (0, 0)), (3, (-5, 1))),
    )
    cases.append(("knapsack coinciding", enumerate_knapsack(spec), knapsack_rows(spec), 2))
    # the column-wise enumerator's edges: 2 + 3 and 5 meet the capacity
    # exactly, 6 and 9 exceed it, two free items have nonzero costs, and
    # the costs mix signs
    spec = KnapsackSpec(
        p=3,
        capacity=5,
        items=(
            (2, (1, -3, 0)), (3, (-2, 4, 1)), (5, (-3, -1, 2)), (6, (-9, -9, -9)),
            (0, (2, -1, 0)), (9, (0, 0, -1)), (0, (-1, 1, 0)),
        ),
    )
    cases.append(("knapsack edges", enumerate_knapsack(spec), knapsack_rows(spec), 3))
    items = tuple(
        (rng.randint(0, 9), tuple(rng.randint(-3, 3) for _ in range(4))) for _ in range(10)
    )
    spec = KnapsackSpec(p=4, capacity=8, items=items)
    cases.append(("knapsack p4 mixed", enumerate_knapsack(spec), knapsack_rows(spec), 4))
    spec = generate_knapsack(13, 2, 0)  # the bench size
    cases.append(("knapsack 13 2 0", enumerate_knapsack(spec), knapsack_rows(spec), 2))
    for n in range(1, 6):
        for p in (2, 3):
            spec = generate_assignment(n, p, n)
            cases.append((f"assignment {n} {p}", enumerate_assignment(spec), assignment_rows(spec), p))
    spec = AssignmentSpec(p=2, costs=(((1, 1), (1, 1), (2, 0)),) * 3)
    cases.append(("assignment coinciding", enumerate_assignment(spec), assignment_rows(spec), 2))
    for label, s, _, p in list(cases):
        if max(s.multiplicity.values()) > 1:
            lifted = lift_zero_objective(s)
            cases.append((f"lift of {label}", lifted, lifted_rows(s), s.p + 1))
    return cases


class TestSingleCollapseDifferential:
    def test_matches_two_pass_reference(self):
        cases = _collapse_corpus()
        seen_repeats = 0
        for label, got, rows, p in cases:
            ref = two_pass_validate_instance(rows, p)
            assert [pt.id for pt in got] == [pt.id for pt in ref], label
            assert [pt.coords for pt in got] == [pt.coords for pt in ref], label
            assert list(got.multiplicity.items()) == list(ref.multiplicity.items()), label
            assert got.lattice == ref.lattice, label
            assert got == ref, label
            seen_repeats += max(got.multiplicity.values()) > 1
        labels = [label for label, *_ in cases]
        assert any(label.startswith("lift of knapsack") for label in labels)
        assert any(label.startswith("lift of assignment") for label in labels)
        assert seen_repeats > len(cases) // 2

    def test_float_still_rejected(self):
        with pytest.raises(ValidationError):
            validate_instance([[1, 2], [1.0, 2]])

    def test_equal_coordinates_rejected_naming_both_ids(self):
        with pytest.raises(ValidationError, match="'a' and 'b' share coordinates"):
            OutcomeSet(p=2, points=(pt(1, 2, pid="a"), pt(F(2, 2), 2, pid="b")))


class TestEachJobOnce:
    @pytest.fixture
    def hash_calls(self, monkeypatch):
        calls = []
        original = F.__hash__

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(F, "__hash__", counting)
        return calls

    def test_enumerated_classify_hashes_no_fraction(self, tmp_path, capsys, hash_calls):
        path = tmp_path / "k13.json"
        path.write_text(serialize_instance(generate_knapsack(13, 2, 0)))
        assert main(["classify", str(path), "--format", "json"]) == 0
        assert capsys.readouterr().out
        assert len(hash_calls) == 0

    @staticmethod
    def _builds_only_nondominated(
        tmp_path, capsys, monkeypatch, argv, cls, key, *, none=False
    ):
        """Run argv on gen knapsack 13 2 and check that every cls built
        while it runs has a Y_N id, key(obj), and that none is built
        twice; with none, that no cls is built at all."""
        spec = generate_knapsack(13, 2, 0)
        path = tmp_path / "k13.json"
        path.write_text(serialize_instance(spec))
        svg = tmp_path / "k13.svg"
        outcomes = enumerate_knapsack(spec)
        yn = set(filter_nondominated(outcomes).nondominated.ids)
        assert len(yn) < len(outcomes)
        built = []
        post_init = cls.__post_init__

        def counting(obj):
            built.append(key(obj))
            post_init(obj)

        monkeypatch.setattr(cls, "__post_init__", counting)
        assert main([*(a.format(svg=svg) for a in argv), str(path)]) == 0
        assert capsys.readouterr().out
        if none:
            assert built == []
        else:
            assert built and set(built) <= yn
            assert len(built) == len(set(built))
        assert svg.exists() == ("--svg" in argv)

    _CLASSIFY_ARGV = [
        ["classify", "--format", "json"],
        ["classify"],
        ["classify", "--format", "json", "--svg", "{svg}"],
    ]
    _CLASSIFY_IDS = ["classify-json", "classify-table", "classify-json-svg"]

    @pytest.mark.parametrize(
        "argv",
        [*_CLASSIFY_ARGV, ["dichotomic", "--format", "json"]],
        ids=[*_CLASSIFY_IDS, "dichotomic-json"],
    )
    def test_enumerated_requests_build_only_nondominated_points(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # classify names every point by its place in the set and builds
        # none; dichotomic builds Y_N's, each once.
        self._builds_only_nondominated(
            tmp_path,
            capsys,
            monkeypatch,
            argv,
            OutcomePoint,
            lambda pt: pt.id,
            none=argv[0] == "classify",
        )

    @pytest.mark.parametrize("argv", _CLASSIFY_ARGV, ids=_CLASSIFY_IDS)
    def test_enumerated_classify_builds_records_for_nondominated_points_only(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        self._builds_only_nondominated(
            tmp_path, capsys, monkeypatch, argv, Classification, lambda c: c.point_id
        )

    def test_enumerated_classify_builds_no_id_map_and_no_witness_map(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = generate_knapsack(13, 2, 0)
        path = tmp_path / "k13.json"
        path.write_text(serialize_instance(spec))
        sets, witnesses = [], []
        store, init = OutcomeSet._store, ndsupport.outcomes._Witnesses.__init__

        def storing(self, *args):
            sets.append(self)
            store(self, *args)

        def initing(self, *args):
            witnesses.append(self)
            init(self, *args)

        monkeypatch.setattr(OutcomeSet, "_store", storing)
        monkeypatch.setattr(ndsupport.outcomes._Witnesses, "__init__", initing)
        assert main(["classify", "--format", "json", str(path)]) == 0
        assert capsys.readouterr().out
        enumerated = [s for s in sets if len(s) == len(set(knapsack_rows(spec)))]
        assert len(enumerated) == 1 and witnesses
        assert "lattice_by_id" not in enumerated[0].__dict__
        assert all("data" not in w.__dict__ for w in witnesses)

    def test_explicit_rows_hash_each_fraction_once(self, hash_calls):
        rows = random_rational_rows(random.Random(31), 200, 3)
        validate_instance(rows + rows[:50])
        assert 0 < len(hash_calls) <= 250 * 3

    @staticmethod
    def _one_object_per_value(outcome_set):
        shared = {}
        for pt in outcome_set:
            for c in pt.coords:
                assert type(c) is F
                assert shared.setdefault((c.numerator, c.denominator), c) is c
        return shared

    def test_enumerated_knapsack_builds_each_value_once(self):
        s = enumerate_knapsack(generate_knapsack(12, 3, 4))
        shared = self._one_object_per_value(s)
        assert len(shared) < len(s) * s.p

    def test_lifted_assignment_builds_each_value_once(self):
        base = enumerate_assignment(generate_assignment(5, 2, 6))
        lifted = lift_zero_objective(base)
        # the lift reads the base lattice: no base point is built
        assert "points" not in base.__dict__
        assert lifted.lattice == tuple(r + (0,) for r in base.lattice)
        assert lifted.scale == base.scale == 1
        shared = self._one_object_per_value(lifted)
        assert len(shared) < len(lifted) * lifted.p
        assert [q.coords for q in lifted] == [p.coords + (0,) for p in base]

    def test_lift_makes_no_scale_call_and_keeps_the_collapsed_set(self, monkeypatch):
        calls = []

        def counting(values):
            calls.append(values)
            return _scale(values)

        monkeypatch.setattr(ndsupport.outcomes, "_scale", counting)
        base = OutcomeSet(
            p=2,
            points=[OutcomePoint("a", (F(1, 2), 3)), OutcomePoint("b", (F(-2, 3), 5))],
            multiplicity={"b": 4},
        )
        assert calls == [[F(1, 2), 3, F(-2, 3), 5]]
        calls.clear()
        lifted = lift_zero_objective(base)
        assert calls == []
        assert (lifted.scale, lifted.lattice) == (6, ((3, 18, 0), (-4, 30, 0)))
        monkeypatch.undo()
        # the set the lift built from the base points, named y1, y2, ...
        reference = _collapse(
            {pt.coords + (0,): base.multiplicity[pt.id] for pt in base}, 3
        )
        assert lifted == reference
        assert lifted.multiplicity == {"y1": 1, "y2": 4}


def recomputed_lattice(outcome_set):
    """The lattice rebuilt from the exact coordinates, in point order."""
    scale = math.lcm(*(c.denominator for pt in outcome_set for c in pt.coords))
    return tuple(
        tuple(c.numerator * (scale // c.denominator) for c in pt.coords)
        for pt in outcome_set
    )


class TestHandedLattice:
    @pytest.fixture
    def scale_calls(self, monkeypatch):
        calls = []

        def counting(values):
            calls.append(len(values))
            return _scale(values)

        monkeypatch.setattr(ndsupport.outcomes, "_scale", counting)
        return calls

    def test_enumerated_rows_are_the_lattice(self):
        s = enumerate_knapsack(generate_knapsack(12, 3, 4))
        assert s.lattice == recomputed_lattice(s)
        counts = Counter(knapsack_rows(generate_knapsack(9, 2, 1)))
        s = _collapse(counts, 2)
        # the set keeps the row tuples it was given, in their order
        assert len(s.lattice) == len(counts)
        assert all(a is b for a, b in zip(s.lattice, counts))
        assert s.lattice == recomputed_lattice(s)

    def test_explicit_int_rows_are_handed_over(self, scale_calls):
        rows = random_rows(random.Random(41), 60, 3, -20, 20)
        rows += rows[:10]
        s = validate_instance(rows)
        assert parse_instance(json.dumps({"objectives": 3, "points": rows})) == s
        assert scale_calls == []
        assert s.scale == 1
        assert s.lattice == tuple(dict.fromkeys(map(tuple, rows)))
        assert s.lattice == recomputed_lattice(s)

    def test_rational_and_mixed_sets_are_recomputed(self, scale_calls):
        rational_set = validate_instance(random_rational_rows(random.Random(37), 40, 3))
        mixed = _collapse({(F(1, 2), 3): 1, (1, F(2, 3)): 2}, 2)
        assert mixed.lattice == ((3, 18), (6, 4))
        written = validate_instance([[1, "1/2"], [3, 4], ["5", F(2)]])
        assert (written.scale, written.lattice) == (2, ((2, 1), (6, 8), (10, 4)))
        assert scale_calls == [120, 4, 6]
        knapsack = enumerate_knapsack(generate_knapsack(12, 3, 4))
        for s in (
            rational_set,
            lift_zero_objective(rational_set),
            mixed,
            written,
            filter_nondominated(knapsack).nondominated,
        ):
            assert s.lattice == recomputed_lattice(s)

    def test_int_and_string_spellings_collapse_into_one_point(self):
        for rows in (
            [[3, 1], ["3", 1]],
            [["3", 1], [3, 1]],
            [[3, "1"], [F(3), 1], ["6/2", 1], [3, 1]],
        ):
            s = validate_instance(rows)
            assert s.multiplicity == {"y1": len(rows)}
            assert (s.scale, s.lattice) == (1, ((3, 1),))
            assert s.get("y1").coords == (F(3), F(1))


_INTS = st.integers(-40, 40)
_RATIONALS = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


class TestLatticeBuiltSetDifferential:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_collapse_matches_the_public_constructor(self, data):
        p = data.draw(st.integers(2, 4))
        value = data.draw(
            st.sampled_from((_INTS, _RATIONALS, st.one_of(_INTS, _RATIONALS)))
        )
        rows = data.draw(
            st.lists(st.tuples(*[value] * p), min_size=1, max_size=12, unique=True)
        )
        if data.draw(st.booleans()):  # lifted: a constant int 0 objective
            rows, p = [row + (0,) for row in rows], p + 1
        counts = data.draw(
            st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows))
        )
        got = _collapse(dict(zip(rows, counts)), p)
        ids = [f"y{k}" for k in range(1, len(rows) + 1)]
        ref = OutcomeSet(
            p=p,
            points=[OutcomePoint(i, row) for i, row in zip(ids, rows)],
            multiplicity=dict(zip(ids, counts)),
        )
        assert got == ref
        assert (got.lattice, got.scale) == (ref.lattice, ref.scale)
        assert got.lattice_by_id == ref.lattice_by_id
        assert got.multiplicity == ref.multiplicity
        assert len(got) == len(ref) == len(rows)
        assert list(got) == list(ref)
        assert got.points == ref.points
        assert got.coord_rows() == ref.coord_rows()
        for q in ref:
            assert got.get(q.id) == q
            assert q in got
            assert OutcomePoint(q.id, q.coords + (0,)) not in got
        assert repr(got) == repr(ref)
        assert parse_instance(serialize_instance(got)) == got
