import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import COUNTEREXAMPLE_ROWS, random_rows
from ndsupport.classify import weakly_supported_witness
from ndsupport.errors import EnumerationCapError, ParseError, ValidationError
from ndsupport.instances import (
    ENUM_CAP_ENV_VAR,
    AssignmentSpec,
    KnapsackSpec,
    enumerate_assignment,
    enumerate_knapsack,
    generate_assignment,
    generate_knapsack,
    generate_points,
    knapsack_item_cap,
    lift_zero_objective,
    parse_instance,
    serialize_instance,
)
from ndsupport.outcomes import (
    OutcomePoint,
    OutcomeSet,
    filter_nondominated,
    validate_instance,
)


class TestParse:
    def test_explicit_counterexample_document(self):
        text = '{"objectives": 3, "points": [[2,9,1],[3,6,1],[8,3,1],[6,5,1]]}'
        instance = parse_instance(text)
        assert isinstance(instance, OutcomeSet)
        assert instance.p == 3 and len(instance) == 4

    def test_single_objective_rejected(self):
        with pytest.raises(ValidationError):
            parse_instance('{"objectives": 1, "points": [[1],[2]]}')

    def test_rational_literal_exact(self):
        instance = parse_instance('{"points": [[1, "9/2"], [2, 3]]}')
        assert instance.get("y1").coords == (F(1), F(9, 2))

    def test_float_rejected_with_field_diagnostic(self):
        with pytest.raises(ParseError, match=r"points\[0\]\[1\]"):
            parse_instance('{"points": [[1, 4.5], [2, 3]]}')

    def test_malformed_json_has_position(self):
        with pytest.raises(ParseError, match="line 1 column"):
            parse_instance('{"points": [[1,2],')

    def test_ragged_rows(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            parse_instance('{"points": [[1,2],[3]]}')

    def test_declared_objectives_must_match_rows(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            parse_instance('{"objectives": 3, "points": [[1,2],[3,4]]}')

    def test_knapsack_document(self):
        text = (
            '{"knapsack": {"capacity": 1, "items": '
            '[{"weight": 1, "costs": [1, 4]}, {"weight": 1, "costs": [4, 1]}]}}'
        )
        spec = parse_instance(text)
        assert isinstance(spec, KnapsackSpec)
        assert spec.p == 2 and spec.capacity == 1

    def test_empty_knapsack_needs_objectives(self):
        with pytest.raises(ParseError, match="objectives"):
            parse_instance('{"knapsack": {"capacity": 0, "items": []}}')
        spec = parse_instance(
            '{"knapsack": {"objectives": 2, "capacity": 0, "items": []}}'
        )
        assert spec.p == 2

    def test_assignment_document(self):
        text = (
            '{"assignment": {"n": 2, "costs": '
            "[[[1,0],[0,1]],[[0,1],[1,0]]]}}"
        )
        spec = parse_instance(text)
        assert isinstance(spec, AssignmentSpec)
        assert spec.n == 2 and spec.p == 2

    def test_assignment_size_cap(self):
        n = 9
        costs = [[[0, 0]] * n for _ in range(n)]
        with pytest.raises(EnumerationCapError):
            AssignmentSpec(p=2, costs=tuple(tuple(tuple(c) for c in row) for row in costs))

    @pytest.mark.parametrize(
        "capacity, items",
        [
            (True, ((1, (1, 2)),)),
            (3, ((True, (1, 2)),)),
            (3, ((1, (1, False)),)),
        ],
        ids=["capacity", "weight", "cost"],
    )
    def test_knapsack_spec_rejects_booleans(self, capacity, items):
        # serialize_instance would write true/false, which parse_instance
        # refuses, so such a spec could not round-trip.
        with pytest.raises(ValidationError):
            KnapsackSpec(p=2, capacity=capacity, items=items)

    def test_assignment_spec_rejects_booleans(self):
        with pytest.raises(ValidationError):
            AssignmentSpec(p=2, costs=(((1, True),),))

    @pytest.mark.parametrize(
        "build",
        [
            lambda p: KnapsackSpec(p=p, capacity=3, items=((1, (1, 2)),)),
            lambda p: AssignmentSpec(p=p, costs=(((1, 2),),)),
            lambda p: validate_instance([[1, 2], [2, 1]], p),
        ],
        ids=["knapsack", "assignment", "points"],
    )
    @pytest.mark.parametrize("p", [2.0, F(2)])
    def test_objective_count_must_be_an_int(self, build, p):
        # serialize_instance would write "objectives": 2.0, which
        # parse_instance refuses, so such an instance could not
        # round-trip.
        with pytest.raises(ValidationError, match="objectives must be an integer"):
            build(p)

    def test_ambiguous_document_rejected(self):
        with pytest.raises(ParseError, match="exactly one"):
            parse_instance('{"points": [[1,2]], "knapsack": {}}')


def document(text):
    return lambda monkeypatch: parse_instance(text)


def negative_item_cap(monkeypatch):
    monkeypatch.setenv(ENUM_CAP_ENV_VAR, "-1")
    return knapsack_item_cap()


# Each refusal of malformed input, the error type it raises and the text
# that locates it.
REFUSALS = {
    "boolean coordinate": (
        document('{"points": [[1, true], [2, 3]]}'),
        ParseError,
        "points[0][1]: booleans are not coordinates",
    ),
    "top level not an object": (
        document("[[1, 2], [2, 1]]"),
        ParseError,
        "top level must be a JSON object",
    ),
    "empty points": (
        document('{"points": []}'),
        ParseError,
        '"points" must be a nonempty list of rows',
    ),
    "points not a list": (
        document('{"points": {"y1": [1, 2]}}'),
        ParseError,
        '"points" must be a nonempty list of rows',
    ),
    "row not a list": (
        document('{"points": [[1, 2], 3]}'),
        ParseError,
        "points[1]: expected a list",
    ),
    "knapsack not an object": (
        document('{"knapsack": [1, 2]}'),
        ParseError,
        '"knapsack" must be an object',
    ),
    "items not a list": (
        document('{"knapsack": {"capacity": 1, "items": {}}}'),
        ParseError,
        'knapsack "items" must be a list',
    ),
    "item not an object": (
        document('{"knapsack": {"capacity": 1, "items": [[1, [1, 2]]]}}'),
        ParseError,
        "items[0]: expected an object",
    ),
    "item costs not a list": (
        document('{"knapsack": {"capacity": 1, "items": [{"weight": 1, "costs": 3}]}}'),
        ParseError,
        "items[0].costs: expected a list",
    ),
    "assignment not an object": (
        document('{"assignment": 3}'),
        ParseError,
        '"assignment" must be an object',
    ),
    "costs not a list": (
        document('{"assignment": {"costs": "1, 2"}}'),
        ParseError,
        'assignment "costs" must be a nonempty matrix',
    ),
    "costs row not a list": (
        document('{"assignment": {"costs": [3]}}'),
        ParseError,
        "costs[0]: expected a list",
    ),
    "cost cell not a list": (
        document('{"assignment": {"costs": [[3]]}}'),
        ParseError,
        "costs[0][0]: expected a cost vector",
    ),
    "empty first row": (
        document('{"assignment": {"costs": [[]]}}'),
        ParseError,
        "costs[0]: empty row, cannot infer objective count",
    ),
    "n disagrees": (
        document('{"assignment": {"n": 2, "costs": [[[1, 2]]]}}'),
        ParseError,
        "assignment.n disagrees with the cost matrix size",
    ),
    "non-square matrix": (
        document('{"assignment": {"costs": [[[1, 2], [2, 1]]]}}'),
        ValidationError,
        "assignment cost matrix is not square (row 0)",
    ),
    "knapsack p < 2": (
        lambda monkeypatch: KnapsackSpec(p=1, capacity=3, items=((1, (1,)),)),
        ValidationError,
        "bi-objective minimum violated",
    ),
    "assignment p < 2": (
        lambda monkeypatch: AssignmentSpec(p=1, costs=(((1,),),)),
        ValidationError,
        "bi-objective minimum violated",
    ),
    "negative item cap": (
        negative_item_cap,
        ValidationError,
        f"{ENUM_CAP_ENV_VAR} must be nonnegative",
    ),
    "serialize another type": (
        lambda monkeypatch: serialize_instance([[1, 2], [2, 1]]),
        ValidationError,
        "cannot serialize list",
    ),
}


@pytest.mark.parametrize(
    "build, error, where", REFUSALS.values(), ids=list(REFUSALS)
)
def test_malformed_input_is_refused_where_it_is(monkeypatch, build, error, where):
    with pytest.raises(ValidationError) as refused:
        build(monkeypatch)
    assert type(refused.value) is error
    assert str(refused.value) == where


class TestRoundTrip:
    def test_counterexample(self):
        instance = validate_instance(COUNTEREXAMPLE_ROWS)
        assert parse_instance(serialize_instance(instance)) == instance

    def test_multiplicity_preserved(self):
        instance = validate_instance([[1, 2], [1, 2], [3, "1/2"]])
        again = parse_instance(serialize_instance(instance))
        assert again == instance
        assert again.multiplicity["y1"] == 2

    def test_generated_specs(self):
        for spec in (
            generate_knapsack(8, 2, seed=5),
            generate_assignment(4, 3, seed=5),
            generate_points(9, 2, seed=5),
        ):
            assert parse_instance(serialize_instance(spec)) == spec

    def test_other_ids_parse_back_as_y1_onwards(self):
        # Ids are not written, so only the rows, their order and their
        # multiplicities come back.
        instance = OutcomeSet(
            2,
            (
                OutcomePoint("a", (F(1), F(5))),
                OutcomePoint("b", (F(2), F(2))),
                OutcomePoint("c", (F(7, 2), F(-1, 3))),
            ),
            multiplicity={"b": 3},
        )
        again = parse_instance(serialize_instance(instance))
        assert again != instance
        assert again.ids == ("y1", "y2", "y3")
        assert (again.p, again.lattice, again.scale) == (
            instance.p, instance.lattice, instance.scale
        )
        assert [again.multiplicity[i] for i in again.ids] == [1, 3, 1]

    @settings(max_examples=40)
    @given(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=2, max_size=2),
            min_size=1,
            max_size=12,
        )
    )
    def test_arbitrary_integer_sets(self, rows):
        instance = validate_instance(rows)
        assert parse_instance(serialize_instance(instance)) == instance


class TestKnapsackEnumeration:
    def test_no_items_yields_zero_vector(self):
        spec = KnapsackSpec(p=2, capacity=0, items=())
        outcome = enumerate_knapsack(spec)
        assert outcome.coord_rows() == [(F(0), F(0))]

    def test_two_item_example(self):
        spec = KnapsackSpec(
            p=2, capacity=1, items=((1, (1, 4)), (1, (4, 1)))
        )
        outcome = enumerate_knapsack(spec)
        assert set(outcome.coord_rows()) == {(0, 0), (1, 4), (4, 1)}

    def test_matches_nested_loop_oracle(self):
        spec = generate_knapsack(10, 2, seed=3)
        outcome = enumerate_knapsack(spec)
        # Independent oracle: explicit combinations instead of the
        # incremental subset extension used by the implementation.
        expected = set()
        n = len(spec.items)
        for r in range(n + 1):
            for combo in itertools.combinations(range(n), r):
                weight = sum(spec.items[i][0] for i in combo)
                if weight > spec.capacity:
                    continue
                vec = [0] * spec.p
                for i in combo:
                    for k in range(spec.p):
                        vec[k] += spec.items[i][1][k]
                expected.add(tuple(F(v) for v in vec))
        assert set(outcome.coord_rows()) == expected

    def test_multiplicity_counts_coinciding_selections(self):
        # Two identical items: picking either one alone gives the same image.
        spec = KnapsackSpec(p=2, capacity=5, items=((1, (2, 3)), (1, (2, 3))))
        outcome = enumerate_knapsack(spec)
        by_coords = {pt.coords: outcome.multiplicity[pt.id] for pt in outcome}
        assert by_coords[(F(2), F(3))] == 2

    def test_cap_refusal_and_env_override(self, monkeypatch):
        items = tuple((1, (1, 1)) for _ in range(21))
        spec = KnapsackSpec(p=2, capacity=0, items=items)
        with pytest.raises(EnumerationCapError, match="cap"):
            enumerate_knapsack(spec)
        monkeypatch.setenv("NDSUPPORT_ENUM_CAP", "21")
        outcome = enumerate_knapsack(spec)
        assert outcome.coord_rows() == [(F(0), F(0))]
        monkeypatch.setenv("NDSUPPORT_ENUM_CAP", "oops")
        with pytest.raises(ValidationError):
            enumerate_knapsack(spec)


class TestAssignmentEnumeration:
    def test_single_agent(self):
        spec = AssignmentSpec(p=2, costs=(((3, 4),),))
        assert enumerate_assignment(spec).coord_rows() == [(F(3), F(4))]

    def test_two_by_two_example(self):
        spec = AssignmentSpec(
            p=2,
            costs=(((1, 0), (0, 1)), ((0, 1), (1, 0))),
        )
        outcome = enumerate_assignment(spec)
        assert set(outcome.coord_rows()) == {(2, 0), (0, 2)}

    def test_matches_recursive_oracle(self):
        spec = generate_assignment(4, 2, seed=9)

        def assignments(remaining_tasks, agent):
            if agent == spec.n:
                yield []
                return
            for t in list(remaining_tasks):
                for rest in assignments(remaining_tasks - {t}, agent + 1):
                    yield [t] + rest

        expected = set()
        for perm in assignments(set(range(spec.n)), 0):
            vec = [0] * spec.p
            for agent, task in enumerate(perm):
                for k in range(spec.p):
                    vec[k] += spec.costs[agent][task][k]
            expected.add(tuple(F(v) for v in vec))
        assert set(enumerate_assignment(spec).coord_rows()) == expected


class TestLift:
    def test_counterexample_layer(self):
        base = validate_instance([[2, 9], [3, 6], [8, 3], [6, 5]])
        lifted = lift_zero_objective(base)
        assert lifted.p == 3
        assert lifted.coord_rows() == [
            (2, 9, 0),
            (3, 6, 0),
            (8, 3, 0),
            (6, 5, 0),
        ]
        # Every point of the lifted layer is weakly supported, the
        # originally unsupported (6, 5) included.
        yn = filter_nondominated(lifted).nondominated
        assert all(
            weakly_supported_witness(y, yn) is not None for y in yn
        )

    def test_singleton(self):
        lifted = lift_zero_objective(validate_instance([[1, 2]]))
        assert lifted.coord_rows() == [(1, 2, 0)]

    def test_lift_preserves_nondominance(self):
        rng = random.Random(83)
        for _ in range(10):
            base = validate_instance(random_rows(rng, 15, 2, 0, 30))
            lifted = lift_zero_objective(base)
            before = {p.id for p in filter_nondominated(base).nondominated}
            after = {p.id for p in filter_nondominated(lifted).nondominated}
            assert before == after

    def test_lift_keeps_multiplicity(self):
        base = validate_instance([[1, 2], [1, 2], [0, 9]])
        lifted = lift_zero_objective(base)
        assert lifted.multiplicity["y1"] == 2


class TestGenerators:
    def test_same_seed_same_bytes(self):
        for make in (
            lambda s: generate_knapsack(10, 2, seed=s),
            lambda s: generate_assignment(5, 2, seed=s),
            lambda s: generate_points(12, 3, seed=s),
        ):
            assert serialize_instance(make(42)) == serialize_instance(make(42))
            assert serialize_instance(make(42)) != serialize_instance(make(43))

    def test_knapsack_generator_ranges(self):
        spec = generate_knapsack(10, 2, seed=7)
        assert len(spec.items) == 10
        assert all(1 <= w <= 30 for w, _ in spec.items)
        assert all(-100 <= c <= -1 for _, costs in spec.items for c in costs)
        assert spec.capacity == sum(w for w, _ in spec.items) // 2
