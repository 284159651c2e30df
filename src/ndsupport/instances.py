"""Instance ingestion, brute-force enumeration and generation.

Three instance kinds share one self-describing JSON text format:

* explicit outcome sets:
  ``{"objectives": p, "points": [[2, 9, 1], ["9/2", 3, 0], ...]}``
  with integer entries as numbers and non-integer rationals as "a/b"
  strings (binary floats are rejected, they would corrupt exactness);
* knapsack specs (minimization; costs may be negative, i.e. negated
  profits):
  ``{"knapsack": {"objectives": p, "capacity": W,
  "items": [{"weight": w, "costs": [...]}, ...]}}``;
* assignment specs:
  ``{"assignment": {"objectives": p, "n": n, "costs": [[[...], ...], ...]}}``.

Enumeration is deliberately brute force with hard caps and explicit
refusal beyond them; silent truncation would corrupt classification.
Generators are pure functions of their seed: the same seed always
yields byte-identical serialized instances.
"""

from __future__ import annotations

import json
import os
import random
import reprlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, permutations, repeat
from operator import add, le
from typing import Union

from .errors import EnumerationCapError, ParseError, ValidationError
from .outcomes import OutcomeSet, _collapse, _is_int, validate_instance
from .ratlp import format_rational, rational

DEFAULT_KNAPSACK_ITEM_CAP = 20
MAX_ASSIGNMENT_SIZE = 8
ENUM_CAP_ENV_VAR = "NDSUPPORT_ENUM_CAP"


def knapsack_item_cap() -> int:
    """Item-count cap for subset enumeration (2^cap subsets), overridable
    via the NDSUPPORT_ENUM_CAP environment variable."""
    raw = os.environ.get(ENUM_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_KNAPSACK_ITEM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(
            f"{ENUM_CAP_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if cap < 0:
        raise ValidationError(f"{ENUM_CAP_ENV_VAR} must be nonnegative")
    return cap


@dataclass(frozen=True)
class KnapsackSpec:
    """Items with nonnegative integer weights and integer cost vectors,
    to be minimized subject to total weight <= capacity."""

    p: int
    capacity: int
    items: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        if not _is_int(self.p):
            raise ValidationError(f"objectives must be an integer, got {self.p!r}")
        if self.p < 2:
            raise ValidationError("bi-objective minimum violated")
        if not _is_int(self.capacity) or self.capacity < 0:
            raise ValidationError("capacity must be a nonnegative integer")
        items = []
        for idx, (weight, costs) in enumerate(self.items):
            if not _is_int(weight) or weight < 0:
                raise ValidationError(f"item {idx}: weight must be a nonnegative integer")
            costs = tuple(costs)
            if len(costs) != self.p or not all(map(_is_int, costs)):
                raise ValidationError(
                    f"item {idx}: costs must be {self.p} integers"
                )
            items.append((weight, costs))
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class AssignmentSpec:
    """n x n agent/task costs, each an integer vector of length p."""

    p: int
    costs: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if not _is_int(self.p):
            raise ValidationError(f"objectives must be an integer, got {self.p!r}")
        if self.p < 2:
            raise ValidationError("bi-objective minimum violated")
        n = len(self.costs)
        if n < 1:
            raise ValidationError("assignment needs at least one agent")
        if n > MAX_ASSIGNMENT_SIZE:
            raise EnumerationCapError(
                f"assignment size {n} exceeds the enumeration cap "
                f"{MAX_ASSIGNMENT_SIZE} (n! permutations)"
            )
        rows = []
        for i, row in enumerate(self.costs):
            row = tuple(tuple(cell) for cell in row)
            if len(row) != n:
                raise ValidationError(f"assignment cost matrix is not square (row {i})")
            for j, cell in enumerate(row):
                if len(cell) != self.p or not all(map(_is_int, cell)):
                    raise ValidationError(
                        f"assignment cell ({i},{j}) must hold {self.p} integers"
                    )
            rows.append(row)
        object.__setattr__(self, "costs", tuple(rows))

    @property
    def n(self) -> int:
        return len(self.costs)


Instance = Union[OutcomeSet, KnapsackSpec, AssignmentSpec]


def _coord(value, where: str) -> Fraction | int:
    """An exact coordinate: an int as it stands, a literal as a Fraction."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: booleans are not coordinates")
    if isinstance(value, float):
        raise ParseError(
            f"{where}: float literal {value!r} is not exact; use an integer "
            'or a rational string like "9/2"'
        )
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return rational(value)
        except ValidationError as exc:
            raise ParseError(f"{where}: {exc}") from None
    raise ParseError(f"{where}: cannot read {reprlib.repr(value)} as a rational")


def _int_field(value, where: str) -> int:
    if not _is_int(value):
        raise ParseError(f"{where}: expected an integer, got {reprlib.repr(value)}")
    return value


def parse_instance(text: str) -> Instance:
    """Parse the documented UTF-8 JSON format into a typed instance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        # nesting past the recursion limit, or an int over the digit limit
        raise ParseError(f"cannot read the JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    kinds = [k for k in ("points", "knapsack", "assignment") if k in doc]
    if len(kinds) != 1:
        raise ParseError(
            'expected exactly one of "points", "knapsack" or "assignment"'
        )
    kind = kinds[0]
    if kind == "points":
        rows = doc["points"]
        if not isinstance(rows, list) or not rows:
            raise ParseError('"points" must be a nonempty list of rows')
        parsed = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise ParseError(f"points[{i}]: expected a list")
            parsed.append(
                [_coord(v, f"points[{i}][{j}]") for j, v in enumerate(row)]
            )
        p = doc.get("objectives")
        if p is not None:
            p = _int_field(p, "objectives")
        return validate_instance(parsed, p)
    if kind == "knapsack":
        body = doc["knapsack"]
        if not isinstance(body, dict):
            raise ParseError('"knapsack" must be an object')
        items = body.get("items")
        if not isinstance(items, list):
            raise ParseError('knapsack "items" must be a list')
        parsed_items = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise ParseError(f"items[{i}]: expected an object")
            weight = _int_field(item.get("weight"), f"items[{i}].weight")
            costs = item.get("costs")
            if not isinstance(costs, list):
                raise ParseError(f"items[{i}].costs: expected a list")
            parsed_items.append(
                (weight, tuple(_int_field(c, f"items[{i}].costs[{j}]") for j, c in enumerate(costs)))
            )
        p = body.get("objectives")
        if p is None:
            if not parsed_items:
                raise ParseError(
                    'knapsack with no items needs an explicit "objectives" count'
                )
            p = len(parsed_items[0][1])
        else:
            p = _int_field(p, "knapsack.objectives")
        return KnapsackSpec(
            p=p,
            capacity=_int_field(body.get("capacity"), "knapsack.capacity"),
            items=tuple(parsed_items),
        )
    body = doc["assignment"]
    if not isinstance(body, dict):
        raise ParseError('"assignment" must be an object')
    costs = body.get("costs")
    if not isinstance(costs, list) or not costs:
        raise ParseError('assignment "costs" must be a nonempty matrix')
    matrix = []
    for i, row in enumerate(costs):
        if not isinstance(row, list):
            raise ParseError(f"costs[{i}]: expected a list")
        matrix.append(
            tuple(
                tuple(
                    _int_field(c, f"costs[{i}][{j}][{k}]")
                    for k, c in enumerate(cell)
                )
                if isinstance(cell, list)
                else _bad_cell(i, j)
                for j, cell in enumerate(row)
            )
        )
    p = body.get("objectives")
    if p is None:
        if not matrix[0]:
            raise ParseError("costs[0]: empty row, cannot infer objective count")
        p = len(matrix[0][0])
    else:
        p = _int_field(p, "assignment.objectives")
    declared_n = body.get("n")
    if declared_n is not None and _int_field(declared_n, "assignment.n") != len(matrix):
        raise ParseError("assignment.n disagrees with the cost matrix size")
    return AssignmentSpec(p=p, costs=tuple(matrix))


def _bad_cell(i, j):
    raise ParseError(f"costs[{i}][{j}]: expected a cost vector")


def serialize_instance(instance: Instance) -> str:
    """Canonical text for an instance; parse(serialize(x)) == x for a
    spec, and for a set whose ids are y1 ... yn in order.  A set's ids
    are not written: any other set parses back to the same rows, scale
    and multiplicities in order, under ids y1 ... yn."""
    if isinstance(instance, OutcomeSet):
        rows = []
        for pt in instance:
            row = [format_rational(c) for c in pt.coords]
            rows.extend([row] * instance.multiplicity[pt.id])
        doc = {"objectives": instance.p, "points": rows}
    elif isinstance(instance, KnapsackSpec):
        doc = {
            "knapsack": {
                "objectives": instance.p,
                "capacity": instance.capacity,
                "items": [
                    {"weight": w, "costs": list(costs)} for w, costs in instance.items
                ],
            }
        }
    elif isinstance(instance, AssignmentSpec):
        doc = {
            "assignment": {
                "objectives": instance.p,
                "n": instance.n,
                "costs": [[list(cell) for cell in row] for row in instance.costs],
            }
        }
    else:
        raise ValidationError(f"cannot serialize {type(instance).__name__}")
    return json.dumps(doc, indent=2) + "\n"


def enumerate_knapsack(spec: KnapsackSpec) -> OutcomeSet:
    """Outcome vectors of all feasible item subsets (weight <= capacity).

    Solutions sharing an image collapse into one stored point whose
    multiplicity records how many selections map there.  Subsets are
    kept column by column, one int list for the weights and one per
    objective; each item appends the subsets it fits, in their order,
    so subset k is the k-th feasible bitmask (item i is bit i) and ids
    follow first occurrence in that order.
    """
    n = len(spec.items)
    cap = knapsack_item_cap()
    if n > cap:
        raise EnumerationCapError(
            f"knapsack with {n} items exceeds the enumeration cap of {cap} "
            f"(set {ENUM_CAP_ENV_VAR} to override)"
        )
    weights = [0]
    columns = [[0] for _ in range(spec.p)]
    for weight, costs in spec.items:
        fits = list(map(le, weights, repeat(spec.capacity - weight)))
        # compress stops where fits ends, at the column's old length
        for column, c in zip([weights, *columns], (weight, *costs)):
            column += map(add, compress(column, fits), repeat(c))
    return _collapse(Counter(zip(*columns)), spec.p)


def enumerate_assignment(spec: AssignmentSpec) -> OutcomeSet:
    """Outcome vectors of all n! complete assignments."""
    counts: Counter[tuple[int, ...]] = Counter()
    for perm in permutations(range(spec.n)):
        cells = [spec.costs[agent][task] for agent, task in enumerate(perm)]
        counts[tuple(map(sum, zip(*cells)))] += 1
    return _collapse(counts, spec.p)


def enumerate_instance(instance: Instance) -> OutcomeSet:
    """Uniform entry point: explicit sets pass through, specs enumerate."""
    if isinstance(instance, OutcomeSet):
        return instance
    if isinstance(instance, KnapsackSpec):
        return enumerate_knapsack(instance)
    return enumerate_assignment(instance)


def lift_zero_objective(outcome_set: OutcomeSet) -> OutcomeSet:
    """Append a constant zero objective to every point.

    Dominance on the original coordinates is unchanged, and every
    originally non-dominated point becomes weakly supported in the
    lifted instance (the constant coordinate supplies a flat face of
    the upper image).  The lifted lattice is the base lattice with a 0
    column, at the same scale, so no point is built; the points are
    named ``y1, y2, ...`` in the base set's order, as ``_collapse``
    names them.
    """
    ids = tuple([f"y{k}" for k in range(1, len(outcome_set) + 1)])
    return OutcomeSet._from_lattice(
        outcome_set.p + 1,
        ids,
        tuple([row + (0,) for row in outcome_set.lattice]),
        outcome_set.scale,
        dict(zip(ids, map(outcome_set.multiplicity.__getitem__, outcome_set.ids))),
    )


# Documented generator ranges: knapsack weights 1..30 with capacity half
# the total weight and costs drawn as negated profits in -100..-1 (an
# all-nonnegative minimization knapsack is degenerate: the empty
# selection dominates everything); assignment and point coordinates 0..100.

def generate_knapsack(num_items: int, p: int, seed: int) -> KnapsackSpec:
    if num_items < 0:
        raise ValidationError(f"item count must be nonnegative, got {num_items}")
    rng = random.Random(seed)
    items = []
    for _ in range(num_items):
        weight = rng.randint(1, 30)
        costs = tuple(-rng.randint(1, 100) for _ in range(p))
        items.append((weight, costs))
    capacity = sum(w for w, _ in items) // 2
    return KnapsackSpec(p=p, capacity=capacity, items=tuple(items))


def generate_assignment(n: int, p: int, seed: int) -> AssignmentSpec:
    rng = random.Random(seed)
    costs = tuple(
        tuple(tuple(rng.randint(0, 100) for _ in range(p)) for _ in range(n))
        for _ in range(n)
    )
    return AssignmentSpec(p=p, costs=costs)


def generate_points(count: int, p: int, seed: int) -> OutcomeSet:
    rng = random.Random(seed)
    rows = [[rng.randint(0, 100) for _ in range(p)] for _ in range(count)]
    return validate_instance(rows, p)
