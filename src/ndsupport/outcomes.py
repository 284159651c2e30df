"""Outcome-space data model, component-wise order and Pareto filtering.

Minimization convention throughout: smaller is better in every
objective.  One builder, ``_collapse``, makes every set built from
rows: each distinct row becomes a point ``y1, y2, ...`` in order of
first occurrence, and the number of solutions sharing that image
becomes its multiplicity.

A set is stored on its integer lattice: every coordinate scaled to an
int by ``ratlp._scale``, and rows of ints are their own lattice, kept
as given.  A positive scaling keeps equality, dominance, weighted-sum
order and lexicographic order, so the distinctness check at
construction, the Pareto filter and the weighted-sum oracle here
(``_least_rows``) run on ints, and so do the classify writers in
``cli``.
The exact ``OutcomePoint``s, which certificates read, are built from
the lattice when first read, so an enumerated set builds them for its
non-dominated points only.  Sets are immutable and the functions here
pure, so concurrent reads are safe: two first reads may both build the
points, and either result is kept.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter, UserDict
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from itertools import chain, islice
from math import gcd
from operator import le, mul
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ValidationError
from .ratlp import _exact_vector, _plain_ints, _scale, rational


def _is_int(value) -> bool:
    """An int that is not a bool, as the instance format reads one."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class OutcomePoint:
    """A point in objective space: an opaque id plus exact coordinates."""

    id: str
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(rational, self.coords)))


def _on_lattice(rows: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lcm of the rows' denominators, and the rows times it as int
    tuples.  Rows of ints are their own lattice, at scale 1."""
    if _plain_ints(chain.from_iterable(rows)):
        return 1, tuple(rows)
    scale, ints = _scale(list(chain.from_iterable(rows)))
    ints = iter(ints)
    return scale, tuple([tuple(islice(ints, len(row))) for row in rows])


class _Interned(dict):
    """One ``make(v)`` per distinct int v, made on first lookup."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, value: int):
        made = self[value] = self.make(value)
        return made


@dataclass(frozen=True, init=False, repr=False)
class OutcomeSet:
    """A validated, deduplicated, nonempty finite set of outcome points.

    Stored on its lattice: ``ids`` in point order; ``lattice``, each
    point's coordinates times ``scale``, the lcm of their denominators,
    as ints; ``multiplicity`` by id, each an int >= 1 (a bool, float or
    other type is refused, not coerced).  ``lattice_by_id`` maps an id
    to its row; it is built on first read, so an enumerated set whose
    rows are only walked in order never builds it.  Equal rows are equal
    coordinates, so the lattice is the distinctness key, and equality on
    (p, ids, lattice, scale, multiplicity) is equality on the points.

    ``OutcomeSet(p, points, multiplicity)`` builds a set from
    ``OutcomePoint``s, with multiplicity 1 for an id the mapping lacks.
    ``points``, iteration, ``get``, ``in`` and ``coord_rows`` read the
    points; a set built from rows makes them on the first such read,
    with one ``Fraction`` per distinct value, and keeps them."""

    p: int
    ids: tuple[str, ...]
    lattice: tuple[tuple[int, ...], ...]
    scale: int
    multiplicity: Mapping[str, int]

    def __init__(
        self,
        p: int,
        points: Iterable[OutcomePoint],
        multiplicity: Optional[Mapping[str, int]] = None,
    ):
        points = tuple(points)
        ids = tuple([pt.id for pt in points])
        multiplicity = multiplicity or {}
        scale, lattice = _on_lattice([pt.coords for pt in points])
        self._store(p, ids, lattice, scale, {i: multiplicity.get(i, 1) for i in ids})
        self.__dict__["points"] = points

    @classmethod
    def _from_lattice(cls, p, ids, lattice, scale, multiplicity) -> OutcomeSet:
        """A set from its stored form: ``scale`` must be the lcm of the
        coordinates' denominators, and ``multiplicity`` map every id."""
        self = cls.__new__(cls)
        self._store(p, ids, lattice, scale, multiplicity)
        return self

    def _store(self, p, ids, lattice, scale, multiplicity) -> None:
        """Check every invariant of the stored form, at C speed where it
        holds, then set it; the points are left to be built."""
        if not _is_int(p):
            raise ValidationError(f"objectives must be an integer, got {p!r}")
        if p < 2:
            raise ValidationError("bi-objective minimum violated: need p >= 2")
        if not lattice:
            raise ValidationError("empty outcome set")
        if set(map(len, lattice)) != {p} or not (
            len(ids) == len(set(ids)) == len(set(lattice))
        ):
            _reject_first_bad_point(p, ids, lattice)
        counts = multiplicity.values()
        if not _plain_ints(counts) or min(counts) < 1:
            bad = next(
                i for i in ids if type(multiplicity[i]) is not int or multiplicity[i] < 1
            )
            raise ValidationError(
                f"multiplicity of {bad!r} must be a positive integer, "
                f"got {multiplicity[bad]!r}"
            )
        # the frozen fields are set here once, past the dataclass __setattr__
        self.__dict__.update(
            p=p, ids=ids, lattice=lattice, scale=scale, multiplicity=multiplicity
        )

    @cached_property
    def lattice_by_id(self) -> dict[str, tuple[int, ...]]:
        return dict(zip(self.ids, self.lattice))

    @cached_property
    def points(self) -> tuple[OutcomePoint, ...]:
        exact = _Interned(partial(Fraction, denominator=self.scale))
        return tuple([
            OutcomePoint(pid, tuple([exact[v] for v in row]))
            for pid, row in zip(self.ids, self.lattice)
        ])

    @cached_property
    def _by_id(self) -> dict[str, OutcomePoint]:
        return dict(zip(self.ids, self.points))

    def __repr__(self) -> str:
        return (
            f"OutcomeSet(p={self.p!r}, points={self.points!r}, "
            f"multiplicity={self.multiplicity!r})"
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.points)

    def get(self, point_id: str) -> OutcomePoint:
        try:
            return self._by_id[point_id]
        except KeyError:
            raise ValidationError(f"no point with id {point_id!r}") from None

    def __contains__(self, point: OutcomePoint) -> bool:
        stored = self._by_id.get(point.id)
        return stored is not None and stored.coords == point.coords

    def coord_rows(self) -> list[tuple[Fraction, ...]]:
        return [pt.coords for pt in self.points]


def _reject_first_bad_point(p, ids, lattice) -> None:
    """Raise for the first point, in order, with the wrong dimension, a
    repeated id or the coordinates of an earlier point."""
    first_id: dict[tuple[int, ...], str] = {}
    seen: set[str] = set()
    for pid, row in zip(ids, lattice):
        if len(row) != p:
            raise ValidationError(
                f"dimension mismatch: point {pid} has {len(row)} "
                f"coordinates, expected {p}"
            )
        if pid in seen:
            raise ValidationError(f"duplicate point id {pid!r}")
        if first_id.setdefault(row, pid) != pid:
            raise ValidationError(
                f"points {first_id[row]!r} and {pid!r} share "
                "coordinates; collapse duplicates via validate_instance"
            )
        seen.add(pid)


def _collapse(counts: Mapping[tuple, int], p: int) -> OutcomeSet:
    """The one builder of sets from rows: ``counts`` maps each distinct
    row, in order of first occurrence, to how many solutions share it.
    The rows are put on their lattice (rows of ints are handed over as
    they stand) and no point is built; ``OutcomeSet`` makes the points
    when they are first read."""
    ids = tuple([f"y{k}" for k in range(1, len(counts) + 1)])
    scale, lattice = _on_lattice(tuple(counts))
    return OutcomeSet._from_lattice(
        p, ids, lattice, scale, dict(zip(ids, counts.values()))
    )


def validate_instance(
    raw_points: Iterable[Sequence], p: Optional[int] = None
) -> OutcomeSet:
    """Build an OutcomeSet from raw coordinate rows.

    Coordinates may be ints, Fractions or exact literals like "9/2";
    floats are rejected, as are fewer than two objectives, empty input
    and ragged rows.  Ints stay ints, so rows of ints are their own
    lattice.  Equal rows, however written, collapse once (see
    ``_collapse``), their count retained in ``multiplicity``.
    """
    rows = [_exact_vector(row) for row in raw_points]
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
    return _collapse(Counter(rows), p)


def dominates(a: OutcomePoint, b: OutcomePoint) -> bool:
    """Component-wise order: a <= b in every objective and a != b."""
    if len(a.coords) != len(b.coords):
        raise ValidationError(
            f"dimension mismatch: {len(a.coords)} vs {len(b.coords)} coordinates"
        )
    strict = False
    for x, y in zip(a.coords, b.coords):
        if x > y:
            return False
        if x < y:
            strict = True
    return strict


def _least_rows(
    weights: Sequence[int], rows: Sequence[tuple[int, ...]]
) -> tuple[list[int], int]:
    """The package's one weighted-sum oracle, on a set's lattice rows.

    Returns the indices of the rows of least score weights . row, in
    row order, and the lexicographically smallest of those rows; rows
    are distinct, so it is one.  Every minimality question the package
    asks reads it: the margin pass's frame (``classify``), the
    ``dichotomic`` search and ``weightspace.cell_membership``.  Integer
    weights that are a positive scaling of exact ones, on the lattice,
    give the exact weighted sum's minimizers and tie-break."""
    if len(weights) != len(rows[0]):
        raise ValidationError(
            f"weight vector has {len(weights)} components, "
            f"instance has {len(rows[0])}"
        )
    scores = [sum(map(mul, weights, row)) for row in rows]
    low = min(scores)
    ties = [k for k, s in enumerate(scores) if s == low]
    return ties, min(ties, key=rows.__getitem__)


@dataclass(frozen=True)
class ParetoFilterResult:
    """Non-dominated subset plus, for each removed point, a retained
    dominator as witness.  ``filter_nondominated`` hands ``dominated_by``
    over as a mapping that is built when first read."""

    nondominated: OutcomeSet
    dominated_by: Mapping[str, str]


def filter_nondominated(outcome_set: OutcomeSet) -> ParetoFilterResult:
    """Sort-filter-skyline Pareto filter (Chomicki et al. 2003); idempotent.

    Keeps exactly the points not dominated by any other stored point,
    in input order.  Points are visited by lattice row sum: a dominator
    has a strictly smaller sum, so it is visited first.  Each point is
    compared only with the window of kept points, which suffices because
    a dominated dominator is itself dominated by a kept point.  The
    window is held in input order.  Points are named by id and read as
    lattice rows; the subset's lattice is the kept rows over their own
    lcm, ``scale`` divided by its gcd with them.  ``dominated_by`` is
    built when first read (``_Witnesses``), so a caller that reads only
    the subset pays nothing for it.
    """
    ids = outcome_set.ids
    rows = outcome_set.lattice
    sums = list(map(sum, rows))
    window: list[int] = []
    for i in sorted(range(len(rows)), key=sums.__getitem__):
        row = rows[i]
        for k in window:
            # stored points are distinct, so <= everywhere is dominance
            if all(map(le, rows[k], row)):
                break
        else:
            insort(window, i)
    keep = tuple([ids[k] for k in window])
    kept = tuple([rows[k] for k in window])
    g = gcd(outcome_set.scale, *chain.from_iterable(kept))
    if g > 1:
        kept = tuple([tuple([v // g for v in row]) for row in kept])
    subset = OutcomeSet._from_lattice(
        outcome_set.p,
        keep,
        kept,
        outcome_set.scale // g,
        {i: outcome_set.multiplicity[i] for i in keep},
    )
    return ParetoFilterResult(
        nondominated=subset, dominated_by=_Witnesses(ids, rows, window)
    )


class _Witnesses(UserDict):
    """``dominated_by`` of one filter run, built on first read: each
    removed id, in input order, to the first kept id in input order that
    dominates it.  One exists, because a dominated dominator is itself
    dominated by a kept point."""

    def __init__(self, ids, rows, window):
        self._run = ids, rows, window

    @cached_property
    def data(self) -> dict[str, str]:
        ids, rows, window = self._run
        kept = set(window)
        return {
            ids[i]: ids[next(k for k in window if all(map(le, rows[k], row)))]
            for i, row in enumerate(rows)
            if i not in kept
        }
