"""Outcome-space data model, component-wise order and Pareto filtering.

Minimization convention throughout: smaller is better in every
objective.  One builder, ``_collapse``, makes every set built from
rows: each distinct row becomes a point ``y1, y2, ...`` in order of
first occurrence, and the number of solutions sharing that image
becomes its multiplicity.  Enumerated rows hold ints with few distinct
values, and each value becomes one ``Fraction``, built once.

Each set also has an integer view, its ``lattice``: every coordinate
scaled to an int by ``ratlp._scale``.  A positive scaling keeps equality,
dominance, weighted-sum order and lexicographic order, so the
distinctness check at construction, the Pareto filter here and the
weighted-sum oracle in ``dichotomic`` run on ints; certificates read
the exact coordinates.  Everything here is immutable and pure, so
concurrent reads are safe.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import islice
from operator import le
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ValidationError
from .ratlp import _scale, rational


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


@dataclass(frozen=True)
class OutcomeSet:
    """A validated, deduplicated, nonempty finite set of outcome points.

    ``lattice`` holds each point's coordinates times ``scale``, the lcm
    of their denominators, as ints, in point order; ``lattice_by_id``
    maps a point's id to its row.  Equal rows are equal coordinates, so
    the lattice is the distinctness key.  ``_lattice``, passed by
    ``_collapse`` only, is the lattice when the rows already are it: int
    tuples, at scale 1."""

    p: int
    points: tuple[OutcomePoint, ...]
    multiplicity: Mapping[str, int] = field(default_factory=dict)
    _by_id: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    lattice: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    lattice_by_id: Mapping[str, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    scale: int = field(init=False, repr=False, compare=False)
    _lattice: InitVar[Optional[tuple[tuple[int, ...], ...]]] = None

    def __post_init__(self, _lattice):
        if not _is_int(self.p):
            raise ValidationError(f"objectives must be an integer, got {self.p!r}")
        if self.p < 2:
            raise ValidationError("bi-objective minimum violated: need p >= 2")
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValidationError("empty outcome set")
        scale = 1
        if _lattice is None:
            scale, ints = _scale([c for pt in self.points for c in pt.coords])
            ints = iter(ints)
            _lattice = tuple(tuple(islice(ints, len(pt.coords))) for pt in self.points)
        object.__setattr__(self, "lattice", _lattice)
        object.__setattr__(self, "scale", scale)
        first_id: dict[tuple[int, ...], str] = {}
        index: dict[str, OutcomePoint] = {}
        rows: dict[str, tuple[int, ...]] = {}
        for pt, row in zip(self.points, self.lattice):
            if len(pt.coords) != self.p:
                raise ValidationError(
                    f"dimension mismatch: point {pt.id} has {len(pt.coords)} "
                    f"coordinates, expected {self.p}"
                )
            if pt.id in index:
                raise ValidationError(f"duplicate point id {pt.id!r}")
            if first_id.setdefault(row, pt.id) != pt.id:
                raise ValidationError(
                    f"points {first_id[row]!r} and {pt.id!r} share "
                    "coordinates; collapse duplicates via validate_instance"
                )
            index[pt.id] = pt
            rows[pt.id] = row
        mult = {pt.id: int(self.multiplicity.get(pt.id, 1)) for pt in self.points}
        object.__setattr__(self, "multiplicity", mult)
        object.__setattr__(self, "_by_id", index)
        object.__setattr__(self, "lattice_by_id", rows)

    def __len__(self) -> int:
        return len(self.points)

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


class _Interned(dict):
    """One ``Fraction`` per distinct int, made on first lookup."""

    def __missing__(self, value: int) -> Fraction:
        exact = self[value] = Fraction(value)
        return exact


def _collapse(counts: Mapping[tuple, int], p: int) -> OutcomeSet:
    """The one builder of sets from rows: ``counts`` maps each distinct
    row, in order of first occurrence, to how many solutions share it.
    Each distinct int coordinate becomes one ``Fraction``, shared by
    every coordinate that holds it; ``Fraction``s pass through unhashed.
    Rows of ints are their own lattice, so it is handed over, not rebuilt."""
    points, multiplicity = [], {}
    interned = _Interned()
    for row, count in counts.items():
        pid = f"y{len(points) + 1}"
        exact = tuple([interned[c] if type(c) is int else c for c in row])
        points.append(OutcomePoint(pid, exact))
        multiplicity[pid] = count
    ints = all(type(c) is int for row in counts for c in row)
    return OutcomeSet(
        p=p,
        points=tuple(points),
        multiplicity=multiplicity,
        _lattice=tuple(counts) if ints else None,
    )


def validate_instance(
    raw_points: Iterable[Sequence], p: Optional[int] = None
) -> OutcomeSet:
    """Build an OutcomeSet from raw coordinate rows.

    Coordinates may be ints, Fractions or exact literals like "9/2";
    floats are rejected, as are fewer than two objectives, empty input
    and ragged rows.  Equal rows, however written, collapse once (see
    ``_collapse``), their count retained in ``multiplicity``.
    """
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


@dataclass(frozen=True)
class ParetoFilterResult:
    """Non-dominated subset plus, for each removed point, a retained
    dominator as witness."""

    nondominated: OutcomeSet
    dominated_by: Mapping[str, str]


def filter_nondominated(outcome_set: OutcomeSet) -> ParetoFilterResult:
    """Sort-filter-skyline Pareto filter (Chomicki et al. 2003); idempotent.

    Keeps exactly the points not dominated by any other stored point,
    in input order.  Points are visited by lattice row sum: a dominator
    has a strictly smaller sum, so it is visited first.  Each point is
    compared only with the window of kept points, which suffices because
    a dominated dominator is itself dominated by a kept point.  The
    window is held in input order, so a removed point's witness is the
    first kept point in input order that dominates it.
    """
    pts = outcome_set.points
    rows = outcome_set.lattice
    sums = [sum(row) for row in rows]
    window: list[int] = []
    witness: dict[int, int] = {}
    for i in sorted(range(len(rows)), key=sums.__getitem__):
        row = rows[i]
        for k in window:
            # stored points are distinct, so <= everywhere is dominance
            if all(map(le, rows[k], row)):
                witness[i] = k
                break
        else:
            insort(window, i)
    keep = [pts[k] for k in window]
    dominated_by = {pts[i].id: pts[witness[i]].id for i in sorted(witness)}
    subset = OutcomeSet(
        p=outcome_set.p,
        points=tuple(keep),
        multiplicity={pt.id: outcome_set.multiplicity[pt.id] for pt in keep},
    )
    return ParetoFilterResult(nondominated=subset, dominated_by=dominated_by)
