"""Weight-space cells and the projected decomposition of the simplex.

For a non-dominated point y, its cell is the set of normalized
nonnegative weights under which y is weighted-sum minimal over the
whole non-dominated set.  It is nonempty exactly when y is on the
boundary of the upper image and full-dimensional exactly at a vertex,
so y's margin (``classify._margin``) decides it.  As in ``classify``,
the private functions name y by its index into the non-dominated set.
A cell keeps the unsolved int rows of y's witness program,
``classify._cell_program``, each S times an exact row; its exact
half-spaces over the full weight space are those rows without t,
divided by S.  For three objectives the cell is also projected to the
first two weight coordinates and its polygon vertices are enumerated
exactly.

The polygon is the projected simplex triangle clipped by one
half-plane at a time (Sutherland & Hodgman 1974), in ints: the clip
reads the int rows as they stand, and each vertex is a homogeneous
triple (X, Y, W) for (X/W, Y/W), with W > 0 and no common factor, so
equal points are equal triples.  A clip keeps the vertices with side
value >= 0 in ring order and puts the crossing of every edge whose
ends lie strictly on opposite sides between those ends; a row that
holds on the whole ring is skipped.  The ring it leaves is the cell's
boundary, counter-clockwise with no repeated vertex and no three
collinear: it starts as the counter-clockwise triangle, a strict
crossing lies inside its edge and so is a new point, and the kept
points on the clip line are one point or one edge, since a line meets
a convex polygon's boundary in one point or one segment.  The one
repeat is a segment the line crosses strictly: its two edges u -> v
and v -> u cross at the same point, which is added once.  The ring is
returned from its lexicographically smallest vertex.  That is robust
against redundant half-spaces (which are retained, not minimized) and
returns degenerate cells - segments or single points, the signature of
weakly-supported-only points - rather than dropping them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .classify import WeightVector, _cell_program, _index, _margin_over_others, _margin_pass
from .errors import ValidationError
from .outcomes import OutcomePoint, OutcomeSet, _least_rows, filter_nondominated
from .ratlp import EQUAL, LinearConstraint, _scale

Point2 = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class WeightCell:
    """One cell as its program's rows, each ``scale`` times an exact row
    with column t last, plus projected vertices for p = 3.

    Projected vertices live in (l1, l2) with l3 = 1 - l1 - l2 and are
    listed counter-clockwise without repetition, from the
    lexicographically smallest.  They are present
    exactly when p = 3.  The rows may contain redundant half-spaces;
    ``hrep`` is their ``Fraction`` view, built on each access.
    """

    point_id: str
    rows: tuple[LinearConstraint, ...]
    scale: int
    projected_vertices: Optional[tuple[Point2, ...]]
    is_full_dimensional: bool
    is_empty: bool

    @property
    def hrep(self) -> tuple[LinearConstraint, ...]:
        """Each row without t, over ``scale``, in ``Fraction``s."""
        s = self.scale
        return tuple(
            LinearConstraint(
                tuple([Fraction(v, s) for v in con.coeffs[:-1]]),
                con.relation,
                Fraction(con.rhs, s),
            )
            for con in self.rows
        )


def _projected_vertices(rows) -> tuple[Point2, ...]:
    """Vertices of a p = 3 cell in (l1, l2) from its program's int rows
    (column t is not read): the clipped ring, counter-clockwise from its
    lexicographically smallest vertex, or () for an empty cell."""
    polygon = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    for con in rows:
        if con.relation == EQUAL:
            continue  # the simplex equality is implicit after substitution
        c1, c2, c3, _ = con.coeffs
        a, b, c = c1 - c3, c2 - c3, con.rhs - c3  # l3 = 1 - l1 - l2 substituted
        ring = [(v, a * v[0] + b * v[1] - c * v[2]) for v in polygon]
        if all(s >= 0 for _, s in ring):
            continue  # the row holds on the whole polygon
        clipped = []
        for (q, sq), (r, sr) in zip(ring, ring[1:] + ring[:1]):
            if sq >= 0:
                clipped.append(q)
            if sq * sr < 0:
                x, y, w = (sq * rv - sr * qv for qv, rv in zip(q, r))
                g = gcd(x, y, w) if w > 0 else -gcd(x, y, w)
                crossing = (x // g, y // g, w // g)
                if crossing not in clipped:  # a segment's two edges cross at one point
                    clipped.append(crossing)
        polygon = clipped
    if not polygon:
        return ()
    ring = [(Fraction(x, w), Fraction(y, w)) for x, y, w in polygon]
    k = ring.index(min(ring))
    return tuple(ring[k:] + ring[:k])


def _cell(k: int, yn: OutcomeSet, margin) -> WeightCell:
    """The cell of yn's point k from its margin over the other points:
    None (a vertex) gives a full-dimensional cell, 0 (on the boundary) a
    degenerate one, and a positive margin (interior) an empty one."""
    rows = _cell_program(k, yn, yn.lattice).constraints
    vertices = None
    if yn.p == 3:
        vertices = () if margin else _projected_vertices(rows)
    return WeightCell(
        point_id=yn.ids[k],
        rows=rows,
        scale=yn.scale,
        projected_vertices=vertices,
        is_full_dimensional=margin is None,
        is_empty=bool(margin),
    )


def weight_cell(y: OutcomePoint, yn: OutcomeSet) -> WeightCell:
    """The cell of weights under which y is weighted-sum minimal.

    Emptiness and full dimension are read off y's margin program over
    the other points of yn; the rows of y's witness program without t,
    over S, are the H-representation (redundant half-spaces retained).
    The cell is empty exactly when y is unsupported.
    """
    k = _index(y, yn)
    return _cell(k, yn, _margin_over_others(k, yn))


def decompose(outcome_set: OutcomeSet) -> list[WeightCell]:
    """One cell per weakly supported non-dominated point.

    Cells of distinct points have disjoint interiors relative to the
    simplex, and together the cells cover the whole closed simplex.
    Degenerate (lower-dimensional) cells are included: they belong to
    the weakly-supported-only points.  The margins come from the pass
    ``classify_all`` runs over its frame of vertices: None exactly at a
    vertex, 0 exactly at a boundary point that is no vertex, and > 0
    (possibly below the full-width margin) in the interior, so each
    cell's verdict is read off the margin's sign.
    """
    yn = filter_nondominated(outcome_set).nondominated
    return [_cell(k, yn, m) for k, m in enumerate(_margin_pass(yn)) if not m]


def cell_membership(
    lam: WeightVector, outcome_set: OutcomeSet
) -> tuple[str, tuple[str, ...]]:
    """Minimizing point id under lam, plus the full tie set.

    The tie set ranges over all stored points; the returned winner is
    the lexicographically smallest non-dominated minimizer, so its
    weight cell is guaranteed to contain lam.  Both are read off the
    lattice by the one weighted-sum oracle, ``outcomes._least_rows``,
    so no point is built.
    """
    # No Pareto filter needed: a point dominating the lexicographically
    # smallest minimizer would, as lam >= 0, also minimize and be
    # lexicographically smaller.
    _, weights = _scale(lam.values)
    ties, winner = _least_rows(weights, outcome_set.lattice)
    ids = outcome_set.ids
    return ids[winner], tuple([ids[k] for k in ties])


def cell_interval(cell: WeightCell) -> Optional[tuple[Fraction, Fraction]]:
    """For p = 2: the cell as a closed interval in l1 (l2 = 1 - l1).

    Returns None for empty cells.  Intervals of neighbouring cells tile
    [0, 1], overlapping exactly at shared endpoints.  Bounds are read
    off the int rows, S times exact ones; S cancels in each ratio.
    """
    if cell.is_empty:
        return None
    lo, hi = Fraction(0), Fraction(1)
    for con in cell.rows:
        if con.relation == EQUAL:
            continue
        if len(con.coeffs) != 3:
            raise ValidationError("cell_interval applies to two objectives only")
        a, b, _ = con.coeffs
        slope = a - b  # substitute l2 = 1 - l1 into a*l1 + b*l2 >= rhs
        if slope == 0:
            continue  # vacuous or infeasible rows cannot occur in nonempty cells
        bound = Fraction(con.rhs - b, slope)
        if slope > 0:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    return lo, hi
