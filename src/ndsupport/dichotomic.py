"""Dichotomic weighted-sum search for bi-objective extreme points.

The anchors are the oracle's minimizers for the unit weights (1, 0) and
(0, 1), one call each.  A zero-component weight may tie at points that
are not vertices, but the tied points share the weighted coordinate, so
the lexicographic tie-break picks the one smallest in the other: the
lexicographic minimum, which is the vertex.  The driver then
recursively probes the exact normal of each candidate segment.  A probe
that beats the segment value exposes a new vertex; a probe that
matches it certifies the segment as an edge.

The weighted-sum oracle breaks ties lexicographically, which keeps the
recursion deterministic and vertex-directed.  It scores the set's
integer lattice with integer weights, both positive scalings of the
exact values by ``ratlp._scale``, so its argmin and tie-break are those
of the exact weighted sum; the chain check below reads the same
lattice, on which every point lies on the same side of every edge line
as its exact coordinates do.  All weights are exact segment normals, so no
tolerance enters anywhere.  The result carries one certifying weight per
extreme: an interior vertex gets the average of its two adjacent
segment normals (strictly positive, uniquely optimal there); the
outermost vertices blend their single adjacent normal with the
matching unit weight.  One exact sweep over the set checks the chain
and every witness at once (``_check_chain``).

The search runs over the non-dominated subset Y_N only.  Under a weight
lam >= 0 a dominated point scores at or above the point that dominates
it, which is lexicographically smaller, so the oracle's lexicographic
minimizer is never dominated and every probe returns what it would over
the whole set; for the same reason a chain certified over Y_N is
certified over the whole set.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .classify import WeightVector
from .errors import ConsistencyError, ValidationError
from .outcomes import OutcomePoint, OutcomeSet, filter_nondominated
from .ratlp import _scale

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class DichotomicResult:
    """All extreme supported points of a bi-objective set.

    Extremes are ordered by increasing first coordinate (hence strictly
    decreasing second); consecutive extremes span edges of strictly
    increasing slope.  oracle_calls counts the two anchor computations
    plus every probe of the weighted-sum oracle.
    """

    extremes: tuple[OutcomePoint, ...]
    witness_weights: tuple[WeightVector, ...]
    oracle_calls: int

    def __post_init__(self):
        if len(self.extremes) != len(self.witness_weights):
            raise ValidationError("one witness weight per extreme required")
        for a, b in zip(self.extremes, self.extremes[1:]):
            if not (a.coords[0] < b.coords[0] and a.coords[1] > b.coords[1]):
                raise ValidationError("extremes must strictly descend the staircase")


def weighted_sum_argmin(lam: WeightVector, outcome_set: OutcomeSet) -> OutcomePoint:
    """Minimizer of the weighted sum; ties break to the lexicographically
    smallest coordinate vector.  Works for any number of objectives."""
    if len(lam) != outcome_set.p:
        raise ValidationError(
            f"weight vector has {len(lam)} components, instance has {outcome_set.p}"
        )
    _, weights = _scale(lam.values)
    rows = outcome_set.lattice
    scores = [sum(map(mul, weights, row)) for row in rows]
    low = min(scores)
    best = min((k for k, s in enumerate(scores) if s == low), key=rows.__getitem__)
    return outcome_set.points[best]


def _segment_normal(a: OutcomePoint, b: OutcomePoint) -> WeightVector:
    """Exact inward normal of the segment from a to b, normalized to sum 1."""
    d1 = a.coords[1] - b.coords[1]
    d2 = b.coords[0] - a.coords[0]
    total = d1 + d2
    return WeightVector((d1 / total, d2 / total))


def _average(u: WeightVector, v: WeightVector) -> WeightVector:
    return WeightVector(tuple((a + b) * _HALF for a, b in zip(u, v)))


def _probe(
    outcome_set: OutcomeSet, a: OutcomePoint, b: OutcomePoint, calls: list[int]
) -> list[OutcomePoint]:
    """Extremes strictly between a and b, in coordinate order; adds one
    to calls[0] per oracle call.  A module-level function rather than a
    closure: a recursive closure refers to itself through its cell, and
    that cycle would keep the outcome set alive until a full collection."""
    lam = _segment_normal(a, b)
    calls[0] += 1
    c = weighted_sum_argmin(lam, outcome_set)
    if lam.dot(c.coords) == lam.dot(a.coords):
        return []
    return _probe(outcome_set, a, c, calls) + [c] + _probe(outcome_set, c, b, calls)


def _check_chain(
    outcome_set: OutcomeSet,
    extremes: list[OutcomePoint],
    witnesses: list[WeightVector],
) -> None:
    """Certify every witness in one exact sweep over the set.

    Checked, with e_0 .. e_{k-1} the chain: (a) no point has a first
    coordinate below e_0's; (b) none has a second coordinate below
    e_{k-1}'s; (c) the chain strictly descends and its edge slopes
    strictly increase; (d) each point lies on or above the one edge
    whose first-coordinate range [x_i, x_{i+1}) holds it.  A convex
    chain lies above every extended edge line, so (a)-(d) give
    n . y >= n . e for each edge normal n, each of its ends e and every
    point y, and likewise for the unit normals (1, 0) at e_0 and (0, 1)
    at e_{k-1}.  Each witness must be the average of the two normals
    next to its extreme, so it makes that extreme weighted-sum minimal:
    O(n log k) work instead of one pass over the set per extreme.
    ``dichotomic_extremes`` passes Y_N: a dominated point scores at or
    above its dominator under every normal, so it needs no check.
    """
    # The set's lattice is one int frame: (X, Y) = (x, y) * S.
    lattice = outcome_set.lattice_by_id
    xs, ys = zip(*[lattice[e.id] for e in extremes])
    # The normals around each extreme: the unit weights at the two ends,
    # the exact edge normals in between.
    normals = [(Fraction(1), Fraction(0))]
    edges = []  # per edge (A, B, C): A X + B Y >= C on the lattice
    for i, (e, f) in enumerate(zip(extremes, extremes[1:])):
        a, b = ys[i] - ys[i + 1], xs[i + 1] - xs[i]
        if not (a > 0 and b > 0):
            raise ConsistencyError(
                f"extremes {e.id} and {f.id} do not descend the staircase"
            )
        if edges and a * edges[-1][1] >= b * edges[-1][0]:
            raise ConsistencyError(f"edge slopes do not strictly increase at {e.id}")
        normals.append((Fraction(a, a + b), Fraction(b, a + b)))
        edges.append((a, b, a * xs[i] + b * ys[i]))
    normals.append((Fraction(0), Fraction(1)))
    for e, lam, u, v in zip(extremes, witnesses, normals, normals[1:]):
        if 2 * lam[0] != u[0] + v[0] or 2 * lam[1] != u[1] + v[1]:
            raise ConsistencyError(
                f"witness {tuple(lam)} of {e.id} is not the average of its "
                "neighbouring normals"
            )
    k = len(extremes)
    for pid, (x, y) in zip(outcome_set.ids, outcome_set.lattice):
        i = bisect_right(xs, x)
        if i == 0:
            raise ConsistencyError(
                f"{pid} lies left of the left anchor {extremes[0].id}"
            )
        if i == k:  # right of the chain; above an edge, (d) implies (b)
            if y < ys[-1]:
                raise ConsistencyError(
                    f"{pid} lies below the right anchor {extremes[-1].id}"
                )
            continue
        a, b, c = edges[i - 1]
        if a * x + b * y < c:
            raise ConsistencyError(
                f"{pid} lies below the edge from {extremes[i - 1].id} "
                f"to {extremes[i].id}"
            )


def dichotomic_extremes(outcome_set: OutcomeSet) -> DichotomicResult:
    """Exact set of extreme supported points of a bi-objective set."""
    if outcome_set.p != 2:
        raise ValidationError(
            f"dichotomic search requires exactly two objectives, got {outcome_set.p}"
        )
    outcome_set = filter_nondominated(outcome_set).nondominated
    calls = [2]  # the two anchor computations
    first, second = WeightVector((1, 0)), WeightVector((0, 1))
    left = weighted_sum_argmin(first, outcome_set)
    right = weighted_sum_argmin(second, outcome_set)
    extremes = [left]
    if left.id != right.id:
        extremes += _probe(outcome_set, left, right, calls) + [right]
    normals = (
        [first]
        + [_segment_normal(a, b) for a, b in zip(extremes, extremes[1:])]
        + [second]
    )
    witnesses = [_average(u, v) for u, v in zip(normals, normals[1:])]
    _check_chain(outcome_set, extremes, witnesses)
    return DichotomicResult(
        extremes=tuple(extremes),
        witness_weights=tuple(witnesses),
        oracle_calls=calls[0],
    )
