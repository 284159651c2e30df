"""Dichotomic weighted-sum search for bi-objective extreme points.

The driver computes the lexicographic minima for the objective orders
(1, 2) and (2, 1) as anchors - a two-stage minimization, because a
single zero-component weight may return a weighted-sum tie that is not
a vertex - and then recursively probes the exact normal of each
candidate segment.  A probe that beats the segment value exposes a new
vertex; a probe that matches it certifies the segment as an edge.

The weighted-sum oracle breaks ties lexicographically, which keeps the
recursion deterministic and vertex-directed.  It scores the set's
integer lattice with integer weights, both positive scalings of the
exact values, so its argmin and tie-break are those of the exact
weighted sum; the certificates below are checked on the coordinates
themselves.  All weights are exact segment normals, so no tolerance
enters anywhere.  The result carries one certifying weight per
extreme: an interior vertex gets the average of its two adjacent
segment normals (strictly positive, uniquely optimal there); the
outermost vertices blend their single adjacent normal with the
matching unit weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .classify import WeightVector, _check_weight_certificate
from .errors import ValidationError
from .outcomes import OutcomePoint, OutcomeSet

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
    scale = lcm(*(v.denominator for v in lam))
    weights = [v.numerator * (scale // v.denominator) for v in lam]
    rows = outcome_set.lattice
    best = min(
        range(len(rows)), key=lambda k: (sum(map(mul, weights, rows[k])), rows[k])
    )
    return outcome_set.points[best]


def _lexmin(outcome_set: OutcomeSet, order: tuple[int, int]) -> OutcomePoint:
    i, j = order
    rows = outcome_set.lattice
    best = min(range(len(rows)), key=lambda k: (rows[k][i], rows[k][j]))
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


def dichotomic_extremes(outcome_set: OutcomeSet) -> DichotomicResult:
    """Exact set of extreme supported points of a bi-objective set."""
    if outcome_set.p != 2:
        raise ValidationError(
            f"dichotomic search requires exactly two objectives, got {outcome_set.p}"
        )
    calls = [2]  # the two anchor computations
    left = _lexmin(outcome_set, (0, 1))
    right = _lexmin(outcome_set, (1, 0))
    if left.id == right.id:
        extremes = [left]
        witnesses = [WeightVector((_HALF, _HALF))]
    else:
        extremes = [left] + _probe(outcome_set, left, right, calls) + [right]
        normals = [
            _segment_normal(a, b) for a, b in zip(extremes, extremes[1:])
        ]
        witnesses = (
            [_average(WeightVector((1, 0)), normals[0])]
            + [_average(u, v) for u, v in zip(normals, normals[1:])]
            + [_average(normals[-1], WeightVector((0, 1)))]
        )
    for pt, lam in zip(extremes, witnesses):
        _check_weight_certificate(lam, pt, outcome_set)
    return DichotomicResult(
        extremes=tuple(extremes),
        witness_weights=tuple(witnesses),
        oracle_calls=calls[0],
    )
