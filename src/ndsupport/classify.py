"""Supportedness classification of non-dominated points.

Each of the competing notions of supportedness gets its own executable
test, reduced to an exact linear program:

* weighted-sum witness over the closed weight simplex (nonnegative
  weights) or its interior (strictly positive weights),
* membership in the non-dominated frontier of the convex hull,
* vertex, boundary or interior of the upper image (convex hull plus
  the nonnegative orthant cone), all read off one margin program.

``classify_all`` combines them into one labelled report and refuses to
return anything if the tests disagree where they provably must agree.
Each non-dominated record keeps the cross-check row computed while
labelling it, so a caller that needs both the labels and the verdicts
solves every program once; ``cross_check`` computes the same rows
without labelling and without raising, with every program full width.

``classify_all`` first finds every point's margin (``_margin_pass``):
maximize eps such that a convex combination of other points sits at or
below y - eps.  Over all the other points it is infeasible exactly when
y is a vertex of the upper image; otherwise eps is 0 on the boundary
and > 0 in the interior.  The pass solves each point over a frame of
vertices, visiting points by row sum, and decides each visit once.
When a point is infeasible over the frame, the program's Farkas weight
w (``ratlp._farkas``) is checked to separate the point from the frame;
when its margin is 0, its optimal weight w (``ratlp._duals``) is
checked to score it at most as high as the frame, and a point that
minimizes w over all of Y_N is a final zero.  Otherwise the
lexicographic minimizer of w over Y_N (``outcomes._least_rows``, the
package's one weighted-sum oracle) joins the frame, a vertex by the
lemma in ``_margin_pass``, and the point is solved again.  So the frame
ends as exactly the vertex set V, and each vertex and each zero rests
on a checked weight.  Every None and 0 is exact; a positive margin may
be a lower bound, which decides the same verdict.  conv(Y_N) + R^p_+ =
conv(V) + R^p_+, so frontier values over V columns are the full-width
ones.  A margin eps > 0 settles the point with no further program
(``_point_check`` says why).  A boundary point gets the frontier
program over V and its witness program over V rows.  Every point of
Y_N lies in conv(V) + R^p_+, so for lambda >= 0 the V rows imply the
other cut rows: both programs have the same feasible (lambda, t) and
the same objective.  The V-row result is kept only when the final
reduced costs prove its optimum unique, since the full-row program
then ends at the same one; otherwise Bland's rule over fewer rows may
pick a different optimal weight, which would be printed, so the
full-row program is solved instead (``_witness``).  ``cross_check``
keeps all three full-width programs for every point.
A supported point is extreme exactly when it is a vertex, and a vertex
off the frontier is a consistency failure.

Each verdict rests on an object checked exactly; no program can be
unbounded (one that is raises), so no ray is needed:

* margin > 0 (interior, unsupported, empty ``wsd`` cell): the margin
  program's primal (mu, eps) over a subset of Y_N, re-checked inside
  ``ratlp._solve`` like every optimum;
* margin program feasible over the other points (no vertex): that
  primal mu;
* margin 0 (boundary, nonempty ``wsd`` cell): the zero visit's optimal
  weight w >= 0, w != 0, which y minimizes over Y_N, so w is a weight
  in y's cell (``_certified_vertex``);
* margin program infeasible over the other points (a vertex, so
  extreme, and a full-dimensional ``wsd`` cell): the weight of the
  visit that added y to the frame, a Farkas weight or a zero visit's
  optimal weight, whose lexicographic minimizer over Y_N y is
  (``_certified_vertex``);
* witness program infeasible (``check`` only): a positive margin's
  primal, through ``boundary_equivalence_ok``;
* t > 0 (supported; frontier value S * sum(y)): the strict witness
  lambda > 0 (``_check_weight_certificate``);
* t = 0 (weakly supported only; frontier value < S * sum(y)): the
  frontier primal, a point of conv(V) at or below y other than y.

Programs with the same columns and objective that differ only in y's
row form a family (``_family_solve``): each starts from the final
dictionary of the one before, and a dual simplex finishes it
(``ratlp._solve``).  The families are the margin visits between two
growths of the frame, the frontier programs over V, and in
``cross_check`` the margin and the frontier programs over all of Y_N.
Only their optimal values and feasibility verdicts are read, and those
do not depend on the pivot path; a Farkas or optimal weight is
checked, so it need not be the one a cold solve would give.  The
witness programs, whose optimal weight is printed, are solved cold.

Strict positivity is decided by a max-min program: maximize t subject
to every weight at least t, weights summing to one, and the candidate
point weighted-sum-minimal.  Over this closed region "optimal t > 0"
is a tolerance-free stand-in for the open condition "some strictly
positive witness exists", and the optimizer at t = 0 necessarily
carries a zero weight, certifying the weakly-supported-only case.
Its rows without t, divided by S, are the H-representation of the
point's weight cell; ``weightspace`` keeps them unsolved and takes the
cell's verdicts from the margin pass.

Every program is built on the set's integer lattice (``OutcomeSet``:
each coordinate times S, the lcm of the set's denominators), so its
rows reach the kernel as ints.  A row times S > 0 keeps the
solutions, the pivots, the optimal t and the statuses; a frontier value
is S times the rational one and is compared with S times sum(y), and a
boundary margin is zero on either scale.  The weight certificate reads
the lattice too: ``_check_weight_certificate`` scales the witness once
to ints and dots it with the lattice rows, and both scales are > 0, so
every comparison is the exact one.

Inside the module a point of Y_N is named by its index k into yn (id
``yn.ids[k]``, row ``yn.lattice[k]``) and programs take lattice rows,
so V is held once, as rows, and labelling builds no ``OutcomePoint``;
a public function finds its point's index once (``_index``).

A dominated point gets a constant label with no witness.  ``classify_all``
still makes it a record; the CLI's report does not: it keeps the
records of ``_classify_nondominated``, Y_N's only, and writes each
dominated row from the point's id, lattice row and multiplicity.

All functions are pure.  Once the margin pass has fixed V, the
per-point tests are independent of each other: a family changes how a
program is solved, not its result, so they are safe to evaluate
concurrently with one family per worker.  The margin pass itself is
sequential, since each program reads the frame the earlier ones built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .errors import ConsistencyError, ValidationError
from .outcomes import OutcomePoint, OutcomeSet, _least_rows, filter_nondominated
from .ratlp import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    LinearConstraint,
    LinearProgram,
    LpOutcome,
    MAXIMIZE,
    MINIMIZE,
    OPTIMAL,
    UNBOUNDED,
    _duals,
    _farkas,
    _scale,
    _solve,
    _unique_optimum,
    lp_solve,
    rational,
)


@dataclass(frozen=True)
class WeightVector:
    """A normalized weighting vector: nonnegative entries summing to 1."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(rational(v) for v in self.values))
        if not self.values:
            raise ValidationError("empty weight vector")
        if any(v < 0 for v in self.values):
            raise ValidationError(f"negative weight component in {self.values}")
        if sum(self.values) != 1:
            raise ValidationError(f"weights must sum to 1 exactly, got {self.values}")

    @property
    def strictly_positive(self) -> bool:
        """Membership in the interior of the weight simplex."""
        return all(v > 0 for v in self.values)

    def dot(self, coords) -> Fraction:
        """Exact weighted sum."""
        if len(coords) != len(self.values):
            raise ValidationError("weight/point dimension mismatch")
        return sum(map(mul, self.values, coords))

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


def barycenter(p: int) -> WeightVector:
    return WeightVector((Fraction(1, p),) * p)


class Label(enum.Enum):
    DOMINATED = "dominated"
    UNSUPPORTED = "unsupported"
    WEAKLY_SUPPORTED_ONLY = "weakly-supported-only"
    SUPPORTED = "supported"
    EXTREME_SUPPORTED = "extreme-supported"


@dataclass(frozen=True)
class Classification:
    """Per-point label record with the LP witnesses that justify it.

    The frontier/boundary flags are computed by the geometry tests and
    are meaningful for non-dominated points; dominated rows carry False.
    ``check`` is the point's cross-check row, None for dominated rows.
    """

    point_id: str
    label: Label
    weak_witness: Optional[WeightVector]
    strict_witness: Optional[WeightVector]
    frontier: bool
    boundary: bool
    check: Optional[PointCheck] = None

    def __post_init__(self):
        label = self.label
        if label == Label.EXTREME_SUPPORTED:
            if self.strict_witness is None or not self.strict_witness.strictly_positive:
                raise ValidationError(
                    f"{self.point_id}: extreme-supported requires a strictly "
                    "positive witness"
                )
        if label in (Label.SUPPORTED, Label.EXTREME_SUPPORTED):
            if not (self.frontier and self.boundary):
                raise ValidationError(
                    f"{self.point_id}: supported labels require frontier and boundary"
                )
        if label == Label.WEAKLY_SUPPORTED_ONLY:
            if (
                self.weak_witness is None
                or all(v > 0 for v in self.weak_witness)
                or not self.boundary
                or self.frontier
            ):
                raise ValidationError(
                    f"{self.point_id}: weakly-supported-only requires a witness "
                    "with a zero component, boundary membership and no frontier"
                )
        if label == Label.UNSUPPORTED:
            if self.boundary or self.frontier or self.weak_witness or self.strict_witness:
                raise ValidationError(
                    f"{self.point_id}: unsupported points admit no witness and "
                    "lie off boundary and frontier"
                )


def _index(y: OutcomePoint, yn: OutcomeSet) -> int:
    """y's position in yn, which the private functions name it by."""
    if y not in yn:
        raise ValidationError(
            f"point {y.id!r} with coords {y.coords} is not in the given set"
        )
    return yn.ids.index(y.id)


def _cell_program(k: int, yn: OutcomeSet, rows) -> LinearProgram:
    """The witness program of yn's point k over rows, lattice rows of
    yn, with one more column t:

        maximize t  s.t.  lambda_i - t >= 0  (i = 1..p),  sum(lambda) = 1,
        lambda . (y' - y) >= 0  for every other y' of rows,

    in that row order, over lambda, t >= 0.  Every row is built as S
    times the row above, S = yn.scale, so the program is all ints and
    its rows without t, divided by S, are the cell's H-representation.
    The cuts skip y's own row, the one equal to it: a set's rows are
    distinct.  t = 0 gives the cell, so the program is feasible exactly when
    y is weakly supported over rows, and its first p + 1 rows bound
    t <= 1/p.  A positive optimum is a strictly positive weight in the
    cell: y is supported."""
    p = yn.p
    scale = yn.scale
    cons = []
    for i in range(p):
        coeffs = [0] * (p + 1)
        coeffs[i] = scale
        coeffs[p] = -scale
        cons.append(LinearConstraint(coeffs, GREATER_EQUAL, 0))
    cons.append(LinearConstraint((scale,) * p + (0,), EQUAL, scale))
    base = yn.lattice[k]
    for row in rows:
        if row == base:
            continue
        diff = tuple([o - a for o, a in zip(row, base)]) + (0,)
        cons.append(LinearConstraint(diff, GREATER_EQUAL, 0))
    return LinearProgram(MAXIMIZE, (0,) * p + (1,), tuple(cons))


def _witness(
    k: int, yn: OutcomeSet, rows
) -> Optional[tuple[WeightVector, Fraction]]:
    """The weight vector and optimal t of point k's witness program over
    all of yn's rows, or None if no weight in the closed simplex makes
    it weighted-sum minimal; the certificate is checked over all of yn.

    rows are yn's lattice rows or V's.  Every point of yn lies in
    conv(V) + R^p_+, so with lambda >= 0 the V rows imply every other
    cut row: both programs have the same feasible (lambda, t) and the
    same objective.  A unique optimum over V rows is therefore the
    full-row optimum, which the full-row solve must return.  When the
    final reduced costs do not prove it unique, Bland's rule over fewer
    rows may end at another optimal vertex, so the full-row program is
    solved instead.  An infeasible V-row program means the full-row one
    is infeasible too."""
    outcome, tab, r = _solve(_cell_program(k, yn, rows))
    if (
        len(rows) < len(yn.lattice)
        and outcome.status == OPTIMAL
        and not _unique_optimum(tab, r)
    ):
        outcome = lp_solve(_cell_program(k, yn, yn.lattice))
    if outcome.status != OPTIMAL:
        return None
    lam = WeightVector(outcome.solution[: yn.p])
    _check_weight_certificate(lam, k, yn)
    return lam, outcome.value


def _check_weight_certificate(lam: WeightVector, k: int, yn: OutcomeSet) -> None:
    """Certificates are checked, never trusted: the witness must make
    point k a weighted-sum minimizer over the whole set, exactly.  lam
    is scaled once to ints and dotted with the lattice rows; both scales
    are > 0, so every comparison is the exact one."""
    _, weights = _scale(lam.values)
    rows = yn.lattice
    score = sum(map(mul, weights, rows[k]))
    for pid, row in zip(yn.ids, rows):
        if sum(map(mul, weights, row)) < score:
            raise ConsistencyError(
                f"witness {tuple(lam)} fails its certificate: "
                f"{pid} scores below {yn.ids[k]}"
            )


def weakly_supported_witness(
    y: OutcomePoint, yn: OutcomeSet
) -> Optional[WeightVector]:
    """Some nonnegative normalized weight making y weighted-sum minimal
    over yn, or None (then y is unsupported).  yn must be an antichain
    containing y."""
    solved = _witness(_index(y, yn), yn, yn.lattice)
    return None if solved is None else solved[0]


def supported_witness(y: OutcomePoint, yn: OutcomeSet) -> Optional[WeightVector]:
    """A strictly positive witness for y, or None when the best
    attainable minimum weight component is exactly zero (or no witness
    exists at all)."""
    solved = _witness(_index(y, yn), yn, yn.lattice)
    if solved is None:
        return None
    lam, t = solved
    return lam if t > 0 else None


def _below_program(
    y: tuple[int, ...], cols, sense: str, costs, margin: bool = False
) -> LinearProgram:
    """Convex weights mu over the lattice rows cols whose combination
    sits at or below y's row in every coordinate, optimizing costs . mu.
    With a margin, one more column eps (objective coefficient 1) is
    subtracted from y in every coordinate as well."""
    pad = (1,) if margin else ()
    cons = [LinearConstraint((1,) * len(cols) + (0,) * len(pad), EQUAL, 1)]
    for bound, coeffs in zip(y, zip(*cols)):
        cons.append(LinearConstraint(coeffs + pad, LESS_EQUAL, bound))
    return LinearProgram(sense, tuple(costs) + pad, tuple(cons))


def _family_solve(program: LinearProgram, family: Optional[list]) -> LpOutcome:
    """program's outcome, cold with no family.  A family is a list that
    holds the final (dictionary, reduced costs) of the last program
    solved in it, every one with program's columns and objective: the
    solve starts from it (``ratlp._solve``) and leaves its own there,
    an infeasible one included: ``_margin_pass`` reads its Farkas
    weight from it."""
    if family is None:
        return lp_solve(program)
    outcome, tab, r = _solve(program, family[0] if family else None)
    family[:] = [(tab, r)]
    return outcome


def _on_frontier(y: tuple[int, ...], cols, family: Optional[list] = None) -> bool:
    costs = [sum(col) for col in cols]
    outcome = _family_solve(_below_program(y, cols, MINIMIZE, costs), family)
    if outcome.status != OPTIMAL:
        raise ConsistencyError("frontier program is always feasible and bounded")
    return outcome.value == sum(y)


def _margin(
    y: tuple[int, ...], cols, family: Optional[list] = None
) -> Optional[Fraction]:
    """The optimal eps of y's margin program over cols, or None when no
    convex combination of cols sits at or below y."""
    program = _below_program(y, cols, MAXIMIZE, (0,) * len(cols), margin=True)
    outcome = _family_solve(program, family)
    if outcome.status == UNBOUNDED:
        raise ConsistencyError("margin program is always bounded")
    return outcome.value


def is_on_frontier(y: OutcomePoint, yn: OutcomeSet) -> bool:
    """Is y on the non-dominated frontier of conv(yn)?

    Minimizes the coordinate sum of points of conv(yn) lying
    component-wise at or below y; the minimum equals sum(y) exactly
    when no convex combination other than y itself sits weakly below y.
    """
    return _on_frontier(yn.lattice[_index(y, yn)], yn.lattice)


def is_on_boundary_upper_image(y: OutcomePoint, yn: OutcomeSet) -> bool:
    """Is y on the boundary of conv(yn) + nonnegative orthant?

    Maximizes the radius eps by which a convex combination can sit
    below y in every coordinate simultaneously.  A positive optimum
    exhibits a ball around y inside the upper image (interior); an
    optimum of exactly zero puts y on the boundary.
    """
    return _margin(yn.lattice[_index(y, yn)], yn.lattice) == 0


def is_extreme_supported(y: OutcomePoint, yn: OutcomeSet) -> bool:
    """Is y a vertex of the upper image?

    True exactly when y cannot be written as a convex combination of
    the other points pushed down by the nonnegative cone, i.e. the
    system over weights mu on yn minus y is infeasible.
    """
    return _margin_over_others(_index(y, yn), yn) is None


def _margin_over_others(k: int, yn: OutcomeSet) -> Optional[Fraction]:
    """Point k's margin over every other point of yn: None exactly at a
    vertex of the upper image."""
    rows = yn.lattice
    return _margin(rows[k], rows[:k] + rows[k + 1 :])


def _margin_pass(yn: OutcomeSet) -> list[Optional[Fraction]]:
    """Each point's margin, in yn's order: None exactly for a vertex of
    the upper image, 0 exactly for a boundary point that is no vertex,
    and for an interior point a positive lower bound on its full-width
    margin.

    A frame C of vertices (Dula & Helgason 1996; Dula & Lopez 2012)
    replaces the full columns.  It starts as the lexicographically
    smallest row-sum minimizer.  Points are visited by lattice row sum,
    ties in yn's order; a member of C is skipped, and every other point
    y is solved over C.  A positive margin over C is a margin over a
    subset of yn, a lower bound on the full-width one, and final.  The
    other two endings each give a weight w on the program's p
    coordinate rows, checked in ints (``_certified_vertex``):

    * Infeasible: the Farkas multipliers (``ratlp._farkas``) give
      w >= 0, w != 0, with w . y < w . c for every c in C.
    * Margin 0: the optimal multipliers (``ratlp._duals``) give w >= 0,
      w != 0, with w . y <= w . c for every c in C, since the dual
      optimum is the margin, 0.  If y minimizes w over all of Y_N, y is
      on the boundary of the upper image, and feasible over C, so no
      vertex: the zero is final, and w is a weight in y's cell.

    Otherwise the smallest row z of all of Y_N in the order
    (w . row, row) joins C.  For every c in C, w . z <= w . y < w . c
    after an infeasible visit and w . z < w . y <= w . c after a zero,
    so z is not in C already, which is checked too.  If z is not y, y
    is solved again over the grown C.  Each visit thus ends final:
    None, a checked zero, or a positive lower bound.

    Each z is a vertex.  Say z = sum(l_k q_k) + r, with l a convex
    weight, every l_k > 0, each q_k a point of Y_N other than z, and
    r >= 0.  As w >= 0 and z minimizes w . row over Y_N,
    w . z = sum(l_k w . q_k) + w . r >= w . z, so every q_k minimizes
    it too and comes after z in the lexicographic order.  Then
    q_k1 >= z_1 for each k, and z_1 = sum(l_k q_k1) + r_1 forces
    q_k1 = z_1; so q_k2 >= z_2, forced equal the same way, and so on to
    q_k = z, which no q_k is.  So C holds vertices only.  A vertex is
    infeasible over any set of other points, so each visit of one adds
    a vertex to C until it is the one added.  After the last visit C
    is exactly V, in join order, and conv(C) + R^p_+ is the upper
    image.
    """
    lattice = yn.lattice
    margins: list[Optional[Fraction]] = [None] * len(lattice)
    frame = [_least_rows((1,) * yn.p, lattice)[1]]
    visits: list = []
    for i in sorted(range(len(lattice)), key=lambda i: sum(lattice[i])):
        y = lattice[i]
        while i not in frame:
            cols = [lattice[c] for c in frame]
            margins[i] = margin = _margin(y, cols, visits)
            if margin:
                break
            z = _certified_vertex(y, cols, lattice, visits[0], margin)
            if z is None:
                break
            frame.append(z)
            visits = []
    return margins


def _certified_vertex(y, cols, lattice, ending, margin) -> Optional[int]:
    """What y's margin program over the frame's rows cols proves, read
    off its ending: None when its margin is a final zero, else the
    index in lattice of a vertex to join the frame.  margin is the
    program's, None when it is infeasible and 0 at a zero optimum.  The
    weight w on its coordinate rows is the Farkas multipliers of an
    infeasible ending and the optimal ones of a zero, and must be >= 0
    and nonzero.  A zero is final when y minimizes w over lattice.
    Otherwise the vertex is w's lexicographic minimizer, which must not
    be in cols, and w must score every c of cols above y: strictly
    after an infeasible visit, at least as high after a zero.  All of
    it is checked in ints."""
    name = "Farkas weight" if margin is None else "Optimal weight"
    w = (_farkas if margin is None else _duals)(*ending)[1:]
    if min(w) < 0 or not any(w):
        raise ConsistencyError(f"{name} {w} of {y} is not a nonzero weight >= 0")
    z = _least_rows(w, lattice)[1]
    score = sum(map(mul, w, y))
    if margin is not None and sum(map(mul, w, lattice[z])) == score:
        return None
    if lattice[z] in cols:
        raise ConsistencyError(
            f"{name} {w} of {y} is minimized by the frame's {lattice[z]}"
        )
    # A visit over the frame must score y strictly below it when
    # infeasible, and at most as high when its margin is 0.
    if any(sum(map(mul, w, c)) < score + (margin is None) for c in cols):
        raise ConsistencyError(f"{name} {w} does not separate {y} from {cols}")
    return z


@dataclass(frozen=True)
class PointCheck:
    """Cross-check row: the two sides of each proven equivalence."""

    point_id: str
    weakly_supported: bool
    on_boundary: bool
    supported: bool
    on_frontier: bool
    boundary_equivalence_ok: bool
    frontier_equivalence_ok: bool
    biobjective_collapse_ok: Optional[bool]  # None unless p == 2

    @property
    def ok(self) -> bool:
        return (
            self.boundary_equivalence_ok
            and self.frontier_equivalence_ok
            and self.biobjective_collapse_ok is not False
        )


@dataclass(frozen=True)
class CrossCheckReport:
    p: int
    checks: tuple[PointCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _point_check(
    k: int, yn: OutcomeSet, cols, margin, frontiers: Optional[list] = None
) -> tuple[PointCheck, Optional[tuple[WeightVector, Fraction]]]:
    """Take point k's boundary verdict from its margin (None, a vertex,
    is on the boundary), then solve its frontier and witness programs
    over the lattice rows cols: V's for classify, all of yn's for the
    full-width programs ``check`` runs.  The frontier program joins the
    family frontiers when one is given (``_family_solve``).

    With cols fewer than yn's rows, a point with a certified margin
    eps > 0 gets no further program: a point of conv(Y_N) sits at or
    below y - eps in every coordinate (a margin over the frame's subset
    of Y_N is at most the full one), so y is off the frontier, and every
    weight in the simplex scores that point strictly below y, so y is
    unsupported.  When V = Y_N every point is a vertex and no margin is
    positive, so the shortcut applies exactly when cols are fewer than
    yn's rows, as the V-row witness does (``_witness``)."""
    boundary = not margin
    if not boundary and len(cols) < len(yn.lattice):
        frontier, solved = False, None
    else:
        frontier = _on_frontier(yn.lattice[k], cols, frontiers)
        solved = _witness(k, yn, cols)
    weak = solved is not None
    strict = weak and solved[1] > 0
    check = PointCheck(
        point_id=yn.ids[k],
        weakly_supported=weak,
        on_boundary=boundary,
        supported=strict,
        on_frontier=frontier,
        boundary_equivalence_ok=(weak == boundary),
        frontier_equivalence_ok=(strict == frontier),
        biobjective_collapse_ok=(weak == strict) if yn.p == 2 else None,
    )
    return check, solved


def cross_check(outcome_set: OutcomeSet) -> CrossCheckReport:
    """Verify, for every non-dominated point, that the witness tests
    agree with the geometry tests: weight in the closed simplex exists
    iff the point is on the boundary of the upper image; a strictly
    positive weight exists iff the point is on the non-dominated
    frontier; and for two objectives the two witness notions coincide.

    Violations are reported, never swallowed: a False verdict means an
    implementation bug, not a property of the instance.
    """
    yn = filter_nondominated(outcome_set).nondominated
    cols = yn.lattice
    margins: list = []
    frontiers: list = []
    checks = tuple(
        _point_check(k, yn, cols, _margin(row, cols, margins), frontiers)[0]
        for k, row in enumerate(cols)
    )
    return CrossCheckReport(p=outcome_set.p, checks=checks)


def classify_all(outcome_set: OutcomeSet) -> list[Classification]:
    """Label every stored point, in input order.

    Dominated points are retained and labelled; each non-dominated
    point runs the decision cascade extreme-supported > supported >
    weakly-supported-only > unsupported, with every margin found first
    and every later program solved over the vertex set.  The
    independently computed frontier/boundary flags must agree with the
    witness tests; any disagreement raises ConsistencyError with a
    diagnostic dump, as does a vertex off the frontier.  Each
    non-dominated record carries its cross-check row, in the order
    ``cross_check`` reports them.
    """
    results = _classify_nondominated(outcome_set)
    report = []
    for pid in outcome_set.ids:
        if pid in results:
            report.append(results[pid])
        else:
            report.append(
                Classification(
                    point_id=pid,
                    label=Label.DOMINATED,
                    weak_witness=None,
                    strict_witness=None,
                    frontier=False,
                    boundary=False,
                )
            )
    return report


def _classify_nondominated(outcome_set: OutcomeSet) -> dict[str, Classification]:
    """The records of ``classify_all`` for the non-dominated points
    only, by id in input order; a dominated point gets no record."""
    yn = filter_nondominated(outcome_set).nondominated
    margins = _margin_pass(yn)
    cols = [row for row, margin in zip(yn.lattice, margins) if margin is None]
    frontiers: list = []
    results: dict[str, Classification] = {}
    for k, (pid, margin) in enumerate(zip(yn.ids, margins)):
        check, solved = _point_check(k, yn, cols, margin, frontiers)
        if margin is None and not check.on_frontier:
            raise ConsistencyError(
                "a vertex of the upper image is off the frontier: "
                f"{check!r} for point {pid} {yn.points[k].coords} in instance "
                f"{outcome_set.coord_rows()}"
            )
        if not check.ok:
            raise ConsistencyError(
                "supportedness tests disagree on a proven equivalence: "
                f"{check!r} for point {pid} {yn.points[k].coords} in instance "
                f"{outcome_set.coord_rows()}"
            )
        if solved is None:
            label = Label.UNSUPPORTED
            weak = strict = None
        else:
            lam, t = solved
            if t > 0:
                strict = lam
                weak = lam
                label = Label.EXTREME_SUPPORTED if margin is None else Label.SUPPORTED
            else:
                weak, strict = lam, None
                label = Label.WEAKLY_SUPPORTED_ONLY
        results[pid] = Classification(
            point_id=pid,
            label=label,
            weak_witness=weak,
            strict_witness=strict,
            frontier=check.on_frontier,
            boundary=check.on_boundary,
            check=check,
        )
    return results
