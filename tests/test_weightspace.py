import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    COUNTEREXAMPLE_ROWS,
    anticorr_rows,
    clip_corpus_sets,
    random_rational_rows,
    random_rows,
    reference_below_program,
    reference_is_vertex,
    reference_vertices,
)
from ndsupport.classify import (
    Label,
    WeightVector,
    _below_program,
    _cell_program,
    _margin,
    _margin_pass,
    _on_frontier,
    _witness,
    classify_all,
)
from ndsupport.errors import ValidationError
from ndsupport.instances import lift_zero_objective
from ndsupport.outcomes import OutcomePoint, filter_nondominated, validate_instance
from ndsupport.ratlp import (
    EQUAL,
    GREATER_EQUAL,
    OPTIMAL,
    LinearConstraint,
    LinearProgram,
    lp_solve,
)
from ndsupport.weightspace import (
    WeightCell,
    _projected_vertices,
    cell_interval,
    cell_membership,
    decompose,
    weight_cell,
)


def nondom(s):
    return filter_nondominated(s).nondominated


WEAKLY_SUPPORTED = (
    Label.EXTREME_SUPPORTED,
    Label.SUPPORTED,
    Label.WEAKLY_SUPPORTED_ONLY,
)


def lift3(vertex):
    l1, l2 = vertex
    return (l1, l2, 1 - l1 - l2)


def satisfies(hrep, lam):
    for con in hrep:
        lhs = sum(c * v for c, v in zip(con.coeffs, lam))
        if con.relation == EQUAL and lhs != con.rhs:
            return False
        if con.relation == GREATER_EQUAL and lhs < con.rhs:
            return False
    return True


class TestCounterexampleCells:
    def test_cell_of_y1(self, counterexample_set):
        yn = nondom(counterexample_set)
        cell = weight_cell(yn.get("y1"), yn)
        assert cell.projected_vertices == (
            (F(0), F(0)),
            (F(1), F(0)),
            (F(3, 4), F(1, 4)),
        )
        assert cell.is_full_dimensional and not cell.is_empty
        # The binding halfspace is the ray l1 >= 3*l2, from y2 - y1.
        assert any(
            con.relation == GREATER_EQUAL
            and con.coeffs == (F(1), F(-3), F(0))
            and con.rhs == 0
            for con in cell.hrep
        )

    def test_cell_of_y2(self, counterexample_set):
        yn = nondom(counterexample_set)
        cell = weight_cell(yn.get("y2"), yn)
        assert cell.projected_vertices == (
            (F(0), F(0)),
            (F(3, 4), F(1, 4)),
            (F(3, 8), F(5, 8)),
        )
        assert cell.is_full_dimensional

    def test_cell_of_y3(self, counterexample_set):
        yn = nondom(counterexample_set)
        cell = weight_cell(yn.get("y3"), yn)
        assert cell.projected_vertices == (
            (F(0), F(0)),
            (F(3, 8), F(5, 8)),
            (F(0), F(1)),
        )
        assert cell.is_full_dimensional

    def test_degenerate_cell_of_y4(self, counterexample_set):
        yn = nondom(counterexample_set)
        cell = weight_cell(yn.get("y4"), yn)
        assert cell.projected_vertices == ((F(0), F(0)),)
        assert not cell.is_full_dimensional and not cell.is_empty

    def test_decompose_emits_all_four(self, counterexample_set):
        cells = {c.point_id: c for c in decompose(counterexample_set)}
        assert set(cells) == {"y1", "y2", "y3", "y4"}

    def test_unsupported_point_has_empty_cell(self):
        s = validate_instance([[2, 9], [3, 6], [8, 3], [6, 5]])
        cell = weight_cell(s.get("y4"), s)
        assert cell.is_empty and not cell.is_full_dimensional
        assert {c.point_id for c in decompose(s)} == {"y1", "y2", "y3"}

    def test_singleton_cell_is_whole_simplex(self):
        s = validate_instance([[5, 5, 5]])
        cells = decompose(s)
        assert len(cells) == 1
        assert cells[0].projected_vertices == (
            (F(0), F(0)),
            (F(1), F(0)),
            (F(0), F(1)),
        )
        assert cells[0].is_full_dimensional

    def test_membership_precondition(self, counterexample_set):
        with pytest.raises(ValidationError):
            weight_cell(OutcomePoint("zz", (0, 0, 0)), counterexample_set)


class TestVertexSoundness:
    def test_projected_vertices_satisfy_hrep_exactly(self):
        rng = random.Random(47)
        for _ in range(10):
            s = validate_instance(random_rows(rng, rng.randint(3, 12), 3, 0, 20))
            for cell in decompose(s):
                assert cell.projected_vertices  # nonempty cells have vertices
                for vertex in cell.projected_vertices:
                    assert satisfies(cell.hrep, lift3(vertex))

    def test_vertices_listed_ccw_without_repetition(self):
        rng = random.Random(53)
        sets = [
            validate_instance(random_rows(rng, rng.randint(3, 10), 3, 0, 15))
            for _ in range(8)
        ]
        sets += clip_corpus_sets(random.Random(79))
        kinds = set()
        for s in sets:
            for cell in decompose(s):
                verts = cell.projected_vertices
                assert len(set(verts)) == len(verts)
                assert verts[0] == min(verts)
                kinds.add(min(len(verts), 3))
                if len(verts) >= 3:
                    # positive cross product at every corner = strictly convex CCW
                    m = len(verts)
                    for i in range(m):
                        o, a, b = verts[i], verts[(i + 1) % m], verts[(i + 2) % m]
                        cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (
                            b[0] - o[0]
                        )
                        assert cross > 0
        # single-point, segment and polygon cells all occur
        assert kinds == {1, 2, 3}

    def test_segment_crossed_strictly_lists_its_crossing_once(self):
        # y3's ring is the segment (0, 0) - (1/4, 1/4) before its last
        # clip, whose line crosses it strictly: both of the segment's
        # edges cross at the same point.
        s = validate_instance([[1, 2, 1], [3, 0, 1], [2, 1, 1], [1, 0, 2]])
        cells = {cell.point_id: cell for cell in decompose(s)}
        assert cells["y3"].projected_vertices == ((F(0), F(0)), (F(1, 4), F(1, 4)))
        assert not cells["y3"].is_full_dimensional

    def test_full_dimensional_iff_extreme_supported(self):
        rng = random.Random(59)
        # Lifted sets and small p = 4 ranges give weakly-supported-only
        # points; at p = 4 only the margin program decides a cell.
        sets = []
        for _ in range(8):
            p = rng.choice([2, 3])
            sets.append(validate_instance(random_rows(rng, rng.randint(3, 12), p, 0, 20)))
        sets += [lift_zero_objective(s) for s in sets]
        for _ in range(8):
            sets.append(validate_instance(random_rows(rng, rng.randint(3, 12), 4, 0, 5)))
        seen = set()
        for s in sets:
            labels = {c.point_id: c.label for c in classify_all(s)}
            weak = {pid for pid, label in labels.items() if label in WEAKLY_SUPPORTED}
            cells = decompose(s)
            assert [cell.point_id for cell in cells] == [
                pid for pid in labels if pid in weak
            ]
            for cell in cells:
                expected = labels[cell.point_id] == Label.EXTREME_SUPPORTED
                assert cell.is_full_dimensional == expected
                seen.add((s.p, labels[cell.point_id]))
        assert {(4, Label.EXTREME_SUPPORTED), (4, Label.WEAKLY_SUPPORTED_ONLY)} <= seen


def reference_witness_program(y, p, rows):
    """The witness program as it was built on its own: the simplex
    equality first, then lambda_i - t >= 0, then the cuts, with no t."""
    cons = [LinearConstraint((F(1),) * p + (F(0),), EQUAL, F(1))]
    for i in range(p):
        coeffs = [F(0)] * (p + 1)
        coeffs[i] = F(1)
        coeffs[p] = F(-1)
        cons.append(LinearConstraint(coeffs, GREATER_EQUAL, F(0)))
    for other in rows:
        if other.id != y.id:
            diff = tuple(o - a for o, a in zip(other.coords, y.coords)) + (F(0),)
            cons.append(LinearConstraint(diff, GREATER_EQUAL, F(0)))
    return LinearProgram("max", (F(0),) * p + (F(1),), tuple(cons))


def reference_cell_hrep(y, yn):
    """The cell's half-spaces as they were built on their own:
    lambda_i >= 0, the simplex equality, then one cut per other point."""
    p = yn.p
    cons = []
    for i in range(p):
        coeffs = [F(0)] * p
        coeffs[i] = F(1)
        cons.append(LinearConstraint(coeffs, GREATER_EQUAL, F(0)))
    cons.append(LinearConstraint((F(1),) * p, EQUAL, F(1)))
    for other in yn:
        if other.id != y.id:
            diff = tuple(o - a for o, a in zip(other.coords, y.coords))
            cons.append(LinearConstraint(diff, GREATER_EQUAL, F(0)))
    return tuple(cons)


def reference_slack_program(hrep, p):
    """maximize t with every inequality of hrep holding with slack t."""
    cons = [
        LinearConstraint(
            con.coeffs + ((F(0),) if con.relation == EQUAL else (F(-1),)),
            con.relation,
            con.rhs,
        )
        for con in hrep
    ]
    return LinearProgram("max", (F(0),) * p + (F(1),), tuple(cons))


def two_program_cell_flags(hrep, p):
    """Reference (is_empty, is_full_dimensional) from two programs: a
    feasibility program on hrep, then, for nonempty cells, the
    maximum slack t common to every inequality."""
    feasibility = lp_solve(LinearProgram("min", (F(0),) * p, tuple(hrep)))
    if feasibility.status != OPTIMAL:
        return True, False
    outcome = lp_solve(reference_slack_program(hrep, p))
    return False, outcome.status == OPTIMAL and outcome.value > 0


class TestSlackProgramDifferential:
    def test_one_program_matches_two_programs(self):
        rng = random.Random(71)
        # The lift of a bi-objective set turns its unsupported points
        # into weakly-supported-only ones; small coordinate ranges make
        # ties, and with them degenerate cells.
        sets = [validate_instance(COUNTEREXAMPLE_ROWS)]
        for _ in range(6):
            sets.append(validate_instance(random_rows(rng, rng.randint(3, 10), 2, 0, 15)))
            sets.append(validate_instance(random_rows(rng, rng.randint(3, 10), 3, 0, 6)))
            sets.append(lift_zero_objective(sets[-2]))
        # Points on or just above a common plane give segment cells.
        for _ in range(6):
            rows = random_rows(rng, rng.randint(4, 12), 2, 0, 6)
            sets.append(
                validate_instance([[x, y, 12 - x - y + rng.randint(0, 2)] for x, y in rows])
            )
        labels = set()
        polygons = set()
        for s in sets:
            labels.update(c.label for c in classify_all(s))
            yn = nondom(s)
            for y in yn:
                cell = weight_cell(y, yn)
                assert (cell.is_empty, cell.is_full_dimensional) == two_program_cell_flags(
                    cell.hrep, yn.p
                )
                if yn.p == 3 and not cell.is_empty:
                    # A nonempty cell has a polygon, and it is a proper
                    # polygon exactly when the cell is full-dimensional.
                    sides = len(cell.projected_vertices)
                    assert sides >= 1
                    assert (sides >= 3) == cell.is_full_dimensional
                    polygons.add(min(sides, 3))
        assert {Label.WEAKLY_SUPPORTED_ONLY, Label.UNSUPPORTED} <= labels
        assert polygons == {1, 2, 3}


def cell_builder_corpus(rng, count):
    """Seeded sets for p = 2..5: integer rows down to the range 0..4
    (ties), rationals, and lifts of a set with one objective fewer."""
    for k in range(count):
        p = 2 + k % 4
        n = rng.randint(2, 10)
        kind = (k // 4) % 3
        if kind == 0:
            yield validate_instance(random_rows(rng, n, p, 0, rng.choice((4, 6, 20))))
        elif kind == 1:
            yield validate_instance(random_rational_rows(rng, n, p))
        else:
            base = validate_instance(random_rows(rng, n, max(p - 1, 2), 0, 6))
            yield lift_zero_objective(base) if p > 2 else base


class TestOneCellBuilder:
    def test_cell_program_matches_the_reference_builders(self):
        rng = random.Random(89)
        witness_kinds = set()
        pruned = set()
        for s in cell_builder_corpus(rng, 120):
            yn = nondom(s)
            p = yn.p
            vertices = reference_vertices(yn)
            vertex_rows = [yn.lattice_by_id[v.id] for v in vertices]
            for k, y in enumerate(yn):
                full = lp_solve(_cell_program(k, yn, yn.lattice))
                printed = (
                    None
                    if full.status != OPTIMAL
                    else (WeightVector(full.solution[:p]), full.value)
                )
                # The witness program, over Y_N rows and over V rows,
                # with the simplex equality moved.  Both have the full
                # program's status and optimum, and the witness solved
                # over either is the full-row one.
                for points, rows in ((yn, yn.lattice), (vertices, vertex_rows)):
                    got = lp_solve(_cell_program(k, yn, rows))
                    assert got == lp_solve(reference_witness_program(y, p, points))
                    assert (got.status, got.value) == (full.status, full.value)
                    assert _witness(k, yn, rows) == printed
                    witness_kinds.add(
                        got.status if got.status != OPTIMAL else got.value > 0
                    )
                # A cell keeps the witness program's rows over Y_N, and
                # those rows without t are the H-representation, in
                # order; the slack program on them is the reference for
                # the cell's margin verdicts.
                hrep = reference_cell_hrep(y, yn)
                cell = weight_cell(y, yn)
                assert cell.hrep == hrep
                assert all(
                    type(v) is F for con in cell.hrep for v in (*con.coeffs, con.rhs)
                )
                ref = lp_solve(reference_slack_program(hrep, p))
                assert cell.is_empty == (ref.status != OPTIMAL)
                assert cell.is_full_dimensional == (
                    ref.status == OPTIMAL and ref.value > 0
                )
            pruned.add(len(vertices) < len(yn))
        # infeasible, t = 0 and t > 0 witness programs all occur, and so
        # do sets whose vertex set is smaller than Y_N.
        assert witness_kinds == {"infeasible", False, True}
        assert pruned == {False, True}


class TestLatticeGeometryPrograms:
    def test_verdicts_match_the_fraction_built_programs(self):
        rng = random.Random(97)
        verdicts = set()
        scales = set()
        negative = False
        for s in cell_builder_corpus(rng, 120):
            yn = nondom(s)
            lattice = yn.lattice_by_id
            scales.add(yn.scale)
            negative |= any(c < 0 for pt in yn for c in pt.coords)
            vertices = reference_vertices(yn)
            margins = _margin_pass(yn)
            for y, margin in zip(yn, margins):
                row = lattice[y.id]
                for pts in (yn.points, vertices):
                    cols = [lattice[pt.id] for pt in pts]
                    assert all(type(v) is int for col in cols for v in col)
                    frontier = lp_solve(
                        _below_program(row, cols, "min", [sum(c) for c in cols])
                    )
                    ref_frontier = lp_solve(
                        reference_below_program(
                            y, pts, "min", [sum(pt.coords) for pt in pts]
                        )
                    )
                    assert frontier.value == yn.scale * ref_frontier.value
                    boundary = lp_solve(
                        _below_program(row, cols, "max", (0,) * len(cols), margin=True)
                    )
                    ref_boundary = lp_solve(
                        reference_below_program(
                            y, pts, "max", (F(0),) * len(pts), margin=True
                        )
                    )
                    assert boundary.value == yn.scale * ref_boundary.value
                    others = [lattice[pt.id] for pt in pts if pt.id != y.id]
                    ref_vertex = reference_is_vertex(y, pts)
                    got = (
                        _on_frontier(row, cols),
                        _margin(row, cols) == 0,
                        _margin(row, others) is None,
                    )
                    assert got == (
                        ref_frontier.value == sum(y.coords),
                        ref_boundary.value == 0,
                        ref_vertex,
                    )
                    verdicts.add(got)
                    # The margin pass, over its candidate frame, finds
                    # every vertex and every zero margin, and bounds each
                    # positive full-width margin from below.
                    if pts is vertices:
                        continue
                    assert (margin is None) == ref_vertex
                    if not ref_vertex:
                        assert (margin == 0) == (ref_boundary.value == 0)
                        if margin:
                            assert 0 < margin <= yn.scale * ref_boundary.value
        # Denominators and negative coordinates (``<=`` rows with a
        # negative rhs, so artificials) occur, and every verdict takes
        # both values.
        assert max(scales) > 1 and negative
        for k in range(3):
            assert {v[k] for v in verdicts} == {False, True}


def fraction_convex_hull_ccw(points):
    """Reference hull: monotone chain on ``Fraction`` points, turns told
    by the 2-D cross product."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for q in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    upper = []
    for q in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    return tuple(lower[:-1] + upper[:-1])


def pairwise_projected_vertices(hrep):
    """Reference p = 3 polygon: intersect every pair of projected
    boundary lines a*l1 + b*l2 >= c, keep the intersections that satisfy
    every row, and take their hull."""
    ineqs = []
    for con in hrep:
        if con.relation != EQUAL:
            c1, c2, c3 = con.coeffs
            ineqs.append((c1 - c3, c2 - c3, con.rhs - c3))
    for a, b, c in ineqs:
        if a == 0 and b == 0 and c > 0:
            return ()  # unsatisfiable row: empty cell
    candidates = []
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(ineqs, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        q = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
        if all(a * q[0] + b * q[1] >= c for a, b, c in ineqs):
            candidates.append(q)
    return fraction_convex_hull_ccw(candidates)


def reference_fraction_clip(hrep):
    """Reference p = 3 polygon: the simplex triangle in (l1, l2) clipped
    by one projected row a*l1 + b*l2 >= c at a time, in ``Fraction``s,
    keeping the vertices with side value >= 0 and adding the crossing of
    every edge whose ends lie strictly on opposite sides."""
    polygon = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    for con in hrep:
        if con.relation == EQUAL:
            continue
        c1, c2, c3 = con.coeffs
        a, b, c = c1 - c3, c2 - c3, con.rhs - c3
        clipped = []
        for q, r in zip(polygon, polygon[1:] + polygon[:1]):
            sq = a * q[0] + b * q[1] - c
            sr = a * r[0] + b * r[1] - c
            if sq >= 0:
                clipped.append(q)
            if sq * sr < 0:
                t = sq / (sq - sr)
                clipped.append((q[0] + t * (r[0] - q[0]), q[1] + t * (r[1] - q[1])))
        polygon = clipped
    return fraction_convex_hull_ccw(polygon)


def weight_cells(sets):
    for s in sets:
        yn = nondom(s)
        for y in yn:
            yield weight_cell(y, yn)


class TestClipDifferential:
    def test_clip_matches_pairwise_enumeration(self):
        kinds = set()
        for cell in weight_cells(clip_corpus_sets(random.Random(79))):
            vertices = _projected_vertices(cell.rows)
            assert vertices == pairwise_projected_vertices(cell.hrep)
            kinds.add(min(len(vertices), 3))
        # empty, single-point, segment and polygon cells all occur
        assert kinds == {0, 1, 2, 3}

    def test_integer_clip_matches_fraction_clip(self):
        rng = random.Random(83)
        sets = clip_corpus_sets(random.Random(79))
        for _ in range(20):
            sets.append(
                validate_instance(
                    [
                        [F(rng.randint(-60, 60), rng.randint(1, 97)) for _ in range(3)]
                        for _ in range(rng.randint(4, 14))
                    ]
                )
            )
        sets.append(validate_instance(anticorr_rows(1, 120, 3)))
        kinds = set()
        for cell in weight_cells(sets):
            vertices = _projected_vertices(cell.rows)
            assert vertices == reference_fraction_clip(cell.hrep)
            kinds.add(min(len(vertices), 3))
        assert kinds == {0, 1, 2, 3}


class TestCellMembership:
    def test_reference_weights_certify_their_points(self, counterexample_set):
        for weights, winner in [
            (("7/10", "1/10", "1/5"), "y1"),
            (("2/5", "2/5", "1/5"), "y2"),
            (("1/10", "4/5", "1/10"), "y3"),
        ]:
            got, ties = cell_membership(WeightVector(weights), counterexample_set)
            assert got == winner
            assert ties == (winner,)

    def test_zero_weight_ties_across_the_shared_layer(self, counterexample_set):
        winner, ties = cell_membership(WeightVector((0, 0, 1)), counterexample_set)
        assert set(ties) == {"y1", "y2", "y3", "y4"}
        assert winner == "y1"  # lexicographically smallest coordinates

    def test_barycenter_on_singleton(self):
        s = validate_instance([[3, 4]])
        winner, ties = cell_membership(WeightVector((F(1, 2), F(1, 2))), s)
        assert winner == "y1" and ties == ("y1",)

    def test_dimension_validation(self, counterexample_set):
        with pytest.raises(ValidationError):
            cell_membership(WeightVector((F(1, 2), F(1, 2))), counterexample_set)

    def test_winner_cell_contains_weight(self):
        rng = random.Random(61)
        s = validate_instance(random_rows(rng, 8, 3, 0, 10))
        yn = nondom(s)
        cells = {c.point_id: c for c in decompose(s)}
        for lam in _simplex_sample(3, 6):
            winner, _ = cell_membership(lam, s)
            assert satisfies(cells[winner].hrep, tuple(lam))


def _simplex_sample(p, denominator):
    for combo in itertools.combinations_with_replacement(range(p), denominator):
        counts = [0] * p
        for idx in combo:
            counts[idx] += 1
        yield WeightVector(tuple(F(c, denominator) for c in counts))


class TestCoveringAndDisjointness:
    def test_grid_covering(self):
        rng = random.Random(67)
        for _ in range(4):
            p = rng.choice([2, 3])
            s = validate_instance(random_rows(rng, rng.randint(3, 8), p, 0, 12))
            cells = {c.point_id: c for c in decompose(s)}
            for lam in _simplex_sample(p, 10):
                winner, _ = cell_membership(lam, s)
                assert satisfies(cells[winner].hrep, tuple(lam))

    def test_disjoint_interiors_p3(self):
        rng = random.Random(71)
        for _ in range(6):
            s = validate_instance(random_rows(rng, rng.randint(4, 10), 3, 0, 15))
            cells = [c for c in decompose(s) if c.is_full_dimensional]
            for cell in cells:
                verts = cell.projected_vertices
                m = len(verts)
                cx = sum(v[0] for v in verts) / m
                cy = sum(v[1] for v in verts) / m
                interior = lift3((cx, cy))
                assert _strictly_satisfies(cell.hrep, interior)
                for other in cells:
                    if other.point_id != cell.point_id:
                        assert not _strictly_satisfies(other.hrep, interior)


def _strictly_satisfies(hrep, lam):
    for con in hrep:
        lhs = sum(c * v for c, v in zip(con.coeffs, lam))
        if con.relation == EQUAL:
            if lhs != con.rhs:
                return False
        elif lhs <= con.rhs:
            return False
    return True


def reference_interval(hrep):
    """The p = 2 cell in l1, in Fractions: each row a*l1 + b*l2 >= c
    with l2 = 1 - l1 bounds l1 by (c - b) / (a - b)."""
    lo, hi = F(0), F(1)
    for con in hrep:
        if con.relation == EQUAL:
            continue
        a, b = con.coeffs
        if a > b:
            lo = max(lo, (con.rhs - b) / (a - b))
        elif a < b:
            hi = min(hi, (con.rhs - b) / (a - b))
    return lo, hi


class TestBiObjectiveIntervals:
    def test_intervals_tile_unit_range(self):
        rng = random.Random(73)
        for _ in range(10):
            s = validate_instance(random_rows(rng, rng.randint(3, 15), 2, 0, 25))
            cells = decompose(s)
            intervals = sorted(cell_interval(c) for c in cells)
            assert intervals[0][0] == 0
            assert intervals[-1][1] == 1
            for (a_lo, a_hi), (b_lo, b_hi) in zip(intervals, intervals[1:]):
                assert a_hi == b_lo  # consecutive cells share exactly one endpoint
                assert a_lo < a_hi or (a_lo == a_hi)

    def test_counterexample_2d_intervals(self):
        s = validate_instance([[2, 9], [3, 6], [8, 3]])
        by_id = {c.point_id: cell_interval(c) for c in decompose(s)}
        # l . y1 = l . y2 at l1 = 3/4; l . y2 = l . y3 at l1 = 3/8.
        assert by_id["y1"] == (F(3, 4), F(1))
        assert by_id["y2"] == (F(3, 8), F(3, 4))
        assert by_id["y3"] == (F(0), F(3, 8))

    def test_interval_of_rows_matches_fraction_interval_of_hrep(self):
        rng = random.Random(89)
        scales = set()
        for _ in range(12):
            s = validate_instance(random_rational_rows(rng, rng.randint(3, 20), 2))
            for cell in decompose(s):
                scales.add(cell.scale)
                assert cell_interval(cell) == reference_interval(cell.hrep)
        assert max(scales) > 1

    def test_three_objective_cell_is_refused(self, counterexample_set):
        cell = weight_cell(counterexample_set.get("y1"), counterexample_set)
        assert not cell.is_empty
        with pytest.raises(ValidationError):
            cell_interval(cell)

    def test_int_rows_give_the_interval_of_fraction_rows(self):
        # The cell of y2 over [2, 9], [3, 6], [8, 3] as int program rows
        # with a zero t column, once at scale 1 and once times 3 at
        # scale 3; its bounds 3/8 and 3/4 are no ints.
        rows = [((1, 0), 0), ((0, 1), 0), ((-1, 3), 0), ((5, -3), 0)]

        def cell(scale):
            cons = [LinearConstraint((scale, scale, 0), EQUAL, scale)]
            cons += [
                LinearConstraint(
                    tuple(scale * c for c in coeffs) + (0,), GREATER_EQUAL, scale * rhs
                )
                for coeffs, rhs in rows
            ]
            return WeightCell("y2", tuple(cons), scale, None, True, False)

        ints = cell(1)
        assert all(type(v) is int for con in ints.rows for v in con.coeffs)
        got = cell_interval(ints)
        assert got == cell_interval(cell(3)) == (F(3, 8), F(3, 4))
        assert all(type(bound) is F for bound in got)
