import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import ndsupport.classify
import ndsupport.weightspace
from conftest import (
    clip_corpus_sets,
    differential_corpus,
    hull_labels_2d,
    random_rows,
    reference_is_vertex,
)
from ndsupport.classify import (
    Classification,
    Label,
    WeightVector,
    _check_weight_certificate,
    _margin,
    _margin_over_others,
    _margin_pass,
    _point_check,
    barycenter,
    classify_all,
    cross_check,
    is_extreme_supported,
    is_on_boundary_upper_image,
    is_on_frontier,
    supported_witness,
    weakly_supported_witness,
)
from ndsupport.cli import build_report
from ndsupport.errors import ConsistencyError, ValidationError
from ndsupport.instances import lift_zero_objective
from ndsupport.outcomes import OutcomePoint, filter_nondominated, validate_instance
from ndsupport.ratlp import LESS_EQUAL, MAXIMIZE, OPTIMAL, lp_solve
from ndsupport.weightspace import decompose


def nondom(s):
    return filter_nondominated(s).nondominated


def assert_weak_certificate(lam, y, yn):
    assert sum(lam.values) == 1
    assert all(v >= 0 for v in lam)
    score = lam.dot(y.coords)
    assert all(score <= lam.dot(q.coords) for q in yn)


class TestWeightVector:
    def test_validation(self):
        with pytest.raises(ValidationError):
            WeightVector((F(1, 2), F(1, 3)))
        with pytest.raises(ValidationError):
            WeightVector((F(3, 2), F(-1, 2)))
        with pytest.raises(ValidationError):
            WeightVector(())

    def test_strict_positivity_predicate(self):
        assert WeightVector((F(1, 2), F(1, 2))).strictly_positive
        assert not WeightVector((F(0), F(1))).strictly_positive

    def test_rejects_floats(self):
        with pytest.raises(ValidationError):
            WeightVector((0.5, 0.5))


class TestWeakWitness:
    def test_y4_has_weak_witness(self, counterexample_set):
        yn = nondom(counterexample_set)
        y4 = yn.get("y4")
        lam = weakly_supported_witness(y4, yn)
        assert lam is not None
        assert_weak_certificate(lam, y4, yn)
        # (0, 0, 1) is a valid certificate; whatever the solver returns
        # must score y4 at the shared minimum 1.
        assert WeightVector((0, 0, 1)).dot(y4.coords) == 1

    def test_singleton_returns_barycenter(self):
        s = validate_instance([[4, 5, 6]])
        lam = weakly_supported_witness(s.get("y1"), s)
        assert lam == barycenter(3)

    def test_unsupported_point_has_none(self):
        s = validate_instance([[2, 9], [3, 6], [8, 3], [6, 5]])
        assert weakly_supported_witness(s.get("y4"), s) is None

    def test_membership_precondition(self, counterexample_set):
        stranger = OutcomePoint("zz", (1, 1, 1))
        with pytest.raises(ValidationError):
            weakly_supported_witness(stranger, counterexample_set)


class TestStrictWitness:
    def test_y1_supported_and_reference_certificate_verifies(self, counterexample_set):
        yn = nondom(counterexample_set)
        y1 = yn.get("y1")
        lam = supported_witness(y1, yn)
        assert lam is not None and lam.strictly_positive
        # The reference witness (0.7, 0.1, 0.2) must verify exactly:
        # scores 2.5 <= 2.9 <= 4.9 <= 6.1.
        reference = WeightVector(("7/10", "1/10", "2/10"))
        scores = sorted(reference.dot(q.coords) for q in yn)
        assert scores == [F(5, 2), F(29, 10), F(49, 10), F(61, 10)]
        assert reference.dot(y1.coords) == F(5, 2)

    def test_y4_not_supported(self, counterexample_set):
        yn = nondom(counterexample_set)
        assert supported_witness(yn.get("y4"), yn) is None

    def test_singleton(self):
        s = validate_instance([[1, 2]])
        assert supported_witness(s.get("y1"), s) == barycenter(2)

    def test_certificate_check_rejects_a_wrong_weight(self, counterexample_set):
        yn = nondom(counterexample_set)
        y1 = yn.ids.index("y1")
        _check_weight_certificate(WeightVector((1, 0, 0)), y1, yn)
        # Under (0, 1, 0), y1 scores 9 and y2 scores 6.
        with pytest.raises(ConsistencyError, match="y2 scores below y1"):
            _check_weight_certificate(WeightVector((0, 1, 0)), y1, yn)


class TestFrontier:
    def test_y3_on_frontier(self, counterexample_set):
        yn = nondom(counterexample_set)
        assert is_on_frontier(yn.get("y3"), yn)

    def test_y4_off_frontier_with_published_combination(self, counterexample_set):
        yn = nondom(counterexample_set)
        y2, y3, y4 = yn.get("y2"), yn.get("y3"), yn.get("y4")
        # 0.4 * y2 + 0.6 * y3 = (6, 4.2, 1) sits weakly below y4.
        mix = tuple(
            F(2, 5) * a + F(3, 5) * b for a, b in zip(y2.coords, y3.coords)
        )
        assert mix == (F(6), F(21, 5), F(1))
        assert all(m <= c for m, c in zip(mix, y4.coords)) and mix != y4.coords
        assert not is_on_frontier(y4, yn)

    def test_singleton(self):
        s = validate_instance([[7, 7]])
        assert is_on_frontier(s.get("y1"), s)


class TestBoundary:
    def test_y4_on_boundary(self, counterexample_set):
        yn = nondom(counterexample_set)
        assert is_on_boundary_upper_image(yn.get("y4"), yn)

    def test_interior_point_2d(self):
        s = validate_instance([[2, 9], [3, 6], [8, 3], [6, 5]])
        assert not is_on_boundary_upper_image(s.get("y4"), s)

    def test_singleton(self):
        s = validate_instance([[0, 1]])
        assert is_on_boundary_upper_image(s.get("y1"), s)


class TestExtreme:
    def test_y2_is_vertex(self, counterexample_set):
        yn = nondom(counterexample_set)
        assert is_extreme_supported(yn.get("y2"), yn)

    def test_point_on_open_segment_is_not_vertex(self):
        s = validate_instance([[2, 9], [3, 6], [8, 3], [4, "27/5"]])
        mid = s.get("y4")  # on the open segment between (3,6) and (8,3)
        assert supported_witness(mid, s) is not None
        assert not is_extreme_supported(mid, s)

    def test_singleton(self):
        s = validate_instance([[5, 5]])
        assert is_extreme_supported(s.get("y1"), s)


class TestClassifyAll:
    def test_counterexample_labels(self, counterexample_set):
        report = {c.point_id: c for c in classify_all(counterexample_set)}
        assert report["y1"].label == Label.EXTREME_SUPPORTED
        assert report["y2"].label == Label.EXTREME_SUPPORTED
        assert report["y3"].label == Label.EXTREME_SUPPORTED
        assert report["y4"].label == Label.WEAKLY_SUPPORTED_ONLY
        y4 = report["y4"]
        assert y4.boundary and not y4.frontier
        assert y4.weak_witness is not None
        assert any(v == 0 for v in y4.weak_witness)

    def test_figure_2d_labels(self, fig2d_set):
        report = {c.point_id: c.label for c in classify_all(fig2d_set)}
        assert report == {
            "y1": Label.EXTREME_SUPPORTED,
            "y2": Label.EXTREME_SUPPORTED,
            "y3": Label.EXTREME_SUPPORTED,
            "y4": Label.UNSUPPORTED,
            "y5": Label.DOMINATED,
            "y6": Label.DOMINATED,
        }

    def test_singleton(self):
        report = classify_all(validate_instance([[0, 0]]))
        assert [c.label for c in report] == [Label.EXTREME_SUPPORTED]

    def test_report_order_matches_input(self, fig2d_set):
        report = classify_all(fig2d_set)
        assert [c.point_id for c in report] == [p.id for p in fig2d_set]

    def test_subset_chain(self):
        rng = random.Random(23)
        for _ in range(15):
            p = rng.choice([2, 3])
            s = validate_instance(random_rows(rng, rng.randint(3, 18), p, 0, 30))
            report = classify_all(s)
            extreme = {c.point_id for c in report if c.label == Label.EXTREME_SUPPORTED}
            strict = extreme | {
                c.point_id for c in report if c.label == Label.SUPPORTED
            }
            weak = strict | {
                c.point_id
                for c in report
                if c.label == Label.WEAKLY_SUPPORTED_ONLY
            }
            nondominated = weak | {
                c.point_id for c in report if c.label == Label.UNSUPPORTED
            }
            assert extreme <= strict <= weak <= nondominated
            assert extreme == {
                c.point_id for c in report if c.strict_witness is not None
            } - {c.point_id for c in report if c.label == Label.SUPPORTED}
            # The report's cross-check is the rows classify_all kept.
            assert build_report(s).checks == cross_check(s)

    def test_witness_soundness_random(self):
        rng = random.Random(29)
        for _ in range(10):
            s = validate_instance(random_rows(rng, 12, 3, 0, 20))
            yn = nondom(s)
            for c in classify_all(s):
                if c.weak_witness is not None:
                    assert_weak_certificate(c.weak_witness, s.get(c.point_id), yn)
                if c.strict_witness is not None:
                    assert c.strict_witness.strictly_positive

    def test_matches_lower_hull_oracle_2d(self):
        rng = random.Random(31)
        for trial in range(25):
            rows = random_rows(rng, rng.randint(3, 25), 2, 0, 40)
            expected = hull_labels_2d(rows)
            s = validate_instance(rows)
            for c in classify_all(s):
                coords = s.get(c.point_id).coords
                assert c.label.value == expected[coords], (
                    f"trial {trial}: {coords} -> {c.label.value}, "
                    f"oracle says {expected[coords]}"
                )

    def test_label_invariance_under_scaling_and_translation(self):
        rng = random.Random(37)
        for _ in range(8):
            p = rng.choice([2, 3])
            rows = random_rows(rng, 12, p, 0, 25)
            scale = [rng.randint(1, 100) for _ in range(p)]
            shift = [rng.randint(-50, 50) for _ in range(p)]
            mapped = [
                [a * x + b for a, b, x in zip(scale, shift, row)] for row in rows
            ]
            before = [c.label for c in classify_all(validate_instance(rows))]
            after = [c.label for c in classify_all(validate_instance(mapped))]
            assert before == after


def simplex_grid(p, denominator):
    """All nonnegative rational weights with the given denominator."""
    for combo in itertools.combinations_with_replacement(range(p), denominator):
        counts = [0] * p
        for idx in combo:
            counts[idx] += 1
        yield tuple(F(c, denominator) for c in counts)


def grid_has_witness(y, yn, denominator):
    for lam in simplex_grid(yn.p, denominator):
        score = sum(l * c for l, c in zip(lam, y.coords))
        if all(
            score <= sum(l * c for l, c in zip(lam, q.coords)) for q in yn
        ):
            return True
    return False


def test_weak_supportedness_agrees_with_grid_search_oracle():
    # The grid is only a sanity oracle: when the witness program says a
    # weight exists, a fine enough simplex grid must contain one; when
    # it says none exists, no grid weight may certify the point.
    rng = random.Random(41)
    for _ in range(6):
        rows = random_rows(rng, rng.randint(4, 10), 3, 0, 9)
        s = validate_instance(rows)
        yn = nondom(s)
        for y in yn:
            lp_verdict = weakly_supported_witness(y, yn) is not None
            if lp_verdict:
                denominator = 1
                while denominator <= 4096 and not grid_has_witness(y, yn, denominator):
                    denominator *= 2
                assert denominator <= 4096, f"no grid witness found for {y.coords}"
            else:
                assert not grid_has_witness(y, yn, 12)


class TestCrossCheck:
    def test_counterexample_passes_with_y4_failing_both_sides(self, counterexample_set):
        report = cross_check(counterexample_set)
        assert report.all_ok
        y4 = next(c for c in report.checks if c.point_id == "y4")
        assert not y4.supported and not y4.on_frontier
        assert y4.weakly_supported and y4.on_boundary

    def test_random_biobjective_collapse(self):
        rng = random.Random(43)
        for _ in range(30):
            s = validate_instance(random_rows(rng, rng.randint(3, 15), 2, 0, 30))
            report = cross_check(s)
            assert report.all_ok
            for check in report.checks:
                assert check.biobjective_collapse_ok is True

    def test_singleton(self):
        report = cross_check(validate_instance([[1, 1, 1]]))
        assert report.all_ok and len(report.checks) == 1


class TestClassificationInvariants:
    def test_extreme_requires_strict_witness(self):
        with pytest.raises(ValidationError):
            Classification(
                point_id="x",
                label=Label.EXTREME_SUPPORTED,
                weak_witness=None,
                strict_witness=None,
                frontier=True,
                boundary=True,
            )

    def test_unsupported_rejects_witness(self):
        with pytest.raises(ValidationError):
            Classification(
                point_id="x",
                label=Label.UNSUPPORTED,
                weak_witness=WeightVector((F(1), F(0))),
                strict_witness=None,
                frontier=False,
                boundary=False,
            )

    def test_weakly_only_needs_zero_component(self):
        with pytest.raises(ValidationError):
            Classification(
                point_id="x",
                label=Label.WEAKLY_SUPPORTED_ONLY,
                weak_witness=WeightVector((F(1, 2), F(1, 2))),
                strict_witness=None,
                frontier=False,
                boundary=True,
            )


def full_width_classify(outcome_set):
    """The classify cascade with every program over all of Y_N: the
    full-width cross-check row for each point, plus, for points with a
    strictly positive witness, the vertex verdict of a zero-objective
    program built here from the exact coordinates."""
    yn = nondom(outcome_set)
    records = {}
    for k, (y, row) in enumerate(zip(yn, yn.lattice)):
        check, solved = _point_check(k, yn, yn.lattice, _margin(row, yn.lattice))
        assert check.ok
        weak = strict = None
        if solved is None:
            label = Label.UNSUPPORTED
        else:
            lam, t = solved
            weak = lam
            if t > 0:
                strict = lam
                label = (
                    Label.EXTREME_SUPPORTED
                    if reference_is_vertex(y, yn.points)
                    else Label.SUPPORTED
                )
            else:
                label = Label.WEAKLY_SUPPORTED_ONLY
        records[y.id] = Classification(
            point_id=y.id,
            label=label,
            weak_witness=weak,
            strict_witness=strict,
            frontier=check.on_frontier,
            boundary=check.on_boundary,
            check=check,
        )
    return [
        records.get(pt.id)
        or Classification(
            point_id=pt.id,
            label=Label.DOMINATED,
            weak_witness=None,
            strict_witness=None,
            frontier=False,
            boundary=False,
        )
        for pt in outcome_set
    ]


class TestVertexPruningDifferential:
    def test_records_equal_full_width_cascade(self):
        sets = differential_corpus()
        assert len(sets) >= 100
        labels = set()
        for s in sets:
            pruned = classify_all(s)
            assert pruned == full_width_classify(s), s.coord_rows()
            labels.update(c.label for c in pruned)
        assert labels == set(Label)

    def test_the_corpus_needs_the_uniqueness_proof(self, monkeypatch):
        # Some V-row witness optima on the corpus are not provably unique
        # and fall back to the full rows.  Taken as unique, at least one
        # of them prints another weight than the full-row program, so
        # the differential above fails without the proof.
        sets = differential_corpus()
        answers = []
        unique = ndsupport.classify._unique_optimum

        def recorded(tab, r):
            answers.append(unique(tab, r))
            return answers[-1]

        monkeypatch.setattr(ndsupport.classify, "_unique_optimum", recorded)
        for s in sets:
            classify_all(s)
        assert False in answers and True in answers
        monkeypatch.setattr(ndsupport.classify, "_unique_optimum", lambda tab, r: True)
        assert any(classify_all(s) != full_width_classify(s) for s in sets)

    def test_a_positive_boundary_optimum_proves_unsupported(self, monkeypatch):
        # classify_all settles a point on a margin eps > 0.  Record the
        # margin programs it solves, and re-check each returned convex
        # weight vector mu in the exact coordinates of that program's
        # columns, where the margin is eps / S: sum mu_v v sits at or
        # below y - eps / S in every coordinate.  The full-width cascade
        # must label every such point unsupported.
        settled = 0
        for s in differential_corpus():
            yn = nondom(s)
            by_row = dict(zip(yn.lattice, yn))
            programs = record_programs(monkeypatch)
            classify_all(s)
            monkeypatch.undo()
            records = {c.point_id: c for c in full_width_classify(s)}
            for program in programs:
                if program_kind(program) != "boundary":
                    continue
                outcome = lp_solve(program)
                if outcome.status != OPTIMAL or outcome.value == 0:
                    continue
                settled += 1
                rows = program.constraints[1:]
                y = by_row[tuple(con.rhs for con in rows)]
                cols = [by_row[col] for col in zip(*(con.coeffs[:-1] for con in rows))]
                *mu, eps = outcome.solution
                assert eps == outcome.value > 0
                assert all(m >= 0 for m in mu) and sum(mu) == 1
                margin = F(eps) / yn.scale
                for i, coord in enumerate(y.coords):
                    below = sum(m * v.coords[i] for m, v in zip(mu, cols))
                    assert below <= coord - margin, (s.coord_rows(), y.id)
                record = records[y.id]
                assert record.label == Label.UNSUPPORTED
                assert not record.frontier and not record.boundary
        assert settled >= 50


def record_programs(monkeypatch) -> list:
    """Every program the classify module passes to lp_solve or _solve,
    in the order it solves them."""
    programs = []
    for name in ("lp_solve", "_solve"):
        solve = getattr(ndsupport.classify, name)

        def recorded(program, *start, solve=solve):
            programs.append(program)
            return solve(program, *start)

        monkeypatch.setattr(ndsupport.classify, name, recorded)
    return programs


def program_kind(program):
    # Geometry programs end on a coordinate row (<=); a witness program
    # ends on a cut row (>=), or on its simplex row (=) when y is alone.
    if program.constraints[-1].relation != LESS_EQUAL:
        return "witness"
    if program.sense == MAXIMIZE:
        return "boundary"
    return "frontier" if any(program.objective) else "vertex"


# (6, 5) is interior; (4, 27/5) lies on the open segment between (3, 6)
# and (8, 3), so it is on the boundary but not a vertex.
PRUNING_ROWS = [[2, 9], [3, 6], [8, 3], [6, 5], [4, "27/5"]]


def margin_schedule(s, programs):
    """(point id, column count) of each margin program, eps left out."""
    yn = nondom(s)
    by_row = {row: y.id for y, row in zip(yn, yn.lattice)}
    return [
        (by_row[tuple(con.rhs for con in p.constraints[1:])], p.num_vars - 1)
        for p in programs
    ]


# The frame pass starts the frame at y2, of least lattice row sum (45,
# 47, 55, 55, 55 at S = 5), with no program, and visits y5, y1, y3, y4.
# y5 is infeasible over y2; its Farkas weight's minimizer is y3, which
# joins, and y5 is solved again over y2 and y3: margin 0, on their
# segment.  y1 is infeasible over the two and is its own weight's
# minimizer, so it joins with no second program.  y3 is in the frame,
# and y4 is feasible with a positive margin.  y5's zero came before the
# frame last grew, so it is solved again over V = y2, y3, y1.
FRAME_SCHEDULE = [
    ("y5", 1),
    ("y5", 2),
    ("y1", 2),
    ("y4", 3),
    ("y5", 3),
]


class TestVertexPruning:
    def test_programs_after_the_vertex_pass_use_vertex_columns_and_rows(
        self, monkeypatch
    ):
        s = validate_instance(PRUNING_ROWS)
        vertices = 3
        programs = record_programs(monkeypatch)
        report = {c.point_id: c for c in classify_all(s)}
        assert report["y4"].label == Label.UNSUPPORTED
        assert report["y5"].label == Label.SUPPORTED
        kinds = [program_kind(program) for program in programs]
        # Five margin programs and no vertex program.  The margin proves
        # y4 interior, which settles it: only the four boundary points
        # get a frontier and a witness program.
        per_point = ["frontier", "witness"]
        assert kinds == ["boundary"] * 5 + per_point * (len(s) - 1)
        assert margin_schedule(s, programs[:5]) == FRAME_SCHEDULE
        for program, kind in zip(programs, kinds):
            if kind == "frontier":
                assert program.num_vars == vertices
        witness_rows = [
            len(program.constraints)
            for program, kind in zip(programs, kinds)
            if kind == "witness"
        ]
        # Boundary points have the vertices as rows, the point itself
        # left out: the three vertices y1, y2 and y3 keep the other two,
        # y5 keeps all three.  Every optimum is provably unique, so no
        # witness program falls back to the full rows.
        simplex = 1 + s.p
        assert witness_rows == [simplex + vertices - 1] * 3 + [simplex + vertices]

    def test_cross_check_programs_are_full_width(self, monkeypatch):
        # The standalone cross-check runs no vertex pass, and every
        # point, the interior y4 included, gets all of Y_N as columns
        # and as witness rows.
        s = validate_instance(PRUNING_ROWS)
        programs = record_programs(monkeypatch)
        assert cross_check(s).all_ok
        kinds = [program_kind(program) for program in programs]
        assert kinds == ["boundary", "frontier", "witness"] * len(s)
        for program, kind in zip(programs, kinds):
            if kind == "boundary":
                assert program.num_vars == len(s) + 1
            elif kind == "frontier":
                assert program.num_vars == len(s)
            else:
                assert len(program.constraints) == 1 + s.p + len(s) - 1

    def test_decompose_solves_only_the_margin_pass(self, monkeypatch):
        # wsd takes every cell verdict from the margin pass classify
        # runs, over the candidate frame, and solves no witness program;
        # the cells keep its rows unsolved.
        assert not hasattr(ndsupport.weightspace, "lp_solve")
        s = validate_instance(PRUNING_ROWS)
        programs = record_programs(monkeypatch)
        cells = decompose(s)
        assert [program_kind(program) for program in programs] == ["boundary"] * 5
        assert margin_schedule(s, programs) == FRAME_SCHEDULE
        # y4 is interior, so it has no cell; y5 is on the boundary but no
        # vertex, so its cell is a single weight.
        assert [(c.point_id, c.is_full_dimensional) for c in cells] == [
            ("y1", True),
            ("y2", True),
            ("y3", True),
            ("y5", False),
        ]


def shrinking_margin_pass(yn):
    """The margin pass the frame pass replaced, kept as the reference:
    each point in input order over the other columns, which start as all
    of yn's rows and lose each non-vertex once its margin is known, so
    they always contain V and every margin is the full-width one."""
    cols = list(yn.lattice)
    margins = []
    for row in yn.lattice:
        margin = _margin(row, [col for col in cols if col != row])
        if margin is not None:
            cols.remove(row)
        margins.append(margin)
    return margins


def assert_frame_contract(yn):
    """The frame pass's margins against the full-width ones: None and 0
    exactly where they are None and 0, and a positive lower bound on a
    positive one."""
    margins = _margin_pass(yn)
    for margin, exact in zip(margins, shrinking_margin_pass(yn), strict=True):
        if not exact:
            assert margin == exact, yn.coord_rows()
        else:
            assert 0 < margin <= exact, yn.coord_rows()
    return margins


def on_plane(p, total):
    """Distinct int rows of p nonnegative coordinates summing to total."""
    head = st.lists(st.integers(0, total), min_size=p - 1, max_size=p - 1)
    return head.filter(lambda h: sum(h) <= total).map(lambda h: h + [total - sum(h)])


# The pass starts the frame at y3 = (7, 2, 1), of least row sum, and
# visits y1, y4, y2 by row sum (15, 16, 17).  y1 is infeasible over y3
# and its own Farkas weight's minimizer, so it joins.  y4 = (3, 10, 3)
# is then at margin 0: (3, 10, 1), on the segment from y1 to y3, sits
# below it, and no combination of the two is below it in the first
# coordinate.  y2 = (3, 5, 9) joins next, and a convex combination of
# all three sits strictly below y4: its full-width margin is positive.
STALE_ZERO_ROWS = [[2, 12, 1], [3, 5, 9], [7, 2, 1], [3, 10, 3]]


def least_row(yn):
    """The index of the lexicographically smallest row of least sum."""
    return min(range(len(yn)), key=lambda k: (sum(yn.lattice[k]), yn.lattice[k]))


def frame_joins(monkeypatch):
    """Every frame member that joins after the first, and every program
    the classify module solves through _solve, from now on: a list of
    ('join', index) and ('solve', program) events in the order they
    happen."""
    events = []
    certified = ndsupport.classify._certified_vertex
    solve = ndsupport.classify._solve

    def joined(*args):
        k = certified(*args)
        events.append(("join", k))
        return k

    def solved(program, *start):
        events.append(("solve", program))
        return solve(program, *start)

    monkeypatch.setattr(ndsupport.classify, "_certified_vertex", joined)
    monkeypatch.setattr(ndsupport.classify, "_solve", solved)
    return events


class TestFramePass:
    def test_verdicts_equal_the_shrinking_pass(self):
        sets = differential_corpus() + clip_corpus_sets(random.Random(79))
        verdicts = set()
        for s in sets:
            margins = assert_frame_contract(nondom(s))
            verdicts.update(None if m is None else bool(m) for m in margins)
        assert verdicts == {None, False, True}

    def test_the_frame_starts_at_the_least_row_sum_with_no_program(
        self, monkeypatch
    ):
        # The first member is the lexicographically smallest of the rows
        # of least sum, and joins with no program.  The first program is
        # the first visited point's other than it, over its one column.
        for s in differential_corpus() + [validate_instance([[4, 5, 6]])]:
            yn = nondom(s)
            programs = record_programs(monkeypatch)
            margins = _margin_pass(yn)
            monkeypatch.undo()
            start = yn.lattice[least_row(yn)]
            visit = [row for row in sorted(yn.lattice, key=sum) if row != start]
            if len(yn) == 1:
                assert programs == [] and margins == [None]
                continue
            first = programs[0].constraints[1:]
            assert tuple(con.rhs for con in first) == visit[0]
            assert [con.coeffs[:-1] for con in first] == [(v,) for v in start]
            assert margins[yn.lattice.index(start)] is None
            rhs = [tuple(con.rhs for con in p.constraints[1:]) for p in programs]
            assert start not in rhs

    def test_a_zero_found_before_the_frame_last_grew_is_solved_again(
        self, monkeypatch
    ):
        s = validate_instance(STALE_ZERO_ROWS)
        programs = record_programs(monkeypatch)
        _margin_pass(nondom(s))
        monkeypatch.undo()
        margins = assert_frame_contract(nondom(s))
        assert [m is None for m in margins] == [True, True, True, False]
        assert margins[3] > 0
        # Visits y1, y4 and y2 over the frame as it stands, y1 and y2
        # joining with no second program; then y4 again over V.
        assert margin_schedule(s, programs) == [
            ("y1", 1),
            ("y4", 2),
            ("y2", 2),
            ("y4", 3),
        ]
        report = {c.point_id: c.label for c in classify_all(s)}
        assert report["y4"] == Label.UNSUPPORTED

    def test_every_frame_member_is_a_vertex(self, monkeypatch):
        # Each member is checked against its margin over all the other
        # points, not against the pass's own verdicts, and the members
        # are then exactly the points with none.
        sets = differential_corpus() + clip_corpus_sets(random.Random(79))
        for s in sets:
            yn = nondom(s)
            events = frame_joins(monkeypatch)
            margins = _margin_pass(yn)
            monkeypatch.undo()
            frame = [least_row(yn)] + [k for kind, k in events if kind == "join"]
            assert len(frame) == len(set(frame))
            vertices = [_margin_over_others(k, yn) is None for k in frame]
            assert all(vertices), yn.coord_rows()
            assert sorted(frame) == [k for k, m in enumerate(margins) if m is None]

    def test_no_program_is_solved_over_the_frame_minus_one_member(
        self, monkeypatch
    ):
        # Every margin program's columns are the whole frame as it
        # stands, in join order: the frame never shrinks, and no member
        # is solved over the others.
        solved = 0
        for s in differential_corpus():
            yn = nondom(s)
            events = frame_joins(monkeypatch)
            _margin_pass(yn)
            monkeypatch.undo()
            frame = [yn.lattice[least_row(yn)]]
            for kind, item in events:
                if kind == "join":
                    frame.append(yn.lattice[item])
                    continue
                cols = list(zip(*(c.coeffs for c in item.constraints[1:])))[:-1]
                assert cols == frame, yn.coord_rows()
                y = tuple(con.rhs for con in item.constraints[1:])
                assert y not in frame
                solved += 1
        assert solved >= 600

    @pytest.mark.parametrize(
        "weight, message",
        [
            ((0, -1, 1), "not a nonzero weight >= 0"),
            ((0, 0, 0), "not a nonzero weight >= 0"),
            ((0, 1, 1), "minimized by the frame's"),
            ((0, 1, 0), "does not separate"),
        ],
    )
    def test_a_corrupted_farkas_weight_is_refused(self, monkeypatch, weight, message):
        # y5 = (20, 27) is infeasible over the frame's first member
        # y2 = (15, 30) (see FRAME_SCHEDULE).  A weight with a negative
        # entry, or the zero weight, proves nothing; (1, 1) is minimized
        # by y2 itself; (1, 0) is minimized by y1 = (10, 45), outside the
        # frame, but scores y5 above y2.
        monkeypatch.setattr(ndsupport.classify, "_farkas", lambda tab, r: list(weight))
        with pytest.raises(ConsistencyError, match=message):
            _margin_pass(nondom(validate_instance(PRUNING_ROWS)))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from((2, 3)))
    def test_row_sum_ties_with_a_first_visited_non_vertex(self, data, p):
        # Every row has sum 12, so the pass visits in input order, and the
        # first row is the midpoint of two others: no vertex, margin 0.
        rows = data.draw(
            st.lists(on_plane(p, 12), min_size=2, max_size=7, unique_by=tuple)
        )
        a, b = data.draw(st.permutations(rows))[:2]
        mid = [F(u + v, 2) for u, v in zip(a, b)]
        assume(mid not in rows)
        # Rows of larger sum come later, and no row of sum 12 is above them.
        above = st.lists(st.integers(0, 12), min_size=p, max_size=p)
        extra = data.draw(st.lists(above.filter(lambda r: sum(r) > 12), max_size=4))
        yn = nondom(validate_instance([mid] + rows + extra))
        assert yn.points[0].coords == tuple(mid)
        margins = assert_frame_contract(yn)
        assert margins[0] == 0

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=5))
    def test_a_single_point_is_a_vertex(self, row):
        assert _margin_pass(nondom(validate_instance([row]))) == [None]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_point_of_a_convex_curve_is_a_vertex(self, data):
        # Steps dx_k > 0 with strictly decreasing slopes -s_k: a strictly
        # convex decreasing chain, every point a vertex, in any order.
        n = data.draw(st.integers(1, 8))
        steps = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        slopes = data.draw(
            st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True)
        )
        rows = [[0, sum(dx * sl for dx, sl in zip(steps, slopes))]]
        for dx, sl in zip(steps, sorted(slopes, reverse=True)):
            rows.append([rows[-1][0] + dx, rows[-1][1] - dx * sl])
        yn = nondom(validate_instance(data.draw(st.permutations(rows))))
        assert assert_frame_contract(yn) == [None] * (n + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True),
        st.data(),
    )
    def test_lifted_near_collinear_sets(self, xs, data):
        rows = [[x, 30 - x + data.draw(st.integers(0, 1))] for x in xs]
        assert_frame_contract(nondom(lift_zero_objective(validate_instance(rows))))
