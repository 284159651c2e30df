import itertools
import random
from fractions import Fraction as F

import pytest

import ndsupport.classify
import ndsupport.weightspace
from conftest import (
    hull_labels_2d,
    random_rational_rows,
    random_rows,
    reference_is_vertex,
)
from ndsupport.classify import (
    Classification,
    Label,
    WeightVector,
    _check_weight_certificate,
    _margin,
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
        y1 = yn.get("y1")
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
    for y, row in zip(yn, yn.lattice):
        check, solved = _point_check(y, yn, yn.lattice, _margin(row, yn.lattice))
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


def anticorrelated_rows(rng, n, p, noise=15):
    """First p - 1 coordinates uniform in 0..100, the last one within
    noise of 100 (p - 1) minus their sum, so most points are
    non-dominated; with no noise every point is on one hyperplane."""
    rows = []
    for _ in range(n):
        head = [rng.randint(0, 100) for _ in range(p - 1)]
        rows.append(head + [100 * (p - 1) - sum(head) + rng.randint(-noise, noise)])
    return rows


def differential_corpus():
    """Seeded base sets for p = 2..5 of four kinds, each followed by
    its zero-objective lift."""
    rng = random.Random(53)
    sets = []
    for p in (2, 3, 4, 5):
        for kind in ("anticorrelated", "hyperplane", "rational", "small-range"):
            for _ in range(4 if p < 4 else 3):
                n = rng.randint(5, 14 if p < 4 else 10)
                if kind == "anticorrelated":
                    rows = anticorrelated_rows(rng, n, p)
                elif kind == "hyperplane":
                    rows = anticorrelated_rows(rng, n, p, noise=0)
                elif kind == "rational":
                    rows = random_rational_rows(rng, n, p)
                else:
                    rows = random_rows(rng, n, p, 0, 3)
                base = validate_instance(rows, p)
                sets.append(base)
                sets.append(lift_zero_objective(base))
    # Two larger p = 3 sets.  On the first (seed 31) a vertex's max-min
    # witness is not unique and a Bland path over the vertex rows alone
    # ends at another optimum: it keeps the comparison sensitive to the
    # rows of the witness programs of boundary points, and so to the
    # uniqueness proof that lets classify_all solve them over V rows.
    for seed, noise in ((31, 3), (133, 1)):
        rng = random.Random(seed)
        rows = anticorrelated_rows(rng, rng.randint(20, 30), 3, noise)
        base = validate_instance(rows, 3)
        sets.append(base)
        sets.append(lift_zero_objective(base))
    return sets


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

        def recorded(program, solve=solve):
            programs.append(program)
            return solve(program)

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
        # One margin program per point and no vertex program.  The margin
        # proves y4 interior, which settles it: only the four boundary
        # points get a frontier and a witness program.
        per_point = ["frontier", "witness"]
        assert kinds == ["boundary"] * len(s) + per_point * (len(s) - 1)
        # Each margin program has the columns the pass still keeps, minus
        # the point itself, plus eps.  y4 leaves them once its margin
        # proves it is no vertex, so y5's program is one column narrower.
        assert [program.num_vars for program in programs[: len(s)]] == [5, 5, 5, 5, 4]
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
        # runs: one margin program per point over the shrinking columns,
        # and no witness program; the cells keep its rows unsolved.
        assert not hasattr(ndsupport.weightspace, "lp_solve")
        s = validate_instance(PRUNING_ROWS)
        programs = record_programs(monkeypatch)
        cells = decompose(s)
        assert [program_kind(program) for program in programs] == ["boundary"] * len(s)
        assert [program.num_vars for program in programs] == [5, 5, 5, 5, 4]
        # y4 is interior, so it has no cell; y5 is on the boundary but no
        # vertex, so its cell is a single weight.
        assert [(c.point_id, c.is_full_dimensional) for c in cells] == [
            ("y1", True),
            ("y2", True),
            ("y3", True),
            ("y5", False),
        ]
