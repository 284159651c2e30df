import argparse
import errno
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from xml.etree import ElementTree

import pytest

import ndsupport.classify
import ndsupport.cli
from conftest import random_rational_rows, random_rows
from ndsupport.classify import CrossCheckReport, Label, classify_all
from ndsupport.cli import (
    LABEL_ORDER,
    _CHUNK,
    _coords_str,
    _write_report_json,
    _write_wsd_json,
    build_report,
    cross_check_to_json,
    main,
    report_to_table,
)
from ndsupport.instances import (
    enumerate_instance,
    enumerate_knapsack,
    generate_assignment,
    generate_knapsack,
    generate_points,
    lift_zero_objective,
    parse_instance,
)
from ndsupport.outcomes import OutcomePoint, OutcomeSet, validate_instance
from ndsupport.ratlp import format_rational
from ndsupport.render import svg_objective_space, svg_weight_space
from ndsupport.weightspace import WeightCell, cell_interval, decompose

COUNTEREXAMPLE_JSON = '{"objectives": 3, "points": [[2,9,1],[3,6,1],[8,3,1],[6,5,1]]}\n'
FIG2D_JSON = '{"objectives": 2, "points": [[2,9],[3,6],[8,3],[6,5],[3,9],[7,7]]}\n'


@pytest.fixture
def counterexample_file(tmp_path):
    path = tmp_path / "counterexample.json"
    path.write_text(COUNTEREXAMPLE_JSON)
    return str(path)


@pytest.fixture
def fig2d_file(tmp_path):
    path = tmp_path / "fig2d.json"
    path.write_text(FIG2D_JSON)
    return str(path)


class TestClassify:
    def test_table_output(self, counterexample_file, capsys):
        assert main(["classify", counterexample_file]) == 0
        out = capsys.readouterr().out
        assert "extreme-supported=3" in out
        assert "weakly-supported-only=1" in out
        assert "all equivalences hold" in out
        for pid in ("y1", "y2", "y3", "y4"):
            assert pid in out

    def test_json_output(self, counterexample_file, capsys):
        assert main(["classify", counterexample_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digest"]["counts"]["extreme-supported"] == 3
        assert doc["digest"]["counts"]["weakly-supported-only"] == 1
        labels = {row["id"]: row["label"] for row in doc["points"]}
        assert labels["y4"] == "weakly-supported-only"
        assert doc["cross_check"]["all_ok"] is True
        y4 = next(r for r in doc["points"] if r["id"] == "y4")
        assert y4["boundary"] is True and y4["frontier"] is False

    def test_digest_counts_equal_row_tallies(self, fig2d_file, capsys):
        assert main(["classify", fig2d_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        tally = {}
        for row in doc["points"]:
            tally[row["label"]] = tally.get(row["label"], 0) + 1
        counts = {k: v for k, v in doc["digest"]["counts"].items() if v}
        assert counts == tally

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [
            (b'{"points": [[1,2],[3]]}', "dimension mismatch"),
            (b'{"points": [[1, 2]], "note": "\xff"}', "not UTF-8"),
            (b'{"points": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "error:"),
            (b'{"points": [[' + b"7" * 5_000 + b", 2]]}", "error:"),
            (b'{"points": [["' + b"x" * 3_000 + b'", 2]]}', "not a rational literal"),
            (b'{"points": [[{"' + b"k" * 2_000 + b'": 1}, 2]]}', "cannot read"),
            (
                b'{"knapsack": {"capacity": "' + b"c" * 3_000
                + b'", "items": [{"weight": 1, "costs": [1, 2]}]}}',
                "expected an integer",
            ),
        ],
        ids=[
            "dimension-mismatch",
            "not-utf8",
            "too-deep",
            "int-too-long",
            "long-string",
            "long-dict-key",
            "long-int-field",
        ],
    )
    def test_malformed_instance(self, tmp_path, capsys, body, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(body)
        assert main(["classify", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        # one short line: a large malformed value is not echoed whole
        assert len(err.splitlines()) == 1 and len(err) <= 200

    def test_knapsack_spec_classifies(self, tmp_path, capsys):
        spec = tmp_path / "ks.json"
        spec.write_text(
            '{"knapsack": {"capacity": 1, "items": '
            '[{"weight": 1, "costs": [1, 4]}, {"weight": 1, "costs": [4, 1]}]}}'
        )
        assert main(["classify", str(spec), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digest"]["points"] == 3
        labels = {row["id"]: row["label"] for row in doc["points"]}
        # (0,0) dominates both single-item selections.
        assert sorted(labels.values()) == ["dominated", "dominated", "extreme-supported"]

    def test_objective_space_svg(self, fig2d_file, tmp_path, capsys):
        svg = tmp_path / "fig.svg"
        assert main(["classify", fig2d_file, "--svg", str(svg)]) == 0
        body = svg.read_text()
        assert body.startswith("<svg") and "</svg>" in body
        # One marker shape per class: circles for the three extremes, a
        # cross for the unsupported point, diamonds for the dominated two.
        assert body.count('r="5" fill="#1f5fa8"') == 3
        assert body.count("<path d=\"M") >= 3  # 1 cross + 2 diamonds
        assert "polyline" in body  # frontier staircase
        again = tmp_path / "fig2.svg"
        assert main(["classify", fig2d_file, "--svg", str(again)]) == 0
        assert again.read_text() == body  # deterministic bytes

    def test_vertex_off_the_frontier_exits_3(self, counterexample_file, monkeypatch, capsys):
        # A vertex of the upper image always has a strictly positive
        # witness; sabotage the frontier verdict classify_all uses.
        monkeypatch.setattr(ndsupport.classify, "_on_frontier", lambda y, pts, family: False)
        assert main(["classify", counterexample_file]) == 3
        err = capsys.readouterr().err
        assert "a vertex of the upper image is off the frontier" in err
        assert "point y1" in err

    def test_svg_refused_for_three_objectives(self, counterexample_file, tmp_path, capsys):
        svg = tmp_path / "nope.svg"
        assert main(["classify", counterexample_file, "--svg", str(svg)]) == 0
        assert not svg.exists()
        assert "no SVG written" in capsys.readouterr().err


@pytest.mark.parametrize("p", [2, 3])
def test_ids_survive_every_figure(p):
    ids = ("a<b", "x & y", "c>d")
    rows = [(1, 5), (2, 2), (5, 1)] if p == 2 else [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    s = OutcomeSet(p, [OutcomePoint(i, row) for i, row in zip(ids, rows)])
    figures = [svg_weight_space(decompose(s), p)]
    if p == 2:
        figures.append(svg_objective_space(s, classify_all(s)))
    for figure in figures:
        root = ElementTree.fromstring(figure)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert set(ids) <= set(texts)


def _vector_json(vec):
    return None if vec is None else [format_rational(v) for v in vec]


def report_to_json(report) -> dict:
    """The classify document as a dict, as the CLI built it from
    ``classify_all``'s records, one per point, before it streamed the
    text: the reference for ``_write_report_json``."""
    classifications = classify_all(report.outcomes)
    counts = Counter(c.label.value for c in classifications)
    checks = CrossCheckReport(
        p=report.outcomes.p,
        checks=tuple(c.check for c in classifications if c.check is not None),
    )
    return {
        "digest": {
            "objectives": report.outcomes.p,
            "points": len(report.outcomes),
            "counts": {label.value: counts.get(label.value, 0) for label in LABEL_ORDER},
        },
        "points": [
            {
                "id": c.point_id,
                "coords": _vector_json(report.outcomes.get(c.point_id).coords),
                "multiplicity": report.outcomes.multiplicity[c.point_id],
                "label": c.label.value,
                "frontier": c.frontier,
                "boundary": c.boundary,
                "weak_witness": _vector_json(c.weak_witness),
                "strict_witness": _vector_json(c.strict_witness),
            }
            for c in classifications
        ],
        "cross_check": cross_check_to_json(checks),
        "elapsed_seconds": round(report.elapsed_seconds, 6),
    }


def wsd_to_json(cells, p) -> dict:
    """The wsd document as a dict, as the CLI built it from each cell's
    ``hrep`` before it streamed the text: the reference for
    ``_write_wsd_json``."""
    doc_cells = []
    for cell in cells:
        entry = {
            "id": cell.point_id,
            "full_dimensional": cell.is_full_dimensional,
            "hrep": [
                {
                    "coeffs": _vector_json(con.coeffs),
                    "relation": con.relation,
                    "rhs": format_rational(con.rhs),
                }
                for con in cell.hrep
            ],
            "projected_vertices": None
            if cell.projected_vertices is None
            else [_vector_json(v) for v in cell.projected_vertices],
        }
        if p == 2:
            interval = cell_interval(cell)
            entry["interval"] = None if interval is None else _vector_json(interval)
        doc_cells.append(entry)
    return {"objectives": p, "cells": doc_cells}


class _Writes(io.StringIO):
    """A text stream that remembers the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


class TestReportWriter:
    def _written(self, outcome_set):
        report = build_report(outcome_set)
        out = _Writes()
        _write_report_json(report, out)
        assert out.getvalue() == json.dumps(report_to_json(report), indent=2) + "\n"
        return report, out

    @staticmethod
    def sets():
        rng = random.Random(113)
        sets = [
            # all five labels: weakly-supported-only needs p >= 3
            validate_instance([[2, 9, 1], [3, 6, 1], [8, 3, 1], [6, 5, 1]]),
            validate_instance([[2, 9], [3, 6], [8, 3], [6, 5], [3, 9], [7, 7]]),
            validate_instance([[0, 6], [1, 4], [2, 2], [3, 0], [1, 4], [9, 9]]),
            enumerate_knapsack(generate_knapsack(8, 2, 3)),
        ]
        for p in range(2, 6):
            sets.append(generate_points(25, p, p))
            sets.append(validate_instance(random_rows(rng, 20, p, 0, 6)))
            sets.append(validate_instance(random_rational_rows(rng, 15, p)))
        return sets

    def test_matches_json_dumps_of_the_dict_document(self):
        sets = self.sets()
        labels = set()
        for s in sets:
            report, _ = self._written(s)
            labels |= {c.label for c in classify_all(report.outcomes)}
        assert labels == set(Label)
        assert any(m > 1 for s in sets for m in s.multiplicity.values())

    def test_label_counts_are_the_tally_of_classify_all(self):
        dominated = []
        for s in self.sets():
            report = build_report(s)
            expected = Counter(c.label.value for c in classify_all(s))
            # no dominated key when no point is dominated, as in a Counter
            assert dict(report.label_counts) == dict(expected)
            dominated.append(expected[Label.DOMINATED.value])
            assert len(report.records) == len(s) - dominated[-1]
        assert 0 in dominated and max(dominated) > 0

    def test_lattice_coords_over_a_scale_with_negative_values(self):
        s = validate_instance(
            [["-3/2", 4], ["1/3", "-5/6"], [2, "-7/4"], ["-1/2", "5/4"], [1, 1]]
        )
        values = [v for row in s.lattice for v in row]
        assert s.scale == 12 and min(values) < 0
        # values sharing a factor with the scale are written reduced
        assert any(1 < math.gcd(v, s.scale) < s.scale for v in values)
        report, _ = self._written(s)
        rows = report_to_table(report).splitlines()[3:-2]
        assert len(rows) == len(s)
        for c, line in zip(classify_all(report.outcomes), rows):
            cells = re.split(r"\s{2,}", line)
            assert cells[:2] == [c.point_id, _coords_str(s.get(c.point_id).coords)]

    def test_quoted_and_non_ascii_ids(self):
        s = OutcomeSet(
            p=2,
            points=(
                OutcomePoint('say "hi"', (1, 5)),
                OutcomePoint("caf\u00e9 \u2014 \\ \t", (2, 2)),
                OutcomePoint("\U0001f600", (5, 1)),
                OutcomePoint("z", (6, 6)),
            ),
            multiplicity={"z": 3},
        )
        self._written(s)

    def test_large_report_is_written_in_chunks(self):
        report, out = self._written(enumerate_knapsack(generate_knapsack(12, 2, 1)))
        assert len(out.sizes) > 2
        longest_record = 600  # far above one point record at p = 2
        assert max(out.sizes) < _CHUNK + longest_record


class TestWsdWriter:
    def _written(self, outcome_set):
        cells = decompose(outcome_set)
        out = _Writes()
        _write_wsd_json(cells, outcome_set.p, out)
        assert out.getvalue() == json.dumps(wsd_to_json(cells, outcome_set.p), indent=2) + "\n"
        return cells, out

    def test_matches_json_dumps_of_the_dict_document(self):
        rng = random.Random(127)
        sets = [
            validate_instance([[2, 9, 1], [3, 6, 1], [8, 3, 1], [6, 5, 1]]),
            validate_instance([[2, 9], [3, 6], [8, 3], [6, 5], [3, 9], [7, 7]]),
            enumerate_knapsack(generate_knapsack(8, 2, 3)),
        ]
        for p in range(2, 6):
            sets.append(generate_points(25, p, p))
            sets.append(validate_instance(random_rows(rng, 20, p, 0, 6)))
            sets.append(validate_instance(random_rational_rows(rng, 15, p)))
        cells = [self._written(s)[0] for s in sets]
        assert {s.p for s in sets} == {2, 3, 4, 5}
        assert any(s.scale > 1 for s in sets)
        # some rows print a quoted fraction, some cells are degenerate
        assert any(con.rhs % c.scale or any(v % c.scale for v in con.coeffs)
                   for cs in cells for c in cs for con in c.rows)
        assert any(not c.is_full_dimensional for cs in cells for c in cs)

    def test_weakly_supported_only_cells(self):
        lifted = lift_zero_objective(enumerate_instance(generate_assignment(7, 3, 0)))
        cells, _ = self._written(lifted)
        assert sum(not c.is_full_dimensional for c in cells) == 23

    def test_quoted_and_non_ascii_ids(self):
        s = OutcomeSet(
            p=2,
            points=(
                OutcomePoint('say "hi"', (1, 5)),
                OutcomePoint("caf\u00e9 \u2014 \\ \t", (2, 2)),
                OutcomePoint("\U0001f600", (5, 1)),
                OutcomePoint("z", (6, 6)),
            ),
        )
        cells, _ = self._written(s)
        assert len(cells) == 3

    def test_large_document_is_written_in_chunks(self):
        rows = [[i, (60 - i) ** 2, (i - 30) ** 2] for i in range(61)]
        cells, out = self._written(validate_instance(rows))
        assert len(out.sizes) > 2

        def document(cell):
            single = io.StringIO()
            _write_wsd_json([cell], 3, single)
            return single.getvalue()

        assert max(out.sizes) < _CHUNK + max(len(document(c)) for c in cells)


def unwritable_path(tmp_path, target):
    """An output path that cannot be opened for writing."""
    if target == "directory":
        return tmp_path
    if target == "missing-parent":
        return tmp_path / "missing" / "x.out"
    return ""


class TestOutputPaths:
    @pytest.mark.parametrize("target", ["directory", "missing-parent", "empty"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "points", "5", "2", "--out"],
            ["lift", "FIG2D", "--out"],
            ["wsd", "FIG2D", "--out"],
            ["wsd", "FIG2D", "--svg"],
            ["classify", "FIG2D", "--svg"],
        ],
        ids=["gen-out", "lift-out", "wsd-out", "wsd-svg", "classify-svg"],
    )
    def test_unwritable_output_exits_2(self, fig2d_file, tmp_path, capsys, argv, target):
        out = unwritable_path(tmp_path, target)
        argv = [fig2d_file if a == "FIG2D" else a for a in argv] + [str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("target", ["directory", "missing-parent", "empty"])
    @pytest.mark.parametrize(
        "argv, work",
        [
            (["classify", "FIG2D", "--svg"], "build_report"),
            (["wsd", "FIG2D", "--out"], "decompose"),
            (["wsd", "FIG2D", "--svg"], "decompose"),
        ],
        ids=["classify-svg", "wsd-out", "wsd-svg"],
    )
    def test_unwritable_output_is_refused_before_any_work(
        self, fig2d_file, tmp_path, monkeypatch, capsys, argv, work, target
    ):
        def refuse(*args):
            raise AssertionError(f"{work} ran before the output path was opened")

        monkeypatch.setattr(ndsupport.cli, work, refuse)
        out = unwritable_path(tmp_path, target)
        argv = [fig2d_file if a == "FIG2D" else a for a in argv] + [str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("svg", ["P", "link to P"])
    def test_document_and_figure_in_one_file_are_refused(
        self, tmp_path, monkeypatch, capsys, svg
    ):
        # The 895-byte figure of this set is longer than its 888-byte
        # document, so writing both into P would leave neither.
        instance = tmp_path / "single.json"
        instance.write_text('{"objectives": 3, "points": [[5, 5, 5]]}\n')
        target = tmp_path / "P"
        target.write_bytes(b"left as it was\n")
        figure = target
        if svg == "link to P":
            figure = tmp_path / "link"
            figure.symlink_to(target)

        def refuse(*args):
            raise AssertionError("decompose ran before the outputs were checked")

        monkeypatch.setattr(ndsupport.cli, "decompose", refuse)
        argv = ["wsd", str(instance), "--out", str(target), "--svg", str(figure)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert target.read_bytes() == b"left as it was\n"

    @pytest.mark.parametrize(
        "argv, work",
        [
            (["wsd", "P3", "--svg", "-"], "decompose"),
            (["classify", "FIG2D", "--svg", "-"], "build_report"),
        ],
        ids=["wsd-svg-stdout", "classify-svg-stdout"],
    )
    def test_two_outputs_on_stdout_are_refused(
        self, counterexample_file, fig2d_file, monkeypatch, capsys, argv, work
    ):
        def refuse(*args):
            raise AssertionError(f"{work} ran before the outputs were checked")

        monkeypatch.setattr(ndsupport.cli, work, refuse)
        files = {"P3": counterexample_file, "FIG2D": fig2d_file}
        assert main([files.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "stdout, svg",
        [("file", "/dev/stdout"), ("pipe", "/dev/stdout"), ("file", "the stdout file")],
        ids=["dev-stdout-to-file", "dev-stdout-to-pipe", "stdout-file-by-name"],
    )
    def test_figure_to_the_file_of_stdout_is_refused(self, tmp_path, stdout, svg):
        # Both outputs would land in stdout's file: into a file the figure
        # overwrites the document, through a pipe they come out joined.
        instance = tmp_path / "single.json"
        instance.write_text('{"objectives": 3, "points": [[5, 5, 5]]}\n')
        target = tmp_path / "out"
        figure = str(target) if svg == "the stdout file" else svg
        argv = [sys.executable, "-m", "ndsupport", "wsd", str(instance), "--svg", figure]
        with open(target, "w") as handle:
            proc = subprocess.run(
                argv,
                stdout=handle if stdout == "file" else subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert not proc.stdout
        assert target.read_text() == ""

    def test_named_figure_next_to_captured_stdout(
        self, counterexample_file, tmp_path, capsys
    ):
        # Captured stdout has no file descriptor, so no named path is it.
        svg = tmp_path / "fig.svg"
        assert main(["wsd", counterexample_file, "--svg", str(svg)]) == 0
        assert len(json.loads(capsys.readouterr().out)["cells"]) == 4
        assert svg.read_text().startswith("<svg")

    def test_document_to_file_and_figure_to_stdout(
        self, counterexample_file, tmp_path, capsys
    ):
        doc = tmp_path / "doc.json"
        argv = ["wsd", counterexample_file, "--out", str(doc), "--svg", "-"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg") and out.endswith("</svg>\n")
        assert len(json.loads(doc.read_text())["cells"]) == 4


class FullStream(io.StringIO):
    """A stdout on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


NO_SPACE = os.strerror(errno.ENOSPC)
ALL_COMMANDS = [
    ["classify", "FIG2D"],
    ["classify", "FIG2D", "--format", "json"],
    ["classify", "FIG2D", "--svg", "FIGURE"],
    ["check", "FIG2D"],
    ["check", "FIG2D", "--format", "json"],
    ["wsd", "FIG2D"],
    ["wsd", "FIG2D", "--svg", "FIGURE"],
    ["dichotomic", "FIG2D"],
    ["dichotomic", "FIG2D", "--format", "json"],
    ["lift", "FIG2D"],
    ["gen", "points", "5", "2"],
]
needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="no /dev/full on this system"
)


class TestFailedWrites:
    """A failed write exits 2 with one error line naming the output that
    failed, never another output of the same command."""

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=" ".join)
    def test_failed_stdout_write_names_stdout(
        self, fig2d_file, tmp_path, monkeypatch, capsys, argv
    ):
        figure = tmp_path / "figure.svg"
        names = {"FIG2D": fig2d_file, "FIGURE": str(figure)}
        monkeypatch.setattr(sys, "stdout", FullStream())
        assert main([names.get(a, a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: cannot write stdout: {NO_SPACE}\n"

    @needs_dev_full
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "FIG2D", "--svg"],
            ["wsd", "FIG2D", "--svg"],
            ["wsd", "FIG2D", "--out"],
            ["lift", "FIG2D", "--out"],
            ["gen", "points", "5", "2", "--out"],
        ],
        ids=" ".join,
    )
    def test_failed_path_write_names_the_path(self, fig2d_file, capsys, argv):
        argv = [fig2d_file if a == "FIG2D" else a for a in argv] + ["/dev/full"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write /dev/full: {NO_SPACE}\n"

    @needs_dev_full
    @pytest.mark.parametrize(
        "argv", [c for c in ALL_COMMANDS if "--format" not in c], ids=" ".join
    )
    def test_stdout_on_a_full_device(self, fig2d_file, tmp_path, argv):
        names = {"FIG2D": fig2d_file, "FIGURE": str(tmp_path / "figure.svg")}
        argv = [sys.executable, "-m", "ndsupport"] + [names.get(a, a) for a in argv]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write stdout: {NO_SPACE}\n"


def test_two_calls_build_at_most_one_parser_tree(fig2d_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["dichotomic", fig2d_file]) == 0
    first_call = len(built)
    assert main(["dichotomic", fig2d_file]) == 0
    assert len(built) == first_call


def count_classify_solves(monkeypatch) -> list:
    """Record every LP the classify module solves, through lp_solve or
    _solve."""
    calls = []
    for name in ("lp_solve", "_solve"):
        solve = getattr(ndsupport.classify, name)

        def counted(*args, solve=solve, name=name, **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)

        monkeypatch.setattr(ndsupport.classify, name, counted)
    return calls


class TestSolveCount:
    """Each per-point program is solved at most once per classify run,
    except the margin: the frame pass solves a point over the frame as
    it stands, and again each time that visit adds another point to the
    frame, off an infeasible program's Farkas weight or an uncertified
    zero's optimal weight; the first frame member needs no visit.  The
    margin gives the vertex, boundary and interior verdicts; then
    frontier and witness follow for each point on the boundary (an
    interior point is settled by its margin).  The witness program is
    over V rows, and a fallback to the full rows, when its optimum is
    not provably unique, is one more solve."""

    def test_at_most_four_solves_per_nondominated_point(
        self, counterexample_file, fig2d_file, monkeypatch, capsys
    ):
        for path in (counterexample_file, fig2d_file):
            calls = count_classify_solves(monkeypatch)
            assert main(["classify", path, "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            nondominated = sum(row["label"] != "dominated" for row in doc["points"])
            assert 0 < len(calls) <= 4 * nondominated
            monkeypatch.undo()

    def test_svg_adds_no_solves(self, fig2d_file, tmp_path, monkeypatch, capsys):
        calls = count_classify_solves(monkeypatch)
        assert main(["classify", fig2d_file, "--format", "json"]) == 0
        without_svg = len(calls)
        calls.clear()
        svg = tmp_path / "fig.svg"
        assert main(["classify", fig2d_file, "--format", "json", "--svg", str(svg)]) == 0
        assert svg.exists()
        assert len(calls) == without_svg


class TestCheck:
    def test_paper_instance_passes(self, counterexample_file, capsys):
        assert main(["check", counterexample_file]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_json_format(self, counterexample_file, capsys):
        assert main(["check", counterexample_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_ok"] is True
        y4 = next(c for c in doc["points"] if c["id"] == "y4")
        assert y4["supported"] is False and y4["on_frontier"] is False

    def test_forced_violation_exits_3(self, counterexample_file, capsys, monkeypatch):
        # Sabotage one side of an equivalence to prove code 3 is wired up.
        monkeypatch.setattr(ndsupport.classify, "_on_frontier", lambda y, pts, family: True)
        assert main(["check", counterexample_file]) == 3
        assert "FAIL" in capsys.readouterr().out


class TestWsd:
    def test_document_and_figure(self, counterexample_file, tmp_path, capsys):
        doc_path = tmp_path / "wsd.json"
        svg_path = tmp_path / "wsd.svg"
        assert main(
            ["wsd", counterexample_file, "--out", str(doc_path), "--svg", str(svg_path)]
        ) == 0
        doc = json.loads(doc_path.read_text())
        cells = {c["id"]: c for c in doc["cells"]}
        assert set(cells) == {"y1", "y2", "y3", "y4"}
        assert cells["y1"]["projected_vertices"] == [[0, 0], [1, 0], ["3/4", "1/4"]]
        assert cells["y4"]["projected_vertices"] == [[0, 0]]
        assert cells["y4"]["full_dimensional"] is False
        svg = svg_path.read_text()
        assert svg.startswith("<svg")

    def test_every_emitted_vertex_revalidates(self, tmp_path, capsys):
        from conftest import random_rows
        import random as pyrandom

        rng = pyrandom.Random(5)
        path = tmp_path / "inst.json"
        rows = random_rows(rng, 8, 3, 0, 20)
        path.write_text(json.dumps({"objectives": 3, "points": rows}))
        assert main(["wsd", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        from fractions import Fraction as F

        def parse_fr(v):
            return F(v) if isinstance(v, int) else F(*map(int, v.split("/")))

        for cell in doc["cells"]:
            for vertex in cell["projected_vertices"]:
                l1, l2 = (parse_fr(v) for v in vertex)
                lam = (l1, l2, 1 - l1 - l2)
                for con in cell["hrep"]:
                    coeffs = [parse_fr(c) for c in con["coeffs"]]
                    rhs = parse_fr(con["rhs"])
                    lhs = sum(c * v for c, v in zip(coeffs, lam))
                    assert lhs == rhs if con["relation"] == "=" else lhs >= rhs

    def test_interval_bar_svg_for_two_objectives(self, fig2d_file, tmp_path):
        svg_path = tmp_path / "bar.svg"
        assert main(["wsd", fig2d_file, "--svg", str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<svg")

    @pytest.mark.parametrize("svg", [False, True], ids=["document", "with-figure"])
    def test_hrep_is_built_once_per_printed_cell(self, tmp_path, monkeypatch, capsys, svg):
        # The document, the interval and the figure all read the cell's
        # int rows; no hrep is built in Fractions.
        path = tmp_path / "k15.json"
        assert main(["gen", "knapsack", "15", "2", "--out", str(path)]) == 0
        builds = []
        hrep = WeightCell.hrep.fget

        def counted(cell):
            builds.append(cell.point_id)
            return hrep(cell)

        monkeypatch.setattr(WeightCell, "hrep", property(counted))
        argv = ["wsd", str(path)] + (["--svg", str(tmp_path / "k15.svg")] if svg else [])
        assert main(argv) == 0
        printed = [c["id"] for c in json.loads(capsys.readouterr().out)["cells"]]
        assert len(printed) == 7
        assert builds == []

    def test_svg_refusal_for_p4_still_emits_document(self, tmp_path, capsys):
        path = tmp_path / "p4.json"
        path.write_text('{"objectives": 4, "points": [[1,2,3,4],[4,3,2,1]]}')
        svg_path = tmp_path / "p4.svg"
        assert main(["wsd", str(path), "--svg", str(svg_path)]) == 0
        captured = capsys.readouterr()
        assert "no SVG written" in captured.err
        assert json.loads(captured.out)["objectives"] == 4
        assert not svg_path.exists()


class TestLiftGenDichotomic:
    def test_lift_appends_zero(self, fig2d_file, capsys):
        assert main(["lift", fig2d_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["objectives"] == 3
        assert doc["points"][0] == [2, 9, 0]

    def test_gen_is_deterministic(self, capsys):
        assert main(["gen", "knapsack", "10", "2", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "knapsack", "10", "2", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
        spec = parse_instance(first)
        assert len(spec.items) == 10 and spec.p == 2

    def test_gen_classify_pipeline_deterministic(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        outputs = []
        for _ in range(2):
            assert main(["gen", "knapsack", "10", "2", "--seed", "7", "--out", str(path)]) == 0
            assert main(["classify", str(path), "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("elapsed_seconds")
            outputs.append(doc)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("kind", ["knapsack", "assignment", "points"])
    def test_gen_negative_size_exits_2(self, capsys, kind):
        assert main(["gen", kind, "-3", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_gen_knapsack_with_no_items_is_valid(self, capsys):
        assert main(["gen", "knapsack", "0", "2"]) == 0
        assert parse_instance(capsys.readouterr().out).items == ()

    def test_dichotomic_table(self, fig2d_file, capsys):
        assert main(["dichotomic", fig2d_file]) == 0
        out = capsys.readouterr().out
        assert "extremes: 3" in out

    def test_dichotomic_json(self, fig2d_file, capsys):
        assert main(["dichotomic", fig2d_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["coords"] for e in doc["extremes"]] == [[2, 9], [3, 6], [8, 3]]

    def test_dichotomic_refuses_three_objectives(self, counterexample_file, capsys):
        assert main(["dichotomic", counterexample_file]) == 2
        assert "two objectives" in capsys.readouterr().err

    def test_witness_longer_than_the_int_to_str_limit(self, tmp_path, capsys):
        # Every input number has at most 2,500 digits, under Python's
        # default int-to-str limit of 4,300; the weight that ties the two
        # points has numerator and denominator near 4,900 digits each.
        a, b, c, d = "7" * 2500, "3" * 2400 + "1", "9" * 2450 + "7", "1" * 2300 + "3"
        path = tmp_path / "long.json"
        doc = {"objectives": 2, "points": [["0", f"{a}/{b}"], [f"{c}/{d}", "0"]]}
        path.write_text(json.dumps(doc))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        for fmt in ("table", "json"):
            assert main(["dichotomic", str(path), "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        witnesses = [e["witness"] for e in json.loads(out)["extremes"]]
        assert len(witnesses) == 2
        longest = max(len(part) for w in witnesses for v in w for part in v.split("/"))
        assert longest > 4300
        # The input is still read under the limit.
        doc["points"][0][1] = "7" * 5000
        path.write_text(json.dumps(doc))
        assert main(["dichotomic", str(path)]) == 2
        assert "not a rational literal" in capsys.readouterr().err


def test_a_malformed_document_exits_2(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"points": [[1, true], [2, 3]]}')
    assert main(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: points[0][1]: booleans are not coordinates\n"


def test_module_invocation_smoke(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(COUNTEREXAMPLE_JSON)
    proc = subprocess.run(
        [sys.executable, "-m", "ndsupport", "classify", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "extreme-supported" in proc.stdout
