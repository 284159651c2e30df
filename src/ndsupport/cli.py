"""Command-line surface.

Subcommands: classify, check, wsd, lift, gen, dichotomic.  Exit codes:
0 on success, 2 on any input problem (missing file, parse error, bad
dimensions), and 3 when a proven equivalence between the independent
supportedness tests fails - code 3 signals a bug in this package, not
a property of the instance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from functools import cache, cached_property, partial
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from .classify import (
    Classification,
    CrossCheckReport,
    Label,
    _classify_nondominated,
    cross_check,
)
from .dichotomic import dichotomic_extremes
from .errors import ConsistencyError, ValidationError
from .instances import (
    Instance,
    enumerate_instance,
    generate_assignment,
    generate_knapsack,
    generate_points,
    lift_zero_objective,
    parse_instance,
    serialize_instance,
)
from .outcomes import OutcomeSet, _Interned
from .ratlp import format_rational
from .render import svg_objective_space, svg_weight_space
from .weightspace import WeightCell, cell_interval, decompose

LABEL_ORDER = (
    Label.EXTREME_SUPPORTED,
    Label.SUPPORTED,
    Label.WEAKLY_SUPPORTED_ONLY,
    Label.UNSUPPORTED,
    Label.DOMINATED,
)


@dataclass(frozen=True)
class Report:
    """Classification report: the non-dominated points' records, by id
    in input order, and timing.  A point with no record is dominated.
    The digest counts and the cross-check verdicts computed while
    labelling are both read off the records, so they always agree with
    them."""

    outcomes: OutcomeSet
    records: Mapping[str, Classification]
    elapsed_seconds: float

    @cached_property
    def label_counts(self) -> Mapping[str, int]:
        counts = Counter(c.label.value for c in self.records.values())
        dominated = len(self.outcomes) - len(self.records)
        if dominated:
            counts[Label.DOMINATED.value] = dominated
        return counts

    @cached_property
    def checks(self) -> CrossCheckReport:
        return CrossCheckReport(
            p=self.outcomes.p,
            checks=tuple(c.check for c in self.records.values()),
        )


def build_report(outcome_set: OutcomeSet) -> Report:
    start = time.perf_counter()
    records = _classify_nondominated(outcome_set)
    return Report(outcome_set, records, time.perf_counter() - start)


def _vector_json(vec):
    return None if vec is None else [format_rational(v) for v in vec]


def cross_check_to_json(checks: CrossCheckReport) -> dict:
    return {
        "all_ok": checks.all_ok,
        "points": [
            {
                "id": c.point_id,
                "weakly_supported": c.weakly_supported,
                "on_boundary": c.on_boundary,
                "supported": c.supported,
                "on_frontier": c.on_frontier,
                "boundary_equivalence_ok": c.boundary_equivalence_ok,
                "frontier_equivalence_ok": c.frontier_equivalence_ok,
                "biobjective_collapse_ok": c.biobjective_collapse_ok,
            }
            for c in checks.checks
        ],
    }


def _coords_str(coords) -> str:
    """Exact values as a table writes them: (1, -3/2, ...)."""
    return "(" + ", ".join([_plain(c.numerator, c.denominator) for c in coords]) + ")"


def _witness_str(vec) -> str:
    return "-" if vec is None else _coords_str(vec)


# The label, frontier, boundary, weak and strict cells of a dominated
# point's row.
_DOMINATED_CELLS = (Label.DOMINATED.value, "no", "no", "-", "-")


def report_to_table(report: Report) -> str:
    lines = [
        f"instance: {report.outcomes.p} objectives, {len(report.outcomes)} points"
    ]
    digest = ", ".join(
        f"{label.value}={report.label_counts.get(label.value, 0)}"
        for label in LABEL_ORDER
        if report.label_counts.get(label.value)
    )
    lines.append(f"counts: {digest}")
    header = ("id", "coords", "label", "frontier", "boundary", "weak", "strict")
    table = [header]
    outcomes, records = report.outcomes, report.records
    text = _Interned(partial(_plain, s=outcomes.scale))
    for pid, row in zip(outcomes.ids, outcomes.lattice):
        c = records.get(pid)
        cells = _DOMINATED_CELLS if c is None else (
            c.label.value,
            "yes" if c.frontier else "no",
            "yes" if c.boundary else "no",
            _witness_str(c.weak_witness),
            _witness_str(c.strict_witness),
        )
        coords = "(" + ", ".join(map(text.__getitem__, row)) + ")"
        table.append((pid, coords, *cells))
    widths = [max(map(len, column)) for column in zip(*table)]
    for r in table:
        lines.append("  ".join(map(str.ljust, r, widths)).rstrip())
    verdict = "all equivalences hold" if report.checks.all_ok else "VIOLATIONS FOUND"
    lines.append(f"cross-check: {verdict} ({len(report.checks.checks)} points)")
    lines.append(f"elapsed: {report.elapsed_seconds:.3f}s")
    return "\n".join(lines) + "\n"


def cross_check_to_table(checks: CrossCheckReport) -> str:
    lines = []
    for c in checks.checks:
        collapse = (
            "-" if c.biobjective_collapse_ok is None
            else ("ok" if c.biobjective_collapse_ok else "FAIL")
        )
        lines.append(
            f"{c.point_id}: weight-witness={'yes' if c.weakly_supported else 'no'} "
            f"boundary={'yes' if c.on_boundary else 'no'} "
            f"[{'ok' if c.boundary_equivalence_ok else 'FAIL'}]  "
            f"positive-witness={'yes' if c.supported else 'no'} "
            f"frontier={'yes' if c.on_frontier else 'no'} "
            f"[{'ok' if c.frontier_equivalence_ok else 'FAIL'}]  "
            f"biobjective-collapse=[{collapse}]"
        )
    lines.append(
        "verdict: PASS" if checks.all_ok else "verdict: FAIL (implementation bug)"
    )
    return "\n".join(lines) + "\n"


def _cannot_write(name: str, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot write {name}: {exc.strerror or exc}")


class _Sink:
    """A text stream whose failed writes name the output they went to."""

    def __init__(self, stream, name: str):
        self._stream = stream
        self._name = name

    def write(self, text: str) -> None:
        try:
            self._stream.write(text)
        except OSError as exc:
            raise _cannot_write(self._name, exc) from None


@contextmanager
def _output(path: Optional[str]):
    """A sink for path, stdout for None or '-', flushed (stdout) or
    closed (a path) on a clean exit.  A failed open, write, flush or
    close names this output; after a failure elsewhere the path is
    closed quietly, so a failure is reported once.  Commands open every
    output before they compute, so an unwritable path exits 2 before
    any work is done."""
    to_stdout = path is None or path == "-"
    name = "stdout" if to_stdout else path
    try:
        stream = sys.stdout if to_stdout else open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(name, exc) from None
    try:
        yield _Sink(stream, name)
    except BaseException:
        if not to_stdout:
            with suppress(OSError):
                stream.close()
        raise
    try:
        if to_stdout:
            stream.flush()
        else:
            stream.close()
    except OSError as exc:
        raise _cannot_write(name, exc) from None


def _is_stdout(path: Optional[str]) -> bool:
    """Is path stdout: None, '-', or a name of the file stdout writes to?"""
    if path in (None, "-"):
        return True
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such path, or stdout has no descriptor
        return False


def _same_output(a: Optional[str], b: Optional[str]) -> bool:
    """Would outputs a and b land in one file?"""
    if _is_stdout(a) or _is_stdout(b):
        return _is_stdout(a) and _is_stdout(b)
    try:
        return os.path.realpath(a) == os.path.realpath(b) or os.path.samefile(a, b)
    except OSError:  # samefile needs both files to exist
        return False


@contextmanager
def _outputs(paths: Sequence[Optional[str]]):
    """The streams of ``_output`` for paths, in order; two that would land
    in one file are refused before any is opened."""
    for i, path in enumerate(paths):
        for other in paths[:i]:
            if _same_output(path, other):
                where = "stdout" if path in (None, "-") else path
                raise ValidationError(f"two outputs would both be written to {where}")
    with ExitStack() as stack:
        yield [stack.enter_context(_output(path)) for path in paths]


# The int-to-str digit limit (Python 3.10.7 and later) in force at
# import, None before 3.10.7.  Instances are read under it, which bounds
# the time spent converting one long number of the input.
_INPUT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextmanager
def _int_max_str_digits(limit: Optional[int]):
    """Run a block with the process-wide int-to-str digit limit set to
    ``limit`` (0: none), then restore it.  No-op without a limit."""
    if _INPUT_DIGITS is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None
    with _int_max_str_digits(_INPUT_DIGITS):
        return parse_instance(text)


def _load_outcomes(path: str) -> OutcomeSet:
    return enumerate_instance(_load_instance(path))


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# Characters of document text buffered before one write to the stream.
_CHUNK = 1 << 16


def _write_chunked(out, head: str, items: Iterable[str], tail: str) -> None:
    """Write head, the items separated by commas, and tail to out, in
    chunks of about _CHUNK characters, so the whole document is never
    one string."""
    pending = [head]
    size = len(head)
    separator = ""
    for item in items:
        pending += (separator, item)
        separator = ","
        size += 1 + len(item)
        if size >= _CHUNK:
            out.write("".join(pending))
            pending.clear()
            size = 0
    pending.append(tail)
    out.write("".join(pending))


# The head and tail of the classify document as json.dumps(doc,
# indent=2) lays it out; the point records go in between.
_REPORT_HEAD = """{
  "digest": {
    "objectives": %s,
    "points": %s,
    "counts": {
%s
    }
  },
  "points": ["""
_REPORT_TAIL = """
  ],
  "cross_check": %s,
  "elapsed_seconds": %r
}
"""


def _vector_text(vec) -> str:
    """A rational vector, or null for None, as it stands in a field of a
    classify point record or a wsd cell."""
    if vec is None:
        return "null"
    items = [_over(v.numerator, v.denominator) for v in vec]
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def _row_text(row: Sequence[int], text: Mapping[int, str]) -> str:
    """A lattice row as ``_vector_text`` writes its coordinates, each
    value's text looked up in text."""
    return "[\n        " + ",\n        ".join(map(text.__getitem__, row)) + "\n      ]"


# The fields of a dominated point's record after its multiplicity.
_DOMINATED_FIELDS = """"label": "dominated",
      "frontier": false,
      "boundary": false,
      "weak_witness": null,
      "strict_witness": null"""


def _write_report_json(report: Report, out) -> None:
    """Write the classify document to out, exactly the text of
    ``json.dumps(doc, indent=2) + "\n"``, one point record at a time from
    its id, lattice row and multiplicity, and its Classification if it
    has one; a point without is dominated.  Each distinct lattice value's
    text is made once."""
    outcomes, records = report.outcomes, report.records
    multiplicity = outcomes.multiplicity
    text = _Interned(partial(_over, s=outcomes.scale))
    labels = {label: _quote(label.value) for label in LABEL_ORDER}
    counts = ",\n".join(
        f"      {labels[label]}: {report.label_counts.get(label.value, 0)}"
        for label in LABEL_ORDER
    )

    def fields(pid: str) -> str:
        c = records.get(pid)
        if c is None:
            return _DOMINATED_FIELDS
        return f""""label": {labels[c.label]},
      "frontier": {"true" if c.frontier else "false"},
      "boundary": {"true" if c.boundary else "false"},
      "weak_witness": {_vector_text(c.weak_witness)},
      "strict_witness": {_vector_text(c.strict_witness)}"""

    items = (
        f"""
    {{
      "id": {_quote(pid)},
      "coords": {_row_text(row, text)},
      "multiplicity": {multiplicity[pid]},
      {fields(pid)}
    }}"""
        for pid, row in zip(outcomes.ids, outcomes.lattice)
    )
    cross_check = json.dumps(cross_check_to_json(report.checks), indent=2)
    _write_chunked(
        out,
        _REPORT_HEAD % (outcomes.p, len(outcomes), counts),
        items,
        _REPORT_TAIL
        % (cross_check.replace("\n", "\n  "), round(report.elapsed_seconds, 6)),
    )


def _over(v: int, s: int) -> str:
    """Fraction(v, s), s > 0, as json.dumps writes its format_rational."""
    if v % s:
        g = gcd(v, s)
        return f'"{v // g}/{s // g}"'
    return str(v // s)


def _plain(v: int, s: int) -> str:
    """Fraction(v, s), s > 0, as a table writes it: ``_over`` unquoted."""
    return _over(v, s).strip('"')


def _cell_text(cell: WeightCell, p: int) -> str:
    """One wsd cell record.  Its hrep rows are the cell's int rows
    without t, each value over the scale."""
    s = cell.scale
    rows = []
    for con in cell.rows:
        coeffs = ",\n            ".join([_over(v, s) for v in con.coeffs[:-1]])
        rows.append(
            f"""
        {{
          "coeffs": [
            {coeffs}
          ],
          "relation": "{con.relation}",
          "rhs": {_over(con.rhs, s)}
        }}"""
        )
    vertices = "null"
    if cell.projected_vertices is not None:
        vertices = (
            "[\n        "
            + ",\n        ".join(
                _vector_text(v).replace("\n", "\n  ") for v in cell.projected_vertices
            )
            + "\n      ]"
        )
    interval = ""
    if p == 2:
        interval = f',\n      "interval": {_vector_text(cell_interval(cell))}'
    return f"""
    {{
      "id": {_quote(cell.point_id)},
      "full_dimensional": {"true" if cell.is_full_dimensional else "false"},
      "hrep": [{",".join(rows)}
      ],
      "projected_vertices": {vertices}{interval}
    }}"""


def _write_wsd_json(cells: Sequence[WeightCell], p: int, out) -> None:
    """Write the wsd document of decompose's cells to out, exactly the
    text of ``json.dumps(doc, indent=2) + "\n"``, one cell at a time
    from its int rows, so no ``hrep`` is built."""
    _write_chunked(
        out,
        f'{{\n  "objectives": {p},\n  "cells": [',
        (_cell_text(cell, p) for cell in cells),
        "\n  ]\n}\n",
    )


def _no_figure(kind: str, needs: str, p: int) -> None:
    print(
        f"note: {kind} figure needs {needs} objectives, instance has {p}; "
        "no SVG written",
        file=sys.stderr,
    )


def _cmd_classify(args) -> int:
    outcomes = _load_outcomes(args.path)
    draw = args.svg is not None and outcomes.p == 2
    with _outputs((None, args.svg) if draw else (None,)) as streams:
        report = build_report(outcomes)
        if args.format == "json":
            _write_report_json(report, streams[0])
        else:
            streams[0].write(report_to_table(report))
        if draw:
            streams[1].write(svg_objective_space(outcomes, report.records.values()))
    if args.svg is not None and not draw:
        _no_figure("objective-space", "2", outcomes.p)
    return 0 if report.checks.all_ok else 3


def _cmd_check(args) -> int:
    outcomes = _load_outcomes(args.path)
    checks = cross_check(outcomes)
    with _output(None) as out:
        if args.format == "json":
            out.write(_json_dumps(cross_check_to_json(checks)))
        else:
            out.write(cross_check_to_table(checks))
    return 0 if checks.all_ok else 3


def _cmd_wsd(args) -> int:
    outcomes = _load_outcomes(args.path)
    draw = args.svg is not None and outcomes.p in (2, 3)
    with _outputs((args.out, args.svg) if draw else (args.out,)) as streams:
        cells = decompose(outcomes)
        _write_wsd_json(cells, outcomes.p, streams[0])
        if draw:
            streams[1].write(svg_weight_space(cells, outcomes.p))
    if args.svg is not None and not draw:
        _no_figure("weight-space", "2 or 3", outcomes.p)
    return 0


def _cmd_lift(args) -> int:
    outcomes = _load_outcomes(args.path)
    with _output(args.out) as out:
        out.write(serialize_instance(lift_zero_objective(outcomes)))
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "knapsack":
        instance = generate_knapsack(args.size, args.objectives, args.seed)
    elif args.kind == "assignment":
        instance = generate_assignment(args.size, args.objectives, args.seed)
    else:
        instance = generate_points(args.size, args.objectives, args.seed)
    with _output(args.out) as out:
        out.write(serialize_instance(instance))
    return 0


def _cmd_dichotomic(args) -> int:
    outcomes = _load_outcomes(args.path)
    result = dichotomic_extremes(outcomes)
    if args.format == "json":
        doc = {
            "extremes": [
                {
                    "id": pt.id,
                    "coords": _vector_json(pt.coords),
                    "witness": _vector_json(lam.values),
                }
                for pt, lam in zip(result.extremes, result.witness_weights)
            ],
            "oracle_calls": result.oracle_calls,
        }
        text = _json_dumps(doc)
    else:
        lines = [
            f"{pt.id}  {_coords_str(pt.coords)}  witness {_coords_str(lam.values)}"
            for pt, lam in zip(result.extremes, result.witness_weights)
        ]
        lines.append(f"extremes: {len(result.extremes)}, oracle calls: {result.oracle_calls}")
        text = "\n".join(lines) + "\n"
    with _output(None) as out:
        out.write(text)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one shared parser tree (parsing does not change it); a tree
    per call would leave its reference cycles to the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="ndsupport",
        description="Exact supportedness classification of finite outcome sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("table", "json"), default="table",
            help="output format (default: table)",
        )

    p_classify = sub.add_parser(
        "classify", help="label every point of an instance"
    )
    p_classify.add_argument("path", help="instance file (explicit set or spec)")
    add_format(p_classify)
    p_classify.add_argument(
        "--svg", metavar="PATH", help="also draw the bi-objective outcome plot"
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_check = sub.add_parser(
        "check", help="verify the proven equivalences between the tests"
    )
    p_check.add_argument("path")
    add_format(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_wsd = sub.add_parser(
        "wsd", help="weight-space decomposition document (and figure)"
    )
    p_wsd.add_argument("path")
    p_wsd.add_argument("--out", metavar="PATH", help="document path (default stdout)")
    p_wsd.add_argument("--svg", metavar="PATH", help="figure path (p = 2 or 3)")
    p_wsd.set_defaults(func=_cmd_wsd)

    p_lift = sub.add_parser(
        "lift", help="append a constant zero objective to an instance"
    )
    p_lift.add_argument("path")
    p_lift.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    p_lift.set_defaults(func=_cmd_lift)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("kind", choices=("knapsack", "assignment", "points"))
    p_gen.add_argument("size", type=int, help="items / agents / point count")
    p_gen.add_argument(
        "objectives", type=int, nargs="?", default=2, help="objective count (default 2)"
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_dich = sub.add_parser(
        "dichotomic", help="bi-objective extreme points by dichotomic search"
    )
    p_dich.add_argument("path")
    add_format(p_dich)
    p_dich.set_defaults(func=_cmd_dichotomic)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Exact witnesses can outgrow the digit limit although no input
        # number does; the input is still read under it.
        with _int_max_str_digits(0):
            return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported the failed write; the same buffer would fail
        # again at interpreter exit, so it goes to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    raise SystemExit(code)
