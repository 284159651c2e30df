"""Seeded closed-loop benchmark of the ndsupport command line.

Run from the repository root:

    python3 bench/run.py --workload anticorr3-classify --seed 1 --seconds 40 --trace 0

One process, one thread and one caller: each request calls
``ndsupport.cli.main(argv)`` in-process with stdout captured, and the
next request starts when the last one returns.  Every output is checked
by the gate in ``workloads.py``; gating runs off the clock.

``--trace 0`` reports the end-to-end metrics, with times rescaled to a
reference host speed (``hostspeed.py``).  ``--trace 1`` runs each
request twice, once plain and once with spans around the package's
public functions (``tracing.py``), and reports the per-layer metrics
and the tracing overhead.  Every line before the last is for people;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from hostspeed import SpeedProbe
from tracing import COUNT_METRICS, LAYERS, PER_LAYER_UNITS, Tracer, layer_metrics
from workloads import (
    WORKLOADS,
    StepOutput,
    gate,
    load_digests,
    request_order,
    write_instances,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 11
# Instances a traced run visits; each becomes a plain and a traced request.
TRACE_FILES = 3

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "call_s.p50": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def setup(pool: str, instance_seeds: list[int], work: Path, probe: SpeedProbe | None):
    """Import the package afresh and write the run's instance files,
    ``SETUP_REPEATS`` times.  Returns the median time, at the reference
    host speed when a probe is open, the files and the CLI module of the
    last import."""
    sys.path.insert(0, str(SRC))
    raw, reference = [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "ndsupport"]:
            del sys.modules[name]
        if probe:
            probe.start()
        start = perf_counter()
        cli = importlib.import_module("ndsupport.cli")
        paths = write_instances(pool, instance_seeds, work)
        seconds = perf_counter() - start
        own, scaled = probe.rescale(seconds) if probe else (seconds, seconds)
        raw.append(own)
        reference.append(scaled)
    print(f"as measured, before rescaling: setup_s = {statistics.median(raw):.6g} s")
    return statistics.median(reference), paths, cli


def run_request(main, workload, path: Path, svg_path: Path):
    """One closed-loop request: every step of the workload on one file.
    Returns its wall time, the step outputs and the SVG written, if any."""
    if workload.writes_svg:
        svg_path.unlink(missing_ok=True)
    outputs = []
    start = perf_counter()
    for template in workload.steps:
        argv = [arg.format(path=path, svg=svg_path) for arg in template]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashed request is counted, not fatal
                code = traceback.format_exc()
        outputs.append(StepOutput(code, out.getvalue()))
    seconds = perf_counter() - start
    svg = svg_path.read_bytes() if workload.writes_svg and svg_path.exists() else None
    return seconds, outputs, svg


class Loop:
    """Closed-loop caller with the gate and failure accounting."""

    def __init__(self, workload, paths, digests, svg_path):
        self.workload = workload
        self.paths = paths
        self.digests = digests
        self.svg_path = svg_path
        self.attempted = 0
        self.failed = 0

    def request(self, main, instance_seed: int, probe: SpeedProbe | None = None):
        """Run and gate one request.  Returns its seconds, those seconds at
        the reference host speed (the same without a probe) and whether
        it passed."""
        if probe:
            probe.start()
        seconds, outputs, svg = run_request(
            main, self.workload, self.paths[instance_seed], self.svg_path
        )
        reference = seconds
        if probe:
            seconds, reference = probe.rescale(seconds)
        problems = gate(self.workload, instance_seed, outputs, svg, self.digests)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(
                f"FAILED {self.workload.name} instance {instance_seed}: "
                + "; ".join(problems),
                file=sys.stderr,
            )
        return seconds, reference, not problems


def whole_passes(seconds: float):
    """Yield 1, 2, ...: at least one pass, then another while the longest
    pass so far, plus a quarter, would still end within ``seconds``.
    Whole passes keep every run's mix of instances the same."""
    start = last = perf_counter()
    longest = 0.0
    count = 1
    while True:
        yield count
        now = perf_counter()
        longest = max(longest, now - last)
        last = now
        if now - start + 1.25 * longest > seconds:
            return
        count += 1


def plain_run(loop: Loop, main, order: list[int], seconds: float, probe) -> dict:
    """Whole passes over the corpus; times are at the reference host speed."""
    raw, reference = [], []
    points = 0
    for passes in whole_passes(seconds):
        for instance_seed in order:
            own, scaled, ok = loop.request(main, instance_seed, probe)
            raw.append(own)
            reference.append(scaled)
            if ok:
                points += loop.digests[loop.workload.name][str(instance_seed)]["points"]
    print(f"passes = {passes}, call_s.samples = {len(raw)}")
    print(
        f"as measured, before rescaling: points_per_s = {points / sum(raw):.6g} 1/s, "
        f"call_s.p50 = {statistics.median(raw):.6g} s"
    )
    return {
        "points_per_s": points / sum(reference),
        "call_s.p50": statistics.median(reference),
    }


def traced_run(loop: Loop, cli, order: list[int], seconds: float, spans_path: Path):
    """Plain and traced requests in pairs, alternating which goes first,
    in whole passes over the first ``TRACE_FILES`` instances of the order."""
    tracer = Tracer()
    traced_main = tracer.wrap(cli.main, "bench")
    modules = {name: sys.modules[f"ndsupport.{name}"] for name in LAYERS}
    plain_seconds = traced_seconds = 0.0
    passes: list[list[int]] = []
    pair = 0
    for _ in whole_passes(seconds):
        requests = []
        for instance_seed in order[:TRACE_FILES]:
            for traced in (pair % 2 == 1, pair % 2 == 0):
                if traced:
                    tracer.request += 1
                    requests.append(tracer.request)
                    tracer.install(modules)
                    try:
                        elapsed = loop.request(traced_main, instance_seed)[0]
                    finally:
                        tracer.uninstall()
                    traced_seconds += elapsed
                else:
                    plain_seconds += loop.request(cli.main, instance_seed)[0]
            pair += 1
        passes.append(requests)
    tracer.write(spans_path)

    first_counts = None
    for requests in passes:
        wanted = set(requests)
        counts = layer_metrics([s for s in tracer.spans if s.request in wanted])
        counts = {name: counts[name] for name in COUNT_METRICS}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            loop.failed += 1
            print(f"FAILED count metrics differ between passes: {counts}", file=sys.stderr)
    print(f"trace.passes = {len(passes)}, traced requests = {tracer.request + 1}")
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = traced_seconds / plain_seconds - 1
    return metrics


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ndsupport" / "cli.py").is_file():
        print(f"error: no ndsupport sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = load_digests()
    order = request_order(workload.pool, args.seed)

    if args.trace:
        _, paths, cli = setup(workload.pool, order, work, None)
        loop = Loop(workload, paths, digests, work / "figure.svg")
        values = traced_run(loop, cli, order, args.seconds, work / "spans.jsonl")
        units = PER_LAYER_UNITS
    else:
        with SpeedProbe() as probe:
            setup_s, paths, cli = setup(workload.pool, order, work, probe)
            loop = Loop(workload, paths, digests, work / "figure.svg")
            values = plain_run(loop, cli.main, order, args.seconds, probe)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS

    print(f"error_rate = {loop.failed / loop.attempted} ({loop.failed}/{loop.attempted})")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
