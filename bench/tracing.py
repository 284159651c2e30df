"""Spans around the package's public functions, and the per-layer
metrics derived from them.

The tracer replaces a function at the module binding the caller looks
it up through (``classify.lp_solve``, ``weightspace.lp_solve``, ...), so
nothing under ``src/`` changes.  Spans stay in memory, each with its
parent, and are written out once the run ends.  A span belongs to the
layer (module) that defines the function; a layer's self time is its
spans' time minus the time of their child spans.
"""

from __future__ import annotations

import inspect
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = (
    "cli",
    "instances",
    "outcomes",
    "ratlp",
    "classify",
    "weightspace",
    "dichotomic",
    "render",
)

# Per-element helpers run once per coordinate or pair of points; a span
# would cost more than the call, and their time belongs to the caller.
_HELPERS = frozenset({"rational", "rational_vector", "format_rational", "dominates"})

# Public functions called through their own module's globals, wrapped
# there because a layer metric counts them.
_SAME_MODULE = (("dichotomic", "weighted_sum_argmin"),)


class Span:
    __slots__ = ("sid", "parent", "request", "site", "name", "layer", "start", "end", "info")

    def __init__(self, sid, parent, request, site, name, layer):
        self.sid = sid
        self.parent = parent
        self.request = request
        self.site = site
        self.name = name
        self.layer = layer
        self.start = self.end = 0.0
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _describe(name: str, args: tuple, result) -> dict | None:
    """The counts a layer metric needs from one call."""
    if name == "lp_solve":
        program = args[0]
        return {
            "rows": len(program.constraints),
            "cols": program.num_vars,
            "infeasible": result.status == "infeasible",
        }
    if name == "lp_feasible":
        return {"rows": len(args[0]), "cols": args[1], "infeasible": not result[0]}
    if name == "filter_nondominated":
        return {"in": len(args[0]), "out": len(result.nondominated)}
    if name == "enumerate_instance":
        return {"outcomes": len(result)}
    if name == "decompose":
        return {"cells": len(result), "hrep_rows": sum(len(c.hrep) for c in result)}
    if name.startswith("svg_"):
        return {"bytes": len(result.encode("utf-8"))}
    return None


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, fn, site: str):
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]

        def traced(*args, **kwargs):
            span = Span(
                len(self.spans),
                self._stack[-1] if self._stack else None,
                self.request,
                site,
                name,
                layer,
            )
            self.spans.append(span)
            self._stack.append(span.sid)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            span.info = _describe(name, args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every public package function bound in another package
        module, plus the listed same-module functions."""
        for site, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and attr not in _HELPERS
                    and fn.__module__.startswith("ndsupport.")
                    and (
                        fn.__module__ != module.__name__
                        or (site, attr) in _SAME_MODULE
                    )
                ):
                    self._originals.append((module, attr, fn))
                    setattr(module, attr, self.wrap(fn, site))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                record = {
                    "id": s.sid,
                    "parent": s.parent,
                    "request": s.request,
                    "site": s.site,
                    "name": f"{s.layer}.{s.name}",
                    "start": s.start,
                    "end": s.end,
                    "info": s.info,
                }
                handle.write(json.dumps(record) + "\n")


# (name, unit, better); per request unless the name says mean, frac or p50.
PER_LAYER = (
    ("ratlp.solves", "count", "lower"),
    ("ratlp.solve_s", "s", "lower"),
    ("ratlp.solve_s.p50", "s", "lower"),
    ("ratlp.rows_mean", "rows", "lower"),
    ("ratlp.cols_mean", "cols", "lower"),
    ("ratlp.infeasible_frac", "frac", "lower"),
    ("ratlp.solves_per_nd_point", "solves/point", "lower"),
    ("ratlp.share", "frac", "lower"),
    ("outcomes.filter_s", "s", "lower"),
    ("outcomes.filter_calls", "count", "lower"),
    ("outcomes.nd_frac", "frac", "higher"),
    ("outcomes.share", "frac", "lower"),
    ("instances.parse_s", "s", "lower"),
    ("instances.enumerate_s", "s", "lower"),
    ("instances.outcomes", "count", "lower"),
    ("instances.share", "frac", "lower"),
    ("classify.classify_all_s", "s", "lower"),
    ("classify.cross_check_s", "s", "lower"),
    ("classify.self_s", "s", "lower"),
    ("classify.share", "frac", "lower"),
    ("weightspace.decompose_s", "s", "lower"),
    ("weightspace.self_s", "s", "lower"),
    ("weightspace.cells", "count", "higher"),
    ("weightspace.hrep_rows_mean", "rows", "lower"),
    ("weightspace.share", "frac", "lower"),
    ("dichotomic.extremes_s", "s", "lower"),
    ("dichotomic.oracle_calls", "count", "lower"),
    ("dichotomic.argmin_s", "s", "lower"),
    ("dichotomic.share", "frac", "lower"),
    ("render.svg_s", "s", "lower"),
    ("render.svg_bytes", "bytes", "lower"),
    ("render.share", "frac", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.share", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Metrics fixed by the inputs and the code alone: they repeat exactly
# between passes and between runs of the same seed.
COUNT_METRICS = (
    "ratlp.solves",
    "ratlp.rows_mean",
    "ratlp.cols_mean",
    "ratlp.infeasible_frac",
    "ratlp.solves_per_nd_point",
    "outcomes.filter_calls",
    "outcomes.nd_frac",
    "instances.outcomes",
    "weightspace.cells",
    "weightspace.hrep_rows_mean",
    "dichotomic.oracle_calls",
    "render.svg_bytes",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics over the spans of whole traced requests.

    Totals are divided by the number of requests; ``<layer>.share`` is
    the layer's self time over the time of the root (``cli.main``) spans.
    """
    requests = len({s.request for s in spans})
    child_seconds: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds
    self_seconds: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[Span]] = defaultdict(list)
    nd_by_request: dict[int, int] = defaultdict(int)
    root_seconds = 0.0
    for s in spans:
        self_seconds[s.layer] += s.seconds - child_seconds[s.sid]
        by_name[s.name].append(s)
        if s.parent is None:
            root_seconds += s.seconds
        if s.name == "filter_nondominated":
            nd_by_request[s.request] = max(nd_by_request[s.request], s.info["out"])

    def total(name, key=None):
        if key is None:
            return sum(s.seconds for s in by_name[name])
        return sum(s.info[key] for s in by_name[name])

    def per_request(value):
        return _ratio(value, requests)

    lps = by_name["lp_solve"] + by_name["lp_feasible"]
    filters = by_name["filter_nondominated"]
    metrics = {
        "ratlp.solves": per_request(len(lps)),
        "ratlp.solve_s": per_request(sum(s.seconds for s in lps)),
        "ratlp.solve_s.p50": statistics.median(s.seconds for s in lps) if lps else 0.0,
        "ratlp.rows_mean": _ratio(sum(s.info["rows"] for s in lps), len(lps)),
        "ratlp.cols_mean": _ratio(sum(s.info["cols"] for s in lps), len(lps)),
        "ratlp.infeasible_frac": _ratio(sum(s.info["infeasible"] for s in lps), len(lps)),
        "ratlp.solves_per_nd_point": _ratio(len(lps), sum(nd_by_request.values())),
        "outcomes.filter_s": per_request(total("filter_nondominated")),
        "outcomes.filter_calls": per_request(len(filters)),
        "outcomes.nd_frac": _ratio(
            total("filter_nondominated", "out"), total("filter_nondominated", "in")
        ),
        "instances.parse_s": per_request(total("parse_instance")),
        "instances.enumerate_s": per_request(total("enumerate_instance")),
        "instances.outcomes": per_request(total("enumerate_instance", "outcomes")),
        "classify.classify_all_s": per_request(total("classify_all")),
        "classify.cross_check_s": per_request(total("cross_check")),
        "classify.self_s": per_request(self_seconds["classify"]),
        "weightspace.decompose_s": per_request(total("decompose")),
        "weightspace.self_s": per_request(self_seconds["weightspace"]),
        "weightspace.cells": per_request(total("decompose", "cells")),
        "weightspace.hrep_rows_mean": _ratio(
            total("decompose", "hrep_rows"), total("decompose", "cells")
        ),
        "dichotomic.extremes_s": per_request(total("dichotomic_extremes")),
        "dichotomic.oracle_calls": per_request(len(by_name["weighted_sum_argmin"])),
        "dichotomic.argmin_s": per_request(total("weighted_sum_argmin")),
        "render.svg_s": per_request(
            total("svg_weight_space") + total("svg_objective_space")
        ),
        "render.svg_bytes": per_request(
            total("svg_weight_space", "bytes") + total("svg_objective_space", "bytes")
        ),
        "cli.self_s": per_request(self_seconds["cli"]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = _ratio(self_seconds[layer], root_seconds)
    return metrics
