"""Workloads of the ndsupport benchmark: seeded instance corpora, the CLI
requests each workload sends, and the correctness gate on their outputs.

Every workload runs on a fixed corpus of seeded instance files whose
outputs were recorded once from the seed commit (``digests.json``,
written by ``record_digests.py``).  A run's ``--seed`` sets the order in
which the closed loop visits the corpus.

The corpus is fixed, not drawn per seed, because instance costs vary
widely: at the seed commit one ``knapsack2-classify`` request takes from
1.1 s to 7 s on instances of the same size (the Pareto filter's early
exit), and an anti-correlated file from 1.2 s to 3.8 s.  A run that drew
its own few instances would report which ones it drew, not how fast the
code is.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Instance seeds 0..n-1 of each pool.  A pass over a corpus takes about
# 10 s at the seed commit (5 s for wsd), so a 45 s run measures several
# whole passes and leaves little of its time unmeasured.
CORPUS_SIZE = {"anticorr3": 4, "knapsack2": 3}

ANTICORR_POINTS = 40
ANTICORR_OBJECTIVES = 3
KNAPSACK_ITEMS = 13
KNAPSACK_OBJECTIVES = 2

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    """One closed-loop request per instance: the CLI steps run in order
    on the same file.  ``{path}`` and ``{svg}`` are filled per request."""

    name: str
    pool: str
    steps: tuple[tuple[str, ...], ...]

    @property
    def writes_svg(self) -> bool:
        return any("{svg}" in step for step in self.steps)


WORKLOADS = {
    w.name: w
    for w in (
        # LP kernel and solves per point; no enumeration, the filter is tiny.
        Workload(
            "anticorr3-classify",
            "anticorr3",
            (("classify", "--format", "json", "{path}"),),
        ),
        # Enumeration, the quadratic Pareto filter (twice per classify) and
        # the weighted-sum oracle; the LP kernel sees only 3 to 12 points.
        Workload(
            "knapsack2-classify",
            "knapsack2",
            (
                ("classify", "--format", "json", "{path}"),
                ("dichotomic", "--format", "json", "{path}"),
            ),
        ),
        # Tall feasibility and slack programs, vertex enumeration, SVG.
        Workload(
            "anticorr3-wsd",
            "anticorr3",
            (("wsd", "--svg", "{svg}", "{path}"),),
        ),
    )
}


def request_order(pool: str, seed: int) -> list[int]:
    """The corpus's instance seeds in the order one run visits them."""
    n = CORPUS_SIZE[pool]
    return random.Random(seed).sample(range(n), n)


def anticorr_rows(instance_seed: int) -> list[list[int]]:
    """Anti-correlated points: the first p - 1 coordinates are uniform in
    0..100 and the last is 100 (p - 1) - sum +- 15."""
    rng = random.Random(instance_seed)
    p = ANTICORR_OBJECTIVES
    rows = []
    for _ in range(ANTICORR_POINTS):
        head = [rng.randint(0, 100) for _ in range(p - 1)]
        rows.append(head + [100 * (p - 1) - sum(head) + rng.randint(-15, 15)])
    return rows


def instance_text(pool: str, instance_seed: int) -> str:
    if pool == "anticorr3":
        doc = {"objectives": ANTICORR_OBJECTIVES, "points": anticorr_rows(instance_seed)}
        return json.dumps(doc) + "\n"
    from ndsupport.instances import generate_knapsack, serialize_instance

    spec = generate_knapsack(KNAPSACK_ITEMS, KNAPSACK_OBJECTIVES, instance_seed)
    return serialize_instance(spec)


def write_instances(pool: str, instance_seeds, directory: Path) -> dict[int, Path]:
    paths = {}
    for instance_seed in instance_seeds:
        path = directory / f"{pool}-{instance_seed}.json"
        path.write_text(instance_text(pool, instance_seed), encoding="utf-8")
        paths[instance_seed] = path
    return paths


@dataclass(frozen=True)
class StepOutput:
    code: object  # exit code, or the traceback of an exception the CLI raised
    stdout: str


_ELAPSED = re.compile(r',\n  "elapsed_seconds": [^\n]*\n')


def request_digest(steps: list[StepOutput], svg: bytes | None) -> str:
    """sha256 over every output of one request, ``elapsed_seconds`` removed."""
    h = hashlib.sha256()
    for step in steps:
        h.update(_ELAPSED.sub("\n", step.stdout).encode("utf-8"))
        h.update(b"\0")
    if svg is not None:
        h.update(svg)
    return h.hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _dot(weights, coords) -> Fraction:
    return sum(w * c for w, c in zip(weights, coords))


def _strict_witness_problems(doc: dict) -> list[str]:
    """Every strict witness is strictly positive, sums to 1 and makes its
    point weighted-sum minimal over all stored points."""
    problems = []
    coords = [tuple(Fraction(c) for c in pt["coords"]) for pt in doc["points"]]
    for pt, y in zip(doc["points"], coords):
        if pt["strict_witness"] is None:
            continue
        lam = [Fraction(v) for v in pt["strict_witness"]]
        if not all(v > 0 for v in lam):
            problems.append(f"{pt['id']}: strict witness has a zero component")
        if sum(lam) != 1:
            problems.append(f"{pt['id']}: strict witness does not sum to 1")
        score = _dot(lam, y)
        if any(_dot(lam, other) < score for other in coords):
            problems.append(f"{pt['id']}: strict witness does not make it minimal")
    return problems


def gate(
    workload: Workload,
    instance_seed: int,
    steps: list[StepOutput],
    svg: bytes | None,
    digests: dict,
) -> list[str]:
    """Problems with one request's outputs; empty when they are correct."""
    problems = [
        f"step {i} exited with {s.code!r}" for i, s in enumerate(steps) if s.code != 0
    ]
    if problems:
        return problems
    expected = digests[workload.name][str(instance_seed)]["digest"]
    if request_digest(steps, svg) != expected:
        problems.append("output differs from the digest recorded at the seed commit")
    if workload.steps[0][0] == "classify":
        doc = json.loads(steps[0].stdout)
        problems += _strict_witness_problems(doc)
        if workload.steps[-1][0] == "dichotomic":
            extreme = {
                pt["id"] for pt in doc["points"] if pt["label"] == "extreme-supported"
            }
            found = {pt["id"] for pt in json.loads(steps[1].stdout)["extremes"]}
            if found != extreme:
                problems.append(
                    f"dichotomic extremes {sorted(found)} differ from classify's "
                    f"extreme-supported points {sorted(extreme)}"
                )
    return problems
