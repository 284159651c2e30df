"""Record the reference outputs of every corpus instance into digests.json.

Run from the repository root, on a commit whose outputs are the
reference (output bytes must stay the same across optimisations):

    python3 bench/record_digests.py

Each entry holds the sha256 of one request's outputs, with
``elapsed_seconds`` removed, and the number of stored outcome points
after enumeration.  The recorded outputs must pass the rest of the gate.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import SRC, WORK_ROOT, run_request
from workloads import (
    DIGESTS_PATH,
    CORPUS_SIZE,
    WORKLOADS,
    gate,
    request_digest,
    write_instances,
)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from ndsupport import cli
    from ndsupport.instances import enumerate_instance, parse_instance

    work = WORK_ROOT / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = {}
    for workload in WORKLOADS.values():
        entries = digests[workload.name] = {}
        paths = write_instances(workload.pool, range(CORPUS_SIZE[workload.pool]), work)
        for instance_seed, path in paths.items():
            seconds, outputs, svg = run_request(cli.main, workload, path, work / "figure.svg")
            outcomes = enumerate_instance(parse_instance(path.read_text(encoding="utf-8")))
            entries[str(instance_seed)] = {
                "digest": request_digest(outputs, svg),
                "points": len(outcomes),
            }
            problems = gate(workload, instance_seed, outputs, svg, digests)
            if problems:
                print(f"{workload.name} {instance_seed}: {problems}", file=sys.stderr)
                return 1
            print(f"{workload.name} {instance_seed}: {seconds:.3f} s", flush=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
