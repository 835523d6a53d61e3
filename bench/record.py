"""Record the reference report digests the benchmark checks against.

    python3 bench/record.py

Runs every job of every workload once for each seed in its pool and
writes the SHA-256 of each report, with ``timing`` removed, to
bench/references.json.  The references in the repository were recorded at
the baseline commit, the one that added the benchmark.  Re-recording after
a change would make the benchmark accept whatever that change prints, so
do it only to add a new job.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCES, RUN_LIMIT_S, WORK, run_process
from workloads import POOLS, WORKLOADS


def main() -> int:
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    digests = {}
    for workload, pool in POOLS.items():
        for seed in pool:
            for label, argv in WORKLOADS[workload](seed, inputs):
                if label in digests:
                    continue
                proc = run_process(label, argv, "run", time.monotonic() + RUN_LIMIT_S)
                if not proc.ok:
                    print(f"{label}: {proc.why}", file=sys.stderr)
                    return 1
                digests[label] = proc.digest
                print(f"{label}: {proc.ended - proc.spawned:.2f} s {proc.digest}")
    REFERENCES.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
