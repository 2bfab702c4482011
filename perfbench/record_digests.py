"""Rewrite ``digests.json`` from the program as it is now.

Only for a change that is meant to alter the simulated results (a cost-model
change); every other change must leave the digests alone.  Run from the
repository root::

    python3 perfbench/record_digests.py

For each workload one untraced and one traced interpreter run; their
per-round digests must agree.  The untraced digests and the traced
``Task.submit`` counts per round are written.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import HERE, CHILD_TIMEOUT_S, spawn
from workloads import WORKLOADS


def main() -> int:
    out = {}
    for name in WORKLOADS:
        args = ["--workload", name, "--seed", "0"]
        bare = spawn(args, perf_counter() + CHILD_TIMEOUT_S)
        traced = spawn(args + ["--trace"], perf_counter() + CHILD_TIMEOUT_S)
        if bare["digests"] != traced["digests"] or not traced["restored"]:
            print(f"{name}: the traced run disagrees with the untraced run",
                  file=sys.stderr)
            return 1
        out[name] = {"rounds": bare["digests"],
                     "tasks": [c["tasks"] for c in traced["traced_counts"]]}
        print(f"{name}: {len(bare['digests'])} rounds recorded")
    (HERE / "digests.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
