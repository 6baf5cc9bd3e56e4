"""Record a unit's (value, error) pairs for every workload in snapshot.json.

    python3 perfbench/make_snapshot.py

Units run the acceptance suite's seeds, so their values are fixed for a
given code; every benchmark unit is compared against this snapshot (each
value within 3 x (its error + the snapshot's error)).  Re-record only
when a change is meant to move these values, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    snapshot = {}
    for name, workload in workloads.WORKLOADS.items():
        result = workload.run(workload.setup())
        snapshot[name] = [list(pair) for pair in result.points]
        print(f"{name}: {len(result.points)} points, rel_gap {result.rel_gap:.3g}")
    workloads.SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=1) + "\n")


if __name__ == "__main__":
    main()
