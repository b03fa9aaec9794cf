"""Regenerate ``references.json``: point digests at the pinned seeds.

Run only when a change to the simulator is *meant* to change simulated
outputs, and say so in the change::

    python3 simbench/record_references.py

Seed 42 is the paper's; seed 7 is held out (never used while tuning).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from check import REFERENCES_PATH, digest, invariant_errors  # noqa: E402
from workloads import WORKLOADS, build_points, point_label  # noqa: E402

PINNED_SEEDS = (42, 7)


def main() -> int:
    from repro.runner.runner import execute_point_checked

    digests = {}
    for seed in PINNED_SEEDS:
        for workload in WORKLOADS:
            for point in build_points(workload, seed):
                result = execute_point_checked(point)
                errors = invariant_errors(result)
                if errors:
                    print(f"{workload} seed {seed} {point_label(point)}: {errors}", file=sys.stderr)
                    return 1
                digests.setdefault(str(seed), {}).setdefault(workload, {})[
                    point_label(point)
                ] = digest(result)
                print(f"seed {seed} {workload:<18} {point_label(point):<18} "
                      f"joins={result['joins_completed']:<4} oltp={result['oltp_completed']:<6} "
                      f"rt={result['join_response_time'] * 1e3:.1f} ms")
    REFERENCES_PATH.write_text(json.dumps({"digests": digests}, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
