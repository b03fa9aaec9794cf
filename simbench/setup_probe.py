"""Child process of the ``setup_s`` measurement.

Starts cold, imports the simulator, builds the workload's points and runs
the first one through the runner's point path until the kernel is about to
dispatch its first event.  The parent takes ``time.monotonic()`` (a clock
shared by all processes) just before it spawns this process; the child
prints the same clock at the first event, so the difference covers
interpreter start, imports, the scenario registry, point construction,
config build and ``ParallelSystem`` construction.

The child calibrates itself with a :class:`~hostspeed.SpeedSampler`
started first thing, on the CPU that does the work, and prints
``first_event sampler_seconds mean_slice``: the sampler's own seconds are
to be taken out of the set-up time before it is scaled.

Usage: ``python3 simbench/setup_probe.py <workload> <seed>``
"""

import sys
import time
from pathlib import Path

from hostspeed import SpeedSampler


class _FirstEvent(BaseException):
    """Unwinds the point at its first kernel dispatch (not an ``Exception``,
    so no handler in the program swallows it)."""


def main() -> int:
    sampler = SpeedSampler()
    start = sampler.mark()
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.sim.core import Environment

    def stop(env, until=None):
        first_event = time.monotonic()
        print(first_event, *sampler.since(start), flush=True)
        raise _FirstEvent

    Environment.run = stop
    from repro.runner.runner import execute_point
    from workloads import build_points

    try:
        execute_point(build_points(workload, seed)[0])
    except _FirstEvent:
        return 0
    finally:
        sampler.close()
    print("the first point finished without running the kernel", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
