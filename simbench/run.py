"""Simulator benchmark: host cost of three workloads, with an output check.

Usage (from the repository root)::

    python3 simbench/run.py --workload mixed_oltp --seed 42 --seconds 30 --trace 0

``--trace 0`` times the workload's points with tracing off and reports the
end-to-end metrics:

* ``wall_s`` -- seconds to execute the workload's points, one after
  another, through the runner's point path (``execute_point_checked``, the
  serial path of ``ParallelRunner``; no result cache).  The points are run
  over and over for ``--seconds``; each point's time is calibrated to a
  fixed host speed (:mod:`hostspeed`) and the per-point medians are summed.
* ``setup_s`` -- seconds from process start to the first simulated event,
  median of several fresh child processes (:mod:`setup_probe`), calibrated
  the same way.
* ``peak_rss_mb`` -- peak resident set size of this process after its
  first pass over the points.

``--trace 1`` alternates untraced and traced passes (:mod:`layers`,
:mod:`spans`) and reports the per-layer metrics; its span totals are written
to ``.simbench_out/`` in the repository root.

Every run of every point is checked (:mod:`check`): against the committed
digests at a pinned seed, against its own first run at any seed, and for
invariants.  A point that raises, completes nothing or differs counts as
failed.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

from check import digest, invariant_errors, reference_digests
from hostspeed import SpeedSampler, calibrate
from layers import PER_LAYER, harvest, install, layer_metrics
from spans import Tracer
from workloads import WORKLOADS, build_points, point_label

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".simbench_out"

#: Fresh processes timed per ``setup_s`` value.
SETUP_PROBES = 7
#: Passes over the points per timed run, whatever ``--seconds`` says.
MIN_REPEATS = 2


class Verifier:
    """Runs points and checks every result; counts attempts and failures."""

    def __init__(self, workload: str, seed: int):
        from repro.runner.runner import execute_point_checked

        self._execute = execute_point_checked
        self.expected = reference_digests(workload, seed)
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, point):
        """Execute ``point``; returns its result dict, or None if it failed."""
        label = point_label(point)
        self.attempted += 1
        try:
            result = self._execute(point)
        except Exception as exc:  # a failing point is counted, not fatal
            traceback.print_exc()
            self._fail(label, [f"raised {exc!r}"])
            return None
        found = digest(result)
        problems = invariant_errors(result)
        if self.first.setdefault(label, found) != found:
            problems.append(f"digest {found} differs from this process's first run")
        if self.expected is not None and self.expected.get(label) != found:
            problems.append(f"digest {found} differs from reference {self.expected.get(label)}")
        if problems:
            self._fail(label, problems)
            return None
        return result

    def _fail(self, label: str, problems: List[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {problem}" for problem in problems)


def _keep_going(started: float, seconds: float, pass_times: List[float], minimum: int) -> bool:
    """Another pass unless it would end after the measuring window."""
    if len(pass_times) < minimum:
        return True
    expected_end = time.perf_counter() + statistics.median(pass_times)
    return expected_end <= started + seconds


def measure_setup(workload: str, seed: int) -> List[float]:
    """Calibrated set-up seconds of ``SETUP_PROBES`` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{child.stderr}")
        first_event, sampler_seconds, mean_slice = map(float, child.stdout.split()[-3:])
        samples.append(calibrate(first_event - spawned, sampler_seconds, mean_slice))
    return samples


def timed_run(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    setup = measure_setup(workload, seed)  # before the sampler pins this process
    points = build_points(workload, seed)
    verifier = Verifier(workload, seed)
    per_point: Dict[str, List[float]] = {point_label(point): [] for point in points}
    host_passes: List[float] = []
    sampler = SpeedSampler()
    try:
        started = time.perf_counter()
        while _keep_going(started, seconds, host_passes, MIN_REPEATS):
            host_pass = 0.0
            for point in points:
                _, host, calibrated = sampler.timed(lambda: verifier.run(point))
                per_point[point_label(point)].append(calibrated)
                host_pass += host
            host_passes.append(host_pass)
            if len(host_passes) == 1:
                # Garbage of finished points is freed only when the cyclic
                # collector gets to it, so the peak creeps up with every
                # pass; a fixed amount of work keeps it independent of the
                # number of passes the host's speed allows.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        sampler.close()
    metrics = {
        "wall_s": (sum(statistics.median(times) for times in per_point.values()), "s",
                   f"sum of per-point medians over {len(host_passes)} passes of {len(points)} "
                   f"points (host median {statistics.median(host_passes):.3f} s)"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process after the first pass"),
    }
    return _result(verifier, metrics)


def traced_run(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    points = build_points(workload, seed)
    verifier = Verifier(workload, seed)
    untraced: List[float] = []
    passes: List[Dict[str, float]] = []
    pair_times: List[float] = []
    dumps = []
    sampler = SpeedSampler()
    try:
        started = time.perf_counter()
        while _keep_going(started, seconds, pair_times, 1):
            pair_start = time.perf_counter()
            untraced.append(sum(
                sampler.timed(lambda: verifier.run(point))[2] for point in points
            ))

            tracer = Tracer()
            install(tracer)
            try:
                wall = 0.0
                completions = 0
                for point in points:
                    tracer.begin_point()
                    result, host, calibrated = sampler.timed(lambda: verifier.run(point))
                    tracer.end_point()
                    # Spread the sampler's share evenly over the buckets.
                    tracer.fold(calibrated / host)
                    harvest(tracer)
                    wall += calibrated
                    if result is not None:
                        completions += result["joins_completed"] + result["oltp_completed"]
            finally:
                tracer.uninstall()
            passes.append(layer_metrics(tracer, max(completions, 1), untraced[-1], wall))
            dumps.append(tracer.dump())
            pair_times.append(time.perf_counter() - pair_start)
    finally:
        sampler.close()

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "passes": dumps}, indent=1)
    )
    metrics = {}
    for name, unit in PER_LAYER:
        # Counts repeat exactly from pass to pass; times are medians.
        values = [layer_values[name] for layer_values in passes]
        metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit, "")
    return _result(verifier, metrics, f"{len(passes)} traced + {len(untraced)} untraced passes")


def _result(verifier: Verifier, metrics, summary: str = "") -> Dict[str, object]:
    for problem in verifier.problems:
        print(f"FAILED {problem}")
    rate = verifier.failed / verifier.attempted
    print(f"  {'error_rate':<34} {rate:>14.4f} ratio  "
          f"({verifier.failed} of {verifier.attempted} point runs failed)")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<9} {note}")
    if summary:
        print(f"  ({summary})")
    return {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"simbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    run = traced_run if args.trace else timed_run
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
