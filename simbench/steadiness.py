"""Steadiness report: run the benchmark once per seed and summarise each metric.

For every workload and metric it prints the sample count, median, first and
third quartile (``statistics.quantiles(values, n=4)``), the spread
(quartile distance as a share of the median) and, for end-to-end metrics,
the bound from ``BENCHMARK.json`` -- the data the bounds are set from::

    python3 simbench/steadiness.py --workloads mixed_oltp --seeds 1 2 3 4 5

Runs are sequential, one fresh process each.  ``--out`` keeps every run's
JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if child.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {child.returncode}:\n{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def summarise(values):
    if len(values) < 2:
        return statistics.median(values), values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        runs[workload] = results
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':<34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  unit")
        for name, first in results[0]["metrics"].items():
            values = [result["metrics"][name]["value"] for result in results]
            median, q1, q3, spread = summarise(values)
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:<34} {len(values):>3} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {'' if bound is None else bound:>6}  {first['unit']}{flag}")
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
