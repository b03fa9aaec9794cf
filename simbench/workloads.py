"""The benchmark's workloads: fixed sets of simulation points built from a seed.

Every workload runs the paper's claim pair -- the integrated, utilisation
driven ``OPT-IO-CPU`` against the static ``psu_opt+RANDOM`` -- through the
scenario registry of :mod:`repro.runner`, so the points are exactly the ones
the experiment engine would execute.  The seed is the spec's base seed:
replicate 0 of every point simulates with it unchanged (42 is the paper's),
further replicates get seeds derived from it by the runner.

Each point's simulated work is made independent of *when* its n-th join
happens to complete, so that two seeds cost nearly the same host time:
open-loop points run to a fixed simulated horizon, the closed loop runs a
fixed number of queries.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Tuple

#: The paper's claim pair: integrated dynamic balancing vs. a static scheme.
CLAIM_PAIR = ("OPT-IO-CPU", "psu_opt+RANDOM")

#: Simulated seconds of every ``mixed_oltp`` point.
MIXED_HORIZON_S = 8.0
#: A join target no point reaches within the horizon: multi-user points
#: then stop at the horizon, never at the n-th completion.
UNREACHED_JOIN_TARGET = 1_000_000

#: Closed-loop queries per ``join_single_user`` point.
SINGLE_USER_QUERIES = 40

#: Simulated seconds of every ``failover_timeline`` point: the crash at
#: 15 s, the recovery at 30 s and 10 s of the recovered system.
FAILOVER_HORIZON_S = 40.0
#: Replicates (seeds) per claim-pair strategy of ``failover_timeline``.  A
#: point sees only a few hundred Poisson join arrivals, and OPT-IO-CPU backs
#: up under them, so one seed's work differs from another's by up to 15 %;
#: four replicates average that down to a few per cent.
FAILOVER_REPLICATES = 4


def _mixed_oltp(seed: int):
    from repro.runner import build_scenario

    spec = build_scenario(
        "figure9b",
        system_sizes=(20,),
        strategies=CLAIM_PAIR,
        measured_joins=UNREACHED_JOIN_TARGET,
        max_simulated_time=MIXED_HORIZON_S,
    )
    return replace(spec, seed=seed, warmup_joins=0)


def _join_single_user(seed: int):
    from repro.runner import ScenarioSpec, Sweep

    return ScenarioSpec(
        name="join_single_user",
        title="Fig. 5 single-user closed loop at 80 PE",
        x_label="# PE",
        sweeps=(
            Sweep(
                kind="single",
                scenario="homogeneous",
                strategies=CLAIM_PAIR,
                system_sizes=(80,),
                num_queries=SINGLE_USER_QUERIES,
            ),
        ),
        seed=seed,
    )


def _failover_timeline(seed: int):
    from repro.runner import build_scenario

    spec = build_scenario(
        "replication",
        system_sizes=(16,),
        strategies=CLAIM_PAIR,
        fault_names=("crash+surge",),
        replication=("chained",),
        timeline_window=5.0,
        max_simulated_time=FAILOVER_HORIZON_S,
    )
    return replace(spec, seed=seed).with_replicates(FAILOVER_REPLICATES)


#: name -> (spec builder, one-line rationale).
WORKLOADS: Dict[str, Tuple[Callable[[int], object], str]] = {
    "mixed_oltp": (
        _mixed_oltp,
        "Fig. 9b mix at 20 PE: OLTP at 100 TPS on the B nodes beside joins; "
        "the contended regime, where locks, OLTP and random disk I/O cost most",
    ),
    "join_single_user": (
        _join_single_user,
        "Fig. 5 single-user closed loop at 80 PE on idle hardware: where "
        "macro-event coalescing pays and every query is planned",
    ),
    "failover_timeline": (
        _failover_timeline,
        "replication scenario at 16 PE on 4 racks, chained copies, crash+surge: "
        "the only workload driving faults, failover scans and the timeline",
    ),
}


def build_points(workload: str, seed: int):
    """The workload's points for ``seed``, in execution order."""
    import repro.experiments  # noqa: F401 - populates the scenario registry

    builder, _ = WORKLOADS[workload]
    return builder(seed).points()


def point_label(point) -> str:
    """Stable name of a point within its workload."""
    return f"{point.strategy}#{point.replicate}"
