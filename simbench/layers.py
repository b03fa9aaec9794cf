"""Which entry points of ``src/repro`` form each layer, and the per-layer metrics.

:func:`install` wraps them in :class:`~spans.Tracer` spans (buckets are
``layer`` or ``layer.part``); :func:`layer_metrics` turns one traced pass
into the per-layer metrics named in ``BENCHMARK.json``.  ``service``,
``cli`` and ``experiments`` are not wrapped: no workload serves points over
HTTP, and table rendering is off the point path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from spans import Tracer


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every measured layer's entry points (undo with ``tracer.uninstall``)."""
    import repro.database.allocation as allocation
    import repro.engine.twopc as twopc
    import repro.execution.oltp as oltp
    import repro.execution.operators as operators
    import repro.execution.parallel_join as parallel_join
    import repro.faults.injector as injector
    import repro.runner.runner as runner
    import repro.scheduling.integrated  # noqa: F401 - registers strategy classes
    import repro.simulation.system  # noqa: F401 - imports every execution path
    from repro.engine.buffer import BufferManager
    from repro.engine.deadlock import DeadlockDetector
    from repro.engine.lock import LockManager
    from repro.engine.transaction import TransactionManager
    from repro.execution.pphj import PPHJExecutor
    from repro.hardware.cpu import CpuServer, _QuantumBatch
    from repro.hardware.disk import DiskArray, _ChainBatch
    from repro.hardware.network import Network
    from repro.metrics.collector import MetricsCollector
    from repro.metrics.timeline import TimelineCollector
    from repro.scheduling.control_node import ControlNode
    from repro.scheduling.strategy import LoadBalancingStrategy
    from repro.sim.core import Environment
    from repro.sim.resources import Request
    from repro.simulation.results import SimulationResult
    from repro.simulation.system import ParallelSystem
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.traces import TraceReplayer

    def methods(cls, bucket, names, **options):
        for name in names:
            tracer.patch_method(cls, name, lambda fn: tracer.span(fn, bucket, **options))

    def functions(module, bucket, names, **options):
        for name in names:
            tracer.patch_function(module, name, lambda fn: tracer.span(fn, bucket, **options))

    counts = tracer.counts

    # sim: the kernel loop is the root span of all simulated work.
    methods(Environment, "sim", ("run",))
    tracer.patch_method(Request, "__init__", lambda fn: tracer.counter(fn, "sim.resource.request_calls"))
    tracer.patch_method(Environment, "__init__", lambda fn: tracer.registrar(fn, "env"))

    # hardware, including the macro-event batches the kernel drives.
    methods(CpuServer, "hardware.cpu", ("consume",), count="hardware.cpu.consume_calls")
    methods(_QuantumBatch, "hardware.cpu", ("hop", "sync", "preempt"))
    methods(
        DiskArray,
        "hardware.disk",
        ("read_sequential", "read_random", "write_sequential", "write_random"),
        count="hardware.disk.io_calls",
    )
    methods(_ChainBatch, "hardware.disk", ("hop", "sync", "preempt", "finalize"))
    methods(Network, "hardware.network", ("transfer", "transfer_chain"),
            count="hardware.network.transfer_calls")

    # engine
    def note_lock(event) -> None:
        if not event.triggered:
            counts["engine.lock.waits"] += 1

    methods(LockManager, "engine.lock", ("acquire",), count="engine.lock.acquire_calls",
            after=note_lock)
    methods(LockManager, "engine.lock", ("release_all", "abort_waiter", "purge_txn"))

    def note_victims(victims) -> None:
        counts["engine.deadlock.aborts"] += len(victims)

    methods(DeadlockDetector, "engine.deadlock", ("detect_and_resolve",), after=note_victims)
    methods(DeadlockDetector, "engine.deadlock", ("add_wait", "remove_wait_edges", "remove_transaction"))
    methods(BufferManager, "engine.buffer", ("reserve",), count="engine.buffer.reserve_calls")
    methods(
        BufferManager,
        "engine.buffer",
        ("release", "grow", "shrink", "purge_owner", "ensure_oltp_footprint",
         "release_oltp_footprint"),
    )
    methods(TransactionManager, "engine.txn", ("admit", "finish"))
    functions(twopc, "engine.twopc", ("run_commit",))

    # execution
    functions(oltp, "execution.oltp", ("execute_oltp_transaction",),
              count="execution.oltp.calls", done="execution.oltp.committed")
    functions(parallel_join, "execution.join", ("execute_join_query",),
              count="execution.join.calls")
    functions(operators, "execution.join", ("plan_scan", "scan_fragment"))
    methods(PPHJExecutor, "execution.join",
            ("acquire_memory", "release_memory", "build_phase", "probe_phase"))

    # scheduling
    for cls in {LoadBalancingStrategy, *_subclasses(LoadBalancingStrategy)}:
        if "plan_join" in cls.__dict__:
            methods(cls, "scheduling.plan_join", ("plan_join",), count="scheduling.plan_join_calls")
    methods(ControlNode, "scheduling.reports", ("collect_reports",))

    # workload
    tracer.patch_method(WorkloadGenerator, "__init__", lambda fn: tracer.registrar(fn, "generator"))
    methods(WorkloadGenerator, "workload", ("_arrivals",))
    methods(TraceReplayer, "workload", ("_replay",))

    # database
    functions(allocation, "database.failover", ("failover_scan_sites",),
              count="database.failover_calls")
    functions(allocation, "database", ("allocate_paper_database", "assign_replicas"))

    # faults
    tracer.patch_method(injector.FaultRuntime, "__init__", lambda fn: tracer.registrar(fn, "faults"))
    methods(
        injector.FaultRuntime,
        "faults",
        ("_injector_loop", "on_submit", "track", "note_plan", "eligible_processors",
         "window_stats", "data_availability", "_resubmit_later", "_re_replicate",
         "_rebalance_in", "_rebalance_out"),
    )

    # metrics
    methods(
        MetricsCollector,
        "metrics",
        ("record_join", "record_oltp", "start_measurement", "snapshot",
         "average_cpu_utilization", "average_disk_utilization", "average_memory_utilization"),
    )
    methods(
        TimelineCollector,
        "metrics",
        ("_tick", "observe_join", "observe_oltp", "finalize", "to_timeline"),
    )

    # simulation: system construction and the per-transaction paths.
    methods(ParallelSystem, "simulation.build", ("__init__",))
    methods(ParallelSystem, "simulation", ("submit", "_run_join", "_run_oltp", "scheduling_context"))

    # runner: config build, point execution, result serialisation.
    functions(runner, "runner.build_config", ("build_config",))
    functions(runner, "runner", ("run_point_spec", "build_workload"))
    methods(SimulationResult, "runner.serialize", ("to_dict",))


def harvest(tracer: Tracer) -> None:
    """Fold the per-point instance counters into ``tracer.counts``, then forget the instances."""
    counts = tracer.counts
    for env in tracer.instances["env"]:
        counts["sim.events"] += env.events_dispatched
        counts["sim.events_coalesced"] += env.events_coalesced
    for generator in tracer.instances["generator"]:
        counts["workload.arrivals"] += sum(generator.generated.values())
    for runtime in tracer.instances["faults"]:
        counts["faults.kills"] += runtime.kills
        counts["faults.resubmits"] += runtime.resubmits
    for instances in tracer.instances.values():
        instances.clear()  # in place: the registrars hold these lists


#: Per-layer metrics: name -> unit.  Order is the report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.events_coalesced", "count"),
    ("sim.coalesce_ratio", "ratio"),
    ("sim.events_per_txn", "count/txn"),
    ("sim.events_per_s", "1/s"),
    ("sim.resource.request_calls", "count"),
    ("sim.self_s", "s"),
    ("hardware.cpu.consume_calls", "count"),
    ("hardware.cpu.self_s", "s"),
    ("hardware.disk.io_calls", "count"),
    ("hardware.disk.self_s", "s"),
    ("hardware.network.transfer_calls", "count"),
    ("hardware.network.self_s", "s"),
    ("engine.lock.acquire_calls", "count"),
    ("engine.lock.waits", "count"),
    ("engine.lock.self_s", "s"),
    ("engine.deadlock.aborts", "count"),
    ("engine.buffer.reserve_calls", "count"),
    ("engine.buffer.self_s", "s"),
    ("engine.txn.self_s", "s"),
    ("engine.twopc.self_s", "s"),
    ("execution.oltp.calls", "count"),
    ("execution.oltp.self_s", "s"),
    ("execution.oltp.commit_ratio", "ratio"),
    ("execution.join.calls", "count"),
    ("execution.join.self_s", "s"),
    ("scheduling.plan_join_calls", "count"),
    ("scheduling.plan_join_s", "s"),
    ("scheduling.reports_s", "s"),
    ("workload.arrivals", "count"),
    ("workload.self_s", "s"),
    ("database.failover_calls", "count"),
    ("database.failover_s", "s"),
    ("faults.self_s", "s"),
    ("faults.kills", "count"),
    ("faults.resubmits", "count"),
    ("metrics.self_s", "s"),
    ("simulation.build_s", "s"),
    ("runner.build_config_s", "s"),
    ("runner.serialize_s", "s"),
    ("runner.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: Inclusive-time metrics: metric -> bucket.
_INCLUSIVE = {
    "scheduling.plan_join_s": "scheduling.plan_join",
    "scheduling.reports_s": "scheduling.reports",
    "database.failover_s": "database.failover",
    "simulation.build_s": "simulation.build",
    "runner.build_config_s": "runner.build_config",
    "runner.serialize_s": "runner.serialize",
}


def layer_metrics(tracer: Tracer, completions: int,
                  untraced_wall_s: float, traced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's points.

    ``completions`` is the joins plus OLTP transactions the pass completed;
    the walls are calibrated seconds (see :mod:`hostspeed`) of an untraced
    and of the traced pass.
    """
    counts = tracer.counts
    values: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if unit == "count":
            values[name] = counts[name]
        elif name in _INCLUSIVE:
            values[name] = tracer.inclusive_s(_INCLUSIVE[name])
        elif name.endswith(".self_s"):
            bucket = name[: -len(".self_s")]
            values[name] = tracer.self_s.get(bucket, 0.0)
    events = counts["sim.events"]
    values["sim.coalesce_ratio"] = (
        (events + counts["sim.events_coalesced"]) / events if events else 0.0
    )
    values["sim.events_per_txn"] = events / completions
    values["sim.events_per_s"] = events / untraced_wall_s
    started = counts["execution.oltp.calls"]
    values["execution.oltp.commit_ratio"] = (
        counts["execution.oltp.committed"] / started if started else 0.0
    )
    values["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    return values
