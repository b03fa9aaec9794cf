"""Semantics of the event-coalescing layer (PR 6).

Macro-events must be *invisible* to simulation outcomes: every test here
compares a batched run against its unbatched twin with ``==`` (not approx),
because the coalescing layer promises bit-identical times and accounting,
not merely close ones.  The kernel-level tests pin the BatchTimeout /
BatchHop / BatchWalk building blocks directly.
"""

import pytest

from repro.config import CpuConfig, DiskConfig, InstructionCosts, NetworkConfig, MS
from repro.hardware import CpuServer, DiskArray, Network, PRIORITY_OLTP
from repro.sim import (
    BatchTimeout,
    BatchWalk,
    Environment,
    SimulationError,
    Timeout,
    coalescing_enabled,
)


# ---------------------------------------------------------------------------
# kernel building blocks
# ---------------------------------------------------------------------------

def test_batch_timeout_defer_skips_initial_push():
    env = Environment()
    deferred = BatchTimeout(env, 5.0, defer=True)
    assert env._queue == []
    assert deferred.when == 5.0
    # A non-deferred one is scheduled immediately.
    BatchTimeout(env, 3.0)
    assert len(env._queue) == 1


def test_batch_timeout_split_fires_once_at_split_time():
    env = Environment()
    fired = []
    event = BatchTimeout(env, 10.0)
    event.add_callback(lambda ev: fired.append(env.now))
    event.split(4.0)
    env.run()
    # Fires at the split time; the stale entry at 10.0 is skipped silently.
    assert fired == [4.0]
    assert env.now == 10.0  # stale heap entry still advances the clock


def test_batch_timeout_split_validation():
    env = Environment()
    event = BatchTimeout(env, 10.0)
    with pytest.raises(SimulationError):
        event.split(11.0)  # beyond the batch end
    with pytest.raises(SimulationError):
        BatchTimeout(env, -1.0)  # end in the past
    env.run()
    with pytest.raises(SimulationError):
        event.split(10.0)  # already processed


def test_batch_walk_jumps_quiet_stretch_in_one_hop():
    env = Environment()
    done = []
    walk = BatchWalk(env, [1.0, 2.0, 3.0], 4.0)
    walk.event.add_callback(lambda ev: done.append(env.now))
    env.run()
    assert done == [4.0]
    # One marker at the first boundary, then a single jump to the end:
    # heap traffic is 2 entries instead of 4 per-step timeouts.
    assert walk.hops == 1
    assert env.events_dispatched == 2


def test_batch_walk_steps_around_interleaved_event():
    env = Environment()
    order = []
    walk = BatchWalk(env, [1.0, 2.0, 3.0], 4.0)
    walk.event.add_callback(lambda ev: order.append(("walk", env.now)))

    def other():
        yield Timeout(env, 2.5)
        order.append(("other", env.now))

    env.process(other())
    env.run()
    assert order == [("other", 2.5), ("walk", 4.0)]
    # The marker could not jump past the event at 2.5 in its first hop.
    assert walk.hops >= 2


def test_batch_walk_without_boundaries_schedules_end_directly():
    env = Environment()
    done = []
    walk = BatchWalk(env, [], 2.0)
    walk.event.add_callback(lambda ev: done.append(env.now))
    env.run()
    assert done == [2.0]
    assert walk.hops == 0


def test_coalescing_toggle_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_COALESCE", "0")
    assert coalescing_enabled() is False
    env = Environment()
    cpu = CpuServer(env, CpuConfig(), InstructionCosts())
    assert cpu._coalesce is False
    monkeypatch.delenv("REPRO_COALESCE")
    assert coalescing_enabled() is True


# ---------------------------------------------------------------------------
# CPU quantum batching
# ---------------------------------------------------------------------------

def _run_cpu(coalesce, workload):
    """Build a CPU server, force the coalescing mode, run ``workload``."""
    env = Environment()
    cpu = CpuServer(env, CpuConfig(mips=20), InstructionCosts())
    cpu._coalesce = coalesce
    trace = []
    workload(env, cpu, trace)
    env.run()
    return env, cpu, trace


def test_cpu_uncontended_batch_is_bit_identical():
    # 12.3 quanta: exercises the full-quantum fold plus a fractional tail.
    def workload(env, cpu, trace):
        def work():
            yield from cpu.consume(1_230_000)
            trace.append(("done", env.now))
            trace.append(("busy", cpu.resource.snapshot()))

        env.process(work())

    env_a, cpu_a, trace_a = _run_cpu(False, workload)
    env_b, cpu_b, trace_b = _run_cpu(True, workload)
    assert trace_a == trace_b  # exact float equality, fold for fold
    assert env_b.events_coalesced > 0
    assert env_b.events_dispatched < env_a.events_dispatched


def test_cpu_poll_during_batch_matches_unbatched_accounting():
    def workload(env, cpu, trace):
        def work():
            yield from cpu.consume(1_000_000)  # 10 quanta of 5 ms

        def poller():
            # Polls strictly inside quanta (12.5 ms) and exactly on a
            # boundary (25.0 ms): both must read the replayed busy time.
            for at in (0.0125, 0.025, 0.0405):
                yield Timeout(env, at - env.now)
                trace.append((env.now, cpu.close_window()))

        env.process(work())
        env.process(poller())

    _, _, trace_a = _run_cpu(False, workload)
    _, _, trace_b = _run_cpu(True, workload)
    assert trace_a == trace_b
    assert trace_a[0][1] == 1.0  # fully busy window, not clamped garbage


def test_cpu_oltp_preempts_mid_macro_on_quantum_boundary():
    # Holder: 10 quanta (boundaries every 5 ms).  OLTP arrives at 7 ms,
    # mid-macro: the batch must split on the *next* boundary (10 ms), where
    # the unbatched holder would release, and OLTP (priority 0) wins the
    # grant over the holder's re-request.
    def workload(env, cpu, trace):
        def holder():
            yield from cpu.consume(1_000_000)
            trace.append(("holder", env.now))

        def oltp():
            yield Timeout(env, 0.007)
            yield from cpu.consume(10_000, priority=PRIORITY_OLTP)
            trace.append(("oltp", env.now))

        env.process(holder())
        env.process(oltp())

    _, _, trace_a = _run_cpu(False, workload)
    _, _, trace_b = _run_cpu(True, workload)
    assert trace_a == trace_b
    # OLTP runs 10.0..10.5 ms; the holder's remaining 8 quanta then finish.
    assert trace_b[0] == ("oltp", pytest.approx(10.5 * MS))
    assert trace_b[1] == ("holder", pytest.approx(50.5 * MS))


# ---------------------------------------------------------------------------
# disk I/O chain batching
# ---------------------------------------------------------------------------

def _run_disk(coalesce, workload):
    env = Environment()
    disks = DiskArray(env, DiskConfig(disks_per_pe=1), pe_id=0)
    disks._coalesce = coalesce
    trace = []
    workload(env, disks, trace)
    env.run()
    return env, disks, trace


def test_disk_sequential_chain_is_bit_identical():
    def workload(env, disks, trace):
        def io():
            yield from disks.read_sequential(10)  # 3 physical I/Os
            trace.append(("done", env.now, disks.physical_ios))
            trace.append(("busy", disks.snapshot()))

        env.process(io())

    env_a, _, trace_a = _run_disk(False, workload)
    env_b, _, trace_b = _run_disk(True, workload)
    assert trace_a == trace_b
    assert env_b.events_coalesced > 0
    assert env_b.events_dispatched < env_a.events_dispatched


def test_disk_chain_split_by_competing_io_is_bit_identical():
    def workload(env, disks, trace):
        def chain():
            yield from disks.write_sequential(10)
            trace.append(("chain", env.now))

        def competitor():
            # Lands at 10 ms, inside the chain's first disk phase.
            yield Timeout(env, 0.010)
            yield from disks.read_random(page_key="hot")
            trace.append(("random", env.now))

        env.process(chain())
        env.process(competitor())

    _, disks_a, trace_a = _run_disk(False, workload)
    _, disks_b, trace_b = _run_disk(True, workload)
    assert trace_a == trace_b
    assert disks_a.physical_ios == disks_b.physical_ios


def test_disk_split_wake_keeps_tie_break_at_shared_boundary():
    # Regression: a preempted chain's wake must pop at the *same heap
    # position* as the unbatched chunk timeout, not at a fresh (later) event
    # id.  An interloper schedules an event landing exactly on the split
    # boundary, pushed after the chunk started but before the preemption: it
    # must lose the same-instant tie-break to the chain's wake (and thus
    # queue behind it at the controller) just as it would unbatched.  Before
    # the marker-fire fix, BatchTimeout.split() gave the wake a later event
    # id, the interloper grabbed the controller first, and the chain drifted
    # by the interloper's whole hold time.
    def workload(env, disks, trace):
        boundary = disks.config.sequential_io_time(4)  # first chunk ends here
        assert 0.004 + (boundary - 0.004) == boundary  # exact float landing

        def chain():
            yield from disks.read_sequential(12)  # 3 chunks of 4 pages
            trace.append(("chain", env.now))

        def interloper():
            yield Timeout(env, 0.004)
            yield Timeout(env, boundary - env.now)  # lands exactly on it
            req = disks.controller.request()
            yield req
            try:
                trace.append(("ctl-grant", env.now))
                yield Timeout(env, 0.050)
            finally:
                disks.controller.release(req)

        def competitor():
            yield Timeout(env, 0.008)  # preempts the chain mid-first-chunk
            req = disks.disks[0].request()
            yield req
            try:
                yield Timeout(env, 0.020)
            finally:
                disks.disks[0].release(req)
            trace.append(("competitor", env.now))

        env.process(chain())
        env.process(interloper())
        env.process(competitor())

    _, _, trace_a = _run_disk(False, workload)
    _, _, trace_b = _run_disk(True, workload)
    assert trace_a == trace_b
    # The chain's wake won the controller at the boundary: the interloper's
    # grant is delayed by the chunk's controller time, not vice versa.
    assert trace_b[0][0] == "ctl-grant"
    assert trace_b[0][1] == pytest.approx(0.019 + 0.0056)


def test_cpu_lockstep_batches_keep_completion_order():
    # CPU analog of the lockstep-chain regression below: two equal demands
    # on separate CPUs share every quantum-boundary instant, so a batched
    # marker that pushes its follow-up entry first-wave (instead of
    # relaying through the instant's second wave) steals the downstream
    # shared grant from the demand that started first.
    from repro.sim import Resource

    def run(coalesce):
        env = Environment()
        first = CpuServer(env, CpuConfig(mips=20), InstructionCosts())
        second = CpuServer(env, CpuConfig(mips=20), InstructionCosts())
        first._coalesce = False  # always the unbatched pacemaker
        second._coalesce = coalesce
        shared = Resource(env, capacity=1, name="shared")
        trace = []

        def work(name, cpu):
            yield from cpu.consume(300_000)  # 3 quanta, same fold
            req = shared.request()
            yield req
            try:
                trace.append((name, env.now))
                yield Timeout(env, 0.010)
            finally:
                shared.release(req)

        env.process(work("first", first))
        env.process(work("second", second))
        env.run()
        return trace

    trace_a = run(False)
    trace_b = run(True)
    assert trace_a == trace_b
    assert trace_b[0][0] == "first"
    assert trace_b[1][1] == trace_b[0][1] + 0.010


def test_disk_lockstep_chains_keep_completion_order():
    # Regression: at a boundary whose instant is *shared* with real events,
    # the unbatched loop takes two heap hops (the phase timeout pops, the
    # re-granted request pops, and only the latter pushes the next phase
    # timeout), so the next boundary's event id is allocated in the
    # instant's second wave.  A marker that pushes its follow-up entry
    # during its own pop allocates one wave early and wins every later
    # same-instant tie-break it should lose.  Two scans in lockstep expose
    # this: the one started *second* must stay second all the way to a
    # shared downstream resource.
    from repro.sim import Resource

    def run(coalesce):
        env = Environment()
        first = DiskArray(env, DiskConfig(disks_per_pe=1), pe_id=0)
        second = DiskArray(env, DiskConfig(disks_per_pe=1), pe_id=1)
        first._coalesce = False  # always the unbatched pacemaker
        second._coalesce = coalesce
        shared = Resource(env, capacity=1, name="shared")
        trace = []

        def scan(name, disks):
            yield from disks.read_sequential(8)  # 2 chunks, same fold
            req = shared.request()
            yield req
            try:
                trace.append((name, env.now))
                yield Timeout(env, 0.010)
            finally:
                shared.release(req)

        env.process(scan("first", first))
        env.process(scan("second", second))
        env.run()
        return trace

    trace_a = run(False)
    trace_b = run(True)
    assert trace_a == trace_b
    # Both scans finish at the same instant; creation order must decide the
    # shared grant, so the batched scan waits out the pacemaker's hold.
    assert trace_b[0][0] == "first"
    assert trace_b[1][1] == trace_b[0][1] + 0.010


def test_cpu_split_wake_keeps_tie_break_at_shared_boundary():
    # CPU analog of the disk tie-break regression: OLTP preempts a quantum
    # macro at 7 ms (split boundary 10 ms) while an interloper's request
    # lands exactly on the 10 ms boundary, pushed between the quantum start
    # (5 ms) and the preemption.  Unbatched, the holder's slice timeout pops
    # first at 10 ms (older event id): release, OLTP regrant, holder
    # re-queues *before* the interloper.  The split wake must keep that
    # order.  The interloper's landing event is pushed at 6 ms -- after the
    # quantum started (5 ms) but before the preemption (7 ms) -- so only a
    # wake holding the quantum-start event id beats it.
    def workload(env, cpu, trace):
        def holder():
            yield from cpu.consume(1_000_000)  # 10 quanta of 5 ms
            trace.append(("holder", env.now))

        def oltp():
            yield Timeout(env, 0.007)
            yield from cpu.consume(10_000, priority=PRIORITY_OLTP)
            trace.append(("oltp", env.now))

        def interloper():
            yield Timeout(env, 0.006)
            yield Timeout(env, 0.010 - env.now)  # lands exactly at 10 ms
            yield from cpu.consume(50_000)
            trace.append(("interloper", env.now))

        env.process(holder())
        env.process(oltp())
        env.process(interloper())

    _, _, trace_a = _run_cpu(False, workload)
    _, _, trace_b = _run_cpu(True, workload)
    assert trace_a == trace_b


# ---------------------------------------------------------------------------
# batching gate and coalesced-event accounting
# ---------------------------------------------------------------------------

def _on_disk(io):
    def workload(env, disks, trace):
        def run():
            yield from io(disks)
            trace.append(("done", env.now, disks.physical_ios))
            trace.append(("busy", disks.snapshot()))

        env.process(run())

    return _run_disk, workload


def _on_cpu(work):
    def workload(env, cpu, trace):
        def run():
            yield from work(cpu)
            trace.append(("done", env.now))
            trace.append(("busy", cpu.resource.snapshot()))

        env.process(run())

    return _run_cpu, workload


def _preempted(run, chain, competitor):
    # ``chain`` starts uncontended and is split by ``competitor`` at 7 ms.
    def workload(env, resource, trace):
        def first():
            yield from chain(resource)
            trace.append(("chain", env.now))

        def second():
            yield Timeout(env, 0.007)
            yield from competitor(resource)
            trace.append(("competitor", env.now))

        env.process(first())
        env.process(second())

    return run, workload


def _chunks(n):
    return _on_disk(lambda disks: disks.read_sequential(n * disks.prefetch))


def _quanta(n):
    return _on_cpu(lambda cpu: cpu.consume(n * cpu._quantum))


@pytest.mark.parametrize(
    "case",
    [
        _chunks(2),
        _chunks(3),
        _chunks(10),
        _quanta(3),
        _quanta(13),
        _preempted(_run_disk, lambda d: d.read_sequential(40), lambda d: d.read_random()),
        _preempted(
            _run_cpu,
            lambda c: c.consume(10 * c._quantum),
            lambda c: c.consume(10_000, priority=PRIORITY_OLTP),
        ),
    ],
    ids=[
        "disk-2-chunks",
        "disk-3-chunks",
        "disk-10-chunks",
        "cpu-3-quanta",
        "cpu-13-quanta",
        "disk-10-chunks-split",
        "cpu-10-quanta-split",
    ],
)
def test_coalesced_count_is_exactly_the_saved_events(case):
    # events_coalesced promises the heap pushes the unbatched run would have
    # made on top of the batched run's own: the two must add up exactly, for
    # a batch that runs to its end and for one split by a competitor.
    run, workload = case
    env_a, _, trace_a = run(False, workload)
    env_b, _, trace_b = run(True, workload)
    assert trace_a == trace_b
    assert env_b.events_coalesced > 0
    assert env_b.events_dispatched + env_b.events_coalesced == env_a.events_dispatched


@pytest.mark.parametrize(
    "case",
    [
        _on_disk(lambda disks: disks.read_random()),
        _on_disk(lambda disks: disks.write_random()),
        _chunks(1),
        _quanta(2),
    ],
    ids=["read-random", "write-random", "disk-1-chunk", "cpu-2-quanta"],
)
def test_runs_with_fewer_than_two_interior_boundaries_are_not_batched(case):
    run, workload = case
    env_a, _, trace_a = run(False, workload)
    env_b, _, trace_b = run(True, workload)
    assert trace_a == trace_b
    assert env_b.events_coalesced == 0
    assert env_b.events_dispatched == env_a.events_dispatched


# ---------------------------------------------------------------------------
# network transfer chains
# ---------------------------------------------------------------------------

def test_network_transfer_chain_is_bit_identical_and_saves_events():
    sizes = [4_096, 8_192, 20_000, 100]

    def run(chain):
        env = Environment()
        net = Network(env, NetworkConfig(), InstructionCosts())
        done = []

        def sender():
            if chain:
                yield from net.transfer_chain(sizes)
            else:
                for nbytes in sizes:
                    yield from net.transfer(nbytes)
            done.append(env.now)

        env.process(sender())
        env.run()
        return env, net, done

    env_a, net_a, done_a = run(chain=False)
    env_b, net_b, done_b = run(chain=True)
    assert done_a == done_b  # end time folds the same float additions
    assert (net_a.messages_sent, net_a.packets_sent, net_a.bytes_sent) == (
        net_b.messages_sent,
        net_b.packets_sent,
        net_b.bytes_sent,
    )
    assert env_b.events_dispatched < env_a.events_dispatched
    assert env_b.events_coalesced > 0


# ---------------------------------------------------------------------------
# fault injection vs coalescing (PR 8)
# ---------------------------------------------------------------------------

def test_cpu_degrade_mid_macro_is_bit_identical():
    # A fault injector halves the CPU speed at 7 ms, mid-macro (quantum
    # boundaries every 5 ms).  The injector splits any active batch first
    # (FaultRuntime._apply_speed), so elapsed quanta are accounted at the
    # old speed and the remainder re-runs at the new one -- exactly what
    # the unbatched loop's per-slice config re-read produces.
    from dataclasses import replace

    def workload(env, cpu, trace):
        def work():
            yield from cpu.consume(1_000_000)  # 10 quanta of 5 ms
            trace.append(("done", env.now))
            trace.append(("busy", cpu.resource.snapshot()))

        def fault():
            yield Timeout(env, 0.007)
            batch = cpu.resource._batch
            if batch is not None:
                batch.preempt()
            cpu.config = replace(cpu.config, mips=cpu.config.mips * 0.5)

        env.process(work())
        env.process(fault())

    _, _, trace_a = _run_cpu(False, workload)
    _, _, trace_b = _run_cpu(True, workload)
    assert trace_a == trace_b
    # Quanta 1-2 run at 5 ms (the swap lands mid-quantum-2, which finishes
    # at the old speed), the remaining 8 at 10 ms: done at 90 ms.
    assert trace_b[0] == ("done", pytest.approx(0.090))


def test_cpu_crash_mid_macro_matches_unbatched_cleanup():
    # A crash kills the holder at 7 ms, mid-macro.  Process.kill() closes
    # the generator: consume()'s finally blocks sync the batch's elapsed
    # accounting and release the CPU, so a competitor's grant time and the
    # busy-time integral match the unbatched run exactly.
    def workload(env, cpu, trace):
        def work():
            yield from cpu.consume(1_000_000)
            trace.append(("done", env.now))  # must never fire

        def competitor():
            yield Timeout(env, 0.009)
            yield from cpu.consume(100_000)
            trace.append(("competitor", env.now))
            trace.append(("busy", cpu.resource.snapshot()))

        victim = env.process(work())

        def fault():
            yield Timeout(env, 0.007)
            victim.kill()

        env.process(fault())
        env.process(competitor())

    _, _, trace_a = _run_cpu(False, workload)
    _, _, trace_b = _run_cpu(True, workload)
    assert trace_a == trace_b
    assert trace_b[0][0] == "competitor"
    # The victim never completes; the CPU frees at the kill instant, so the
    # competitor runs uncontended 9..14 ms.
    assert trace_b[0][1] == pytest.approx(0.014)
    assert all(entry[0] != "done" for entry in trace_b)


def test_disk_degrade_mid_chain_is_bit_identical():
    # Disk analog: the straggler swap lands inside the first chunk of a
    # coalesced sequential chain.  The in-progress chunk finishes at the
    # speed it started with (its service time was fixed at the disk grant);
    # later chunks re-read the config -- batched and unbatched alike.
    from dataclasses import replace

    def slow(config, factor):
        # Mirrors FaultRuntime._apply_speed: factor scales speed, so the
        # per-page and access times divide by it.
        return replace(
            config,
            controller_service_time=config.controller_service_time / factor,
            transmission_time_per_page=config.transmission_time_per_page / factor,
            avg_access_time=config.avg_access_time / factor,
            prefetch_delay_per_page=config.prefetch_delay_per_page / factor,
        )

    def workload(env, disks, trace):
        def io():
            yield from disks.read_sequential(12)  # 3 chunks of 4 pages
            trace.append(("done", env.now, disks.physical_ios))
            trace.append(("busy", disks.snapshot()))

        def fault():
            yield Timeout(env, 0.010)  # inside the first chunk
            batch = disks._batch
            if batch is not None:
                batch.preempt()
            disks.config = slow(disks.config, 0.5)

        env.process(io())
        env.process(fault())

    _, _, trace_a = _run_disk(False, workload)
    _, _, trace_b = _run_disk(True, workload)
    assert trace_a == trace_b
    assert trace_b[0][0] == "done"


def test_network_chain_with_contention_falls_back_to_per_message():
    env = Environment()
    net = Network(env, NetworkConfig(), InstructionCosts(), model_contention=True)

    def sender():
        yield from net.transfer_chain([8_192, 8_192])

    env.process(sender())
    env.run()
    assert net.messages_sent == 2
    assert env.events_coalesced == 0
