"""CPU server of a processing element.

Every major processing step requests CPU service (paper §4): transaction
initiation (BOT), object accesses in main memory, I/O overhead, communication
overhead and commit processing.  Service times are derived from the
instruction cost table (Fig. 4) and the CPU speed in MIPS.

OLTP transactions may be given priority over complex-query work; the
underlying :class:`~repro.sim.resources.PriorityResource` serves lower
priority values first.

Event coalescing
----------------
Multi-quantum demands normally cost one request/timeout round-trip per
quantum.  When the CPU is uncontended (single server, nothing queued) the
whole remaining demand is covered by one :class:`~repro.sim.core.BatchTimeout`
macro-event instead.  Semantics are pinned to the unbatched loop:

* the macro end time and every virtual quantum boundary are computed by the
  *same left-fold of float additions* the per-quantum loop performs, so
  completion times are bit-identical;
* busy-time accounting is replayed lazily at the same boundaries (and topped
  up by ``Resource._account`` at observation points), so utilisation windows
  are bit-identical;
* the moment a competing request arrives -- OLTP preemption included -- the
  macro-event splits on the first quantum boundary at or after the arrival:
  the holder releases there (granting the newcomer exactly as the unbatched
  release would) and re-queues its remainder through the per-quantum path.

A macro-event is built only for a run with at least two interior boundaries
to jump: a remaining demand of three or more quanta.  A two-quantum demand
has one boundary, so a batch could save at most one heap push while costing
its whole set-up and replay; it always takes the per-quantum path.
"""

from __future__ import annotations

import logging
from heapq import heappush
from typing import Generator

from repro.config.parameters import CpuConfig, InstructionCosts
from repro.sim import (
    BatchHop,
    BatchTimeout,
    Environment,
    PriorityResource,
    Timeout,
    coalescing_enabled,
)

__all__ = ["CpuServer", "PRIORITY_OLTP", "PRIORITY_QUERY", "PRIORITY_BACKGROUND"]

#: Priority levels: lower value is served first.
PRIORITY_OLTP = 0
PRIORITY_QUERY = 5
PRIORITY_BACKGROUND = 9

_logger = logging.getLogger(__name__)

#: Relative float-rounding slack before a >1.0 windowed utilisation is
#: reported as an accounting error rather than clamped silently.
_UTILIZATION_SLACK = 1e-9


class _QuantumBatch:
    """Bookkeeping for one coalesced run of uncontended CPU quanta.

    ``n >= 3`` slices cover the remaining demand: ``n - 1`` full quanta of
    ``sec_q`` seconds each plus a final slice of ``sec_final`` seconds.
    Boundary ``k`` (1-based) is the fold ``t0 + sec_1 + ... + sec_k``; the
    macro-event fires at boundary ``n`` unless split earlier.

    The replay cursor (``next_index``/``next_time``) applies, strictly before
    any observation time, the busy-time piece the unbatched release at each
    crossed boundary would have added.  The boundary *at* the current time is
    always left to the real ``release()`` so piece ordering matches.
    """

    __slots__ = (
        "resource", "n", "sec_q", "sec_final", "next_index", "next_time",
        "event", "split_index", "hop_index", "hop_time", "hops",
        "has_marker", "fired", "relay", "_alive",
    )

    def __init__(
        self,
        env: Environment,
        resource: PriorityResource,
        n: int,
        sec_q: float,
        sec_final: float,
    ):
        self.resource = resource
        self.n = n
        self.sec_q = sec_q
        self.sec_final = sec_final
        self.next_index = 1
        self.next_time = env._now + sec_q
        self.split_index = 0  # 0 = ran to completion
        end = env._now
        for _ in range(n - 1):
            end += sec_q
        end += sec_final
        # The macro-event is deferred: the hop cursor below walks the quantum
        # boundaries and only schedules it once the cursor reaches the end,
        # so heap pushes happen at the same simulated moments (and hence the
        # same event-id tie-break positions) as the unbatched slice timeouts.
        self.event = BatchTimeout(env, end, defer=True)
        self.hop_index = 1
        self.hop_time = self.next_time
        self.hops = 1
        self.has_marker = True
        self.fired = False
        self.relay = False
        self._alive = True
        BatchHop(env, self, self.next_time)

    def hop(self, horizon: float) -> None:
        """Advance the hop cursor at least one boundary, at most to ``horizon``.

        Called by the kernel when this batch's pending heap entry surfaces
        with nothing scheduled before ``horizon``: every interior boundary up
        to the horizon is provably free of competing events, so the cursor
        jumps across all of them at once.  Each boundary value repeats the
        unbatched loop's float fold exactly.

        When a competing event shares this boundary's instant
        (``horizon`` equals the boundary time), the boundary is *realized*
        instead: its accounting piece is applied inclusively right here --
        the same pop position where the unbatched release would run -- and
        the follow-up push is *relayed* through a same-instant marker.
        Unbatched, the boundary takes two heap hops within the instant: the
        slice timeout pops (release), the re-granted request pops, and only
        the latter pushes the next slice timeout.  The relay entry occupies
        the request's ``(time, eid)`` slot, so the next boundary's event is
        allocated its id in the instant's second wave exactly as the
        unbatched push would be -- otherwise it wins same-instant
        tie-breaks it should lose.
        """
        if self.split_index:
            self._alive = False
            if self.relay:
                # Preempted between the realize and this relay entry: the
                # relay slot is where the unbatched re-granted request would
                # push the next slice timeout, so reschedule the wake here.
                self.event.split(self.next_time)
            else:
                # Preempted with this marker already at the split boundary:
                # the marker's (time, eid) slot is exactly where the
                # unbatched slice timeout would pop, so fire the wake here
                # (see preempt()).
                self.fired = True
                self.event.fire()
            return
        if self.relay:
            # Second wave of a realized boundary: jump onward from here.
            self.relay = False
        elif horizon <= self.hop_time:
            self.sync(self.hop_time, inclusive=True)
            self.relay = True
            self.hops += 1
            BatchHop(self.event.env, self, self.hop_time)
            return
        i = self.hop_index
        t = self.hop_time
        n = self.n
        sec_q = self.sec_q
        i += 1
        t += sec_q if i < n else self.sec_final
        while i < n:
            nt = t + (sec_q if i + 1 < n else self.sec_final)
            if nt > horizon:
                break
            i += 1
            t = nt
        self.hop_index = i
        self.hop_time = t
        n = self.n
        event = self.event
        env = event.env
        if i >= n:
            # Cursor reached the batch end: schedule the macro-event itself.
            self.has_marker = False
            eid = env._eid = env._eid + 1
            heappush(env._queue, (event._when, eid, event))
        else:
            self.hops += 1
            BatchHop(env, self, t)

    def sync(self, now: float, inclusive: bool = False) -> None:
        """Replay the accounting of quantum boundaries strictly before ``now``.

        With ``inclusive`` the boundary *at* ``now`` is applied as well --
        used by :meth:`hop` to realize a boundary whose instant is shared
        with a competing event.
        """
        nt = self.next_time
        if nt > now or (nt == now and not inclusive):
            return
        res = self.resource
        i = self.next_index
        n = self.n
        sec_q = self.sec_q
        while nt < now or (inclusive and nt == now):
            # Unbatched, the holder releases and immediately re-acquires the
            # sole slot at each boundary: one busy piece ending there.
            res._busy_time += res._busy_servers * (nt - res._last_change)
            res._last_change = nt
            i += 1
            if i < n:
                nt += sec_q
            elif i == n:
                nt += self.sec_final
            else:  # pragma: no cover - boundary n is the macro end itself
                break
        self.next_index = i
        self.next_time = nt

    def elided_events(self, covered: int) -> int:
        """Heap pushes saved over ``covered`` quanta (unbatched: a request and a timeout each).

        The batch pushed the first request before it existed, its markers and
        its wake: none when a marker fired it, two when a split followed the
        end push.
        """
        pushed = 1 + self.hops + (0 if self.fired else 1)
        if self.split_index and not self.has_marker:
            pushed += 1
        return max(0, 2 * covered - pushed)

    def preempt(self) -> None:
        """A competing request arrived: split on the next quantum boundary.

        After :meth:`sync`, ``next_time`` is the first boundary at or after
        the arrival -- the instant where the unbatched loop would release the
        slot and let the queue (the newcomer included) compete for it.
        """
        env = self.event.env
        self.sync(env._now)
        self.split_index = self.next_index
        self.resource._batch = None
        if self.has_marker and (self.relay or self.hop_time == self.next_time):
            # The pending marker (or same-instant relay entry) holds the
            # event-id slot the unbatched wake would hold: leave the wake to
            # it (see hop()).
            return
        self._alive = False  # orphan any pending BatchHop entry
        self.event.split(self.next_time)


class CpuServer:
    """The CPU(s) of one PE with utilisation bookkeeping.

    Besides the lifetime utilisation (from the resource accounting), the
    server keeps a *windowed* utilisation that the control node polls
    periodically -- dynamic load balancing reacts to the recent past, not to
    the whole history.
    """

    def __init__(
        self,
        env: Environment,
        config: CpuConfig,
        costs: InstructionCosts,
        pe_id: int = 0,
    ):
        self.env = env
        self.config = config
        self.costs = costs
        self.pe_id = pe_id
        self.resource = PriorityResource(env, capacity=config.cpus_per_pe, name=f"cpu[{pe_id}]")
        self._quantum = max(1, config.quantum_instructions)
        # Quantum coalescing virtualises a single-server resource; multi-CPU
        # PEs fall back to per-quantum slicing.
        self._coalesce = coalescing_enabled() and config.cpus_per_pe == 1
        self._window_start_time = 0.0
        self._window_start_busy = 0.0
        self._windowed_utilization = 0.0
        self.total_instructions = 0.0

    # -- service -----------------------------------------------------------
    def seconds_for(self, instructions: float) -> float:
        """CPU service time for a request of ``instructions``."""
        return self.config.seconds_for(instructions)

    def consume(
        self, instructions: float, priority: int = PRIORITY_QUERY
    ) -> Generator:
        """Simulation process step: occupy the CPU for ``instructions``.

        Demands larger than the scheduling quantum are served in slices so
        that concurrently running transactions share the CPU in a
        round-robin fashion (and higher-priority OLTP work gets in between
        slices) instead of waiting for one another's full demand.  When the
        CPU is uncontended the slices are coalesced into one macro-event
        with identical semantics (see the module docstring).

        Usage inside a process: ``yield from cpu.consume(50_000)``.
        """
        if instructions <= 0:
            return
        self.total_instructions += instructions
        env = self.env
        resource = self.resource
        quantum = self._quantum
        if instructions <= quantum:
            # Fast path: most demands (message handling, per-chunk CPU work)
            # fit in one quantum -- no slicing arithmetic needed.
            req = resource.request(priority=priority)
            try:
                yield req
                yield Timeout(env, self.config.seconds_for(instructions))
            finally:
                resource.release(req)
            return
        coalesce = self._coalesce
        remaining = instructions
        while remaining > 0:
            req = resource.request(priority=priority)
            try:
                yield req
                # Re-read per slice: fault injection swaps ``self.config``
                # mid-run (stragglers), and a new slice must run at the
                # speed in force when it starts.
                seconds_for = self.config.seconds_for
                if coalesce and remaining > 2 * quantum and resource._queued == 0:
                    # Uncontended and at least three quanta left: cover them
                    # with one macro-event.  Slice count and boundaries
                    # replicate the unbatched loop's float arithmetic exactly.
                    n = 1
                    r = remaining
                    while r > quantum:
                        n += 1
                        r -= quantum
                    batch = _QuantumBatch(
                        env, resource, n, seconds_for(quantum), seconds_for(r)
                    )
                    resource._batch = batch
                    try:
                        yield batch.event
                    finally:
                        batch._alive = False
                        if resource._batch is batch:
                            resource._batch = None
                        batch.sync(env._now)
                    k = batch.split_index
                    if k == 0 or k >= n:
                        k = n
                        remaining = 0
                    else:
                        for _ in range(k):
                            remaining -= quantum
                    env.events_coalesced += batch.elided_events(k)
                else:
                    slice_instructions = quantum if remaining > quantum else remaining
                    yield Timeout(env, seconds_for(slice_instructions))
                    remaining -= slice_instructions
            finally:
                resource.release(req)

    # -- utilisation -------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Lifetime average utilisation (0..1)."""
        return self.resource.utilization()

    def close_window(self) -> float:
        """Close the current measurement window and return its utilisation.

        Called by the control node every report interval.  A value beyond
        1.0 (modulo float-rounding slack) means the busy-time accounting
        double-counted somewhere; it is logged loudly instead of being
        silently hidden by the clamp.
        """
        now, busy = self.resource.snapshot()
        elapsed = now - self._window_start_time
        if elapsed > 0:
            utilization = (busy - self._window_start_busy) / (
                elapsed * self.config.cpus_per_pe
            )
            if utilization > 1.0 + _UTILIZATION_SLACK:
                _logger.warning(
                    "cpu[%d]: windowed utilisation %.12f exceeds 1.0 "
                    "(window %.6f..%.6f) -- busy-time accounting double-counted",
                    self.pe_id,
                    utilization,
                    self._window_start_time,
                    now,
                )
            self._windowed_utilization = utilization if utilization < 1.0 else 1.0
        self._window_start_time = now
        self._window_start_busy = busy
        return self._windowed_utilization

    @property
    def recent_utilization(self) -> float:
        """Utilisation of the most recently closed window."""
        return self._windowed_utilization

    @property
    def queue_length(self) -> int:
        """Number of CPU requests currently waiting."""
        return self.resource.queue_length
