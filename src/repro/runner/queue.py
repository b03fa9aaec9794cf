"""Durable point-task queue in a (possibly shared) directory.

A queue directory (local, or a shared mount visible to several hosts) holds
one durable *task record* per unique simulation point of a dispatched
scenario.  Tasks are keyed by the existing result-cache key
(:func:`repro.runner.cache.point_key`) -- the SHA-256 of the point's
execution-relevant fields -- which is host-independent, so any worker on
any machine can claim a task, run it and store the result where every
other participant finds it.

Directory layout (all files are JSON, all writes atomic via temp file +
rename)::

    <queue-dir>/
      tasks/<task-id>.json    durable task record: the PointSpec payload,
                              enqueue time and the per-task retry budget
      leases/<task-id>.json   claim of the worker currently running the task
                              (worker id, host, pid, heartbeat timestamp)
      done/<task-id>.json     completion marker (worker, attempts, time)
      failed/<task-id>.json   accumulated failed attempts and their errors
      results/<task-id>.json  the result store: a plain
                              :class:`~repro.runner.cache.ResultCache`
                              rooted inside the queue directory

Claim protocol: a lease is taken by hard-linking a fully-written unique
temp file to ``leases/<task-id>.json`` -- link creation is atomic and fails
if the lease exists, on local filesystems and NFS alike.  The claim holder
refreshes ``heartbeat_at`` while it runs (atomic replace).  A lease is
*stale* -- and may be reclaimed -- when its heartbeat is older than the
queue's ``lease_seconds``, or immediately when it was taken on this host by
a process that no longer exists.  Reclaiming renames the stale lease to a
unique tombstone first, so exactly one contender wins even when several
workers spot the same stale lease.

Completion is idempotent: results are keyed like the cache, so a task that
is executed twice (e.g. after a lease expired under a live-but-slow worker)
writes byte-identical results and the duplicate completion is harmless.
Failures consume the task's retry budget; a task whose budget is exhausted
is *failed* and is no longer claimed.  The conformance suite
(``tests/test_backends.py``) pins claim exclusivity, heartbeat expiry,
retry budgets, interrupt-safe lease release and resume-after-kill.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.runner.cache import ResultCache, point_key, write_json_atomic
from repro.runner.spec import PointSpec, point_from_payload
from repro.simulation.results import SimulationResult

__all__ = [
    "FilesystemBackend",
    "TaskRecord",
    "ClaimedTask",
    "EnqueueSummary",
    "QueueStatus",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_MAX_POLL_INTERVAL",
    "TASK_FORMAT_VERSION",
    "pid_alive",
]

#: Seconds without a heartbeat after which a lease may be reclaimed.  Every
#: participant of one queue must use the same value.
DEFAULT_LEASE_SECONDS = 60.0

#: Times a task may fail before the queue stops retrying it.
DEFAULT_MAX_ATTEMPTS = 3

#: Ceiling for the wait loop's exponential backoff (seconds).  Idle polls
#: double from the caller's ``poll_interval`` up to this cap and snap back
#: to the floor whenever a task finishes, so a long drain does not hammer
#: the queue directory while a finishing sweep is still collected promptly.
DEFAULT_MAX_POLL_INTERVAL = 5.0

#: Bump when the task-record schema changes: older records are rejected.
TASK_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TaskRecord:
    """One durable point task."""

    task_id: str
    point: PointSpec
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    enqueued_at: float = 0.0


@dataclass(frozen=True)
class ClaimedTask:
    """A task currently leased to this process."""

    record: TaskRecord

    @property
    def task_id(self) -> str:
        return self.record.task_id

    @property
    def point(self) -> PointSpec:
        return self.record.point


@dataclass(frozen=True)
class EnqueueSummary:
    """Outcome of one :meth:`FilesystemBackend.enqueue` call (unique tasks)."""

    enqueued: int = 0  # newly created task records
    already_queued: int = 0  # task record existed, not finished yet
    already_done: int = 0  # completion marker (or stored result) present

    @property
    def total(self) -> int:
        return self.enqueued + self.already_queued + self.already_done


@dataclass
class QueueStatus:
    """Aggregate view of a queue."""

    total: int = 0
    pending: int = 0  # no lease, no completion, budget left
    running: int = 0  # fresh lease held by some worker
    stale: int = 0  # lease present but its heartbeat expired (or holder dead)
    done: int = 0
    failed: int = 0  # retry budget exhausted
    failures: List[Dict[str, object]] = field(default_factory=list)

    @property
    def unfinished(self) -> int:
        return self.total - self.done - self.failed

    @property
    def all_done(self) -> bool:
        return self.total > 0 and self.done == self.total

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "pending": self.pending,
            "running": self.running,
            "stale": self.stale,
            "done": self.done,
            "failed": self.failed,
            "unfinished": self.unfinished,
            "all_done": self.all_done,
            "failures": list(self.failures),
        }

    def render(self) -> str:
        lines = [
            f"tasks:   {self.total}",
            f"done:    {self.done}",
            f"running: {self.running}",
            f"stale:   {self.stale}",
            f"pending: {self.pending}",
            f"failed:  {self.failed}",
        ]
        for failure in self.failures:
            lines.append(
                f"  failed task {failure['task_id']} "
                f"({failure['attempts']} attempt(s)): {failure['last_error']}"
            )
        return "\n".join(lines)


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a local process id."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists (or cannot tell): assume alive
    return True


class FilesystemBackend:
    """Durable point-task queue in a (possibly shared) directory."""

    def __init__(
        self,
        root: Union[str, Path],
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ):
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
        self.root = Path(root)
        #: Lease/heartbeat timeout; all participants of one queue must agree.
        self.lease_seconds = float(lease_seconds)
        self.tasks_dir = self.root / "tasks"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        self.failed_dir = self.root / "failed"
        #: The result store.  Doubles as the
        #: :class:`~repro.runner.distributed.DistributedRunner`'s cache, so
        #: it inherits hit/miss accounting and pre-seeded results.
        self.results = ResultCache(self.root / "results")

    def task_id(self, point: PointSpec) -> str:
        """A point's task id: its (host-independent) result-cache key."""
        return point_key(point)

    def describe(self) -> str:
        return str(self.root)

    # -- low-level helpers ---------------------------------------------------------
    def _ensure_layout(self) -> None:
        for directory in (self.tasks_dir, self.leases_dir, self.done_dir, self.failed_dir):
            directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, object]]:
        """Parse a JSON file; unreadable or corrupt files read as ``None``."""
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _task_path(self, task_id: str) -> Path:
        return self.tasks_dir / f"{task_id}.json"

    def _lease_path(self, task_id: str) -> Path:
        return self.leases_dir / f"{task_id}.json"

    def _done_path(self, task_id: str) -> Path:
        return self.done_dir / f"{task_id}.json"

    def _failed_path(self, task_id: str) -> Path:
        return self.failed_dir / f"{task_id}.json"

    # -- enqueue -------------------------------------------------------------------
    def enqueue(
        self, points: Sequence[PointSpec], max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ) -> EnqueueSummary:
        """Persist task records for every unique point not yet enqueued.

        Re-dispatching an interrupted sweep is safe and cheap: tasks that
        already have a completion marker (or a stored result, e.g. from a
        worker that crashed between storing and marking) are counted as
        done, existing unfinished records are left untouched, and only new
        points create task files.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self._ensure_layout()
        enqueued = already_queued = already_done = 0
        seen: set = set()
        for point in points:
            task_id = self.task_id(point)
            if task_id in seen:
                continue
            seen.add(task_id)
            task_path = self._task_path(task_id)
            if not task_path.exists():
                write_json_atomic(
                    task_path,
                    {
                        "version": TASK_FORMAT_VERSION,
                        "task_id": task_id,
                        "point": asdict(point),
                        "max_attempts": int(max_attempts),
                        "enqueued_at": time.time(),
                        # presentation hints for humans inspecting the queue
                        "figure": point.figure,
                        "series": point.series,
                        "x": point.x,
                    },
                )
                created = True
            else:
                created = False
            if self.is_done(task_id):
                already_done += 1
            elif self.results.get(point) is not None:
                # Result stored but never marked (a worker died in the gap,
                # or the queue was pointed at pre-computed results): mark it
                # done now so no worker wastes a slot re-running it.
                self.mark_done(task_id, worker="dispatch", attempts=0)
                already_done += 1
            elif created:
                enqueued += 1
            else:
                already_queued += 1
        return EnqueueSummary(
            enqueued=enqueued, already_queued=already_queued, already_done=already_done
        )

    # -- task inspection -----------------------------------------------------------
    def task_ids(self) -> List[str]:
        """Every enqueued task id, sorted (stable claim-scan order)."""
        try:
            names = [path.stem for path in self.tasks_dir.glob("*.json")]
        except OSError:
            return []
        return sorted(names)

    def load_task(self, task_id: str) -> Optional[TaskRecord]:
        """The task's durable record, or ``None`` when unreadable/unknown."""
        data = self._read_json(self._task_path(task_id))
        if data is None or data.get("version") != TASK_FORMAT_VERSION:
            return None
        try:
            point = point_from_payload(data["point"])
        except (KeyError, TypeError):
            return None
        return TaskRecord(
            task_id=str(data.get("task_id", task_id)),
            point=point,
            max_attempts=int(data.get("max_attempts", DEFAULT_MAX_ATTEMPTS)),
            enqueued_at=float(data.get("enqueued_at", 0.0)),
        )

    def is_done(self, task_id: str) -> bool:
        return self._done_path(task_id).exists()

    def is_failed(self, task_id: str) -> bool:
        """True when the task is terminal without being done.

        That covers an exhausted retry budget, and task records that cannot
        be loaded (corrupt, deleted, or an incompatible format version) --
        such a task can never run, so treating it as pending would make
        workers and the distributed runner wait on it forever.
        """
        if self.is_done(task_id):
            return False
        record = self.load_task(task_id)
        if record is None:
            return True
        return self.attempts(task_id) >= record.max_attempts

    def attempts(self, task_id: str) -> int:
        """Failed attempts recorded against the task so far."""
        data = self._read_json(self._failed_path(task_id))
        if data is None:
            return 0
        try:
            return int(data.get("attempts", 0))
        except (TypeError, ValueError):
            return 0

    def last_error(self, task_id: str) -> Optional[str]:
        """Message of the most recent failed attempt, if any."""
        data = self._read_json(self._failed_path(task_id))
        if not data:
            return None
        errors = data.get("errors") or []
        if not isinstance(errors, list) or not errors:
            return None
        last = errors[-1]
        return str(last.get("error")) if isinstance(last, dict) else str(last)

    # -- leases --------------------------------------------------------------------
    def _lease_is_stale(self, lease_path: Path, now: Optional[float] = None) -> bool:
        now = time.time() if now is None else now
        lease = self._read_json(lease_path)
        if lease is None:
            # Unreadable lease (external corruption): fall back to file age.
            try:
                return now - lease_path.stat().st_mtime > self.lease_seconds
            except OSError:
                return False  # vanished: nothing to reclaim
        if lease.get("host") == socket.gethostname():
            pid = lease.get("pid")
            if isinstance(pid, int) and not pid_alive(pid):
                return True
        try:
            heartbeat = float(lease.get("heartbeat_at", lease.get("claimed_at", 0.0)))
        except (TypeError, ValueError):
            heartbeat = 0.0
        return now - heartbeat > self.lease_seconds

    def lease_state(self, task_id: str, now: Optional[float] = None) -> Optional[str]:
        """``"running"``, ``"stale"`` or ``None`` when no lease is held.

        A lease is stale when its heartbeat is older than ``lease_seconds``,
        or immediately when it names a dead process on this host -- ``status``
        therefore reports a crashed worker's task as ``stale`` (reclaimable),
        never as ``running``.
        """
        lease_path = self._lease_path(task_id)
        if not lease_path.exists():
            return None
        return "stale" if self._lease_is_stale(lease_path, now) else "running"

    def _lease_payload(
        self,
        task_id: str,
        worker: str,
        claimed_at: float,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> Dict[str, object]:
        return {
            "task_id": task_id,
            "worker": worker,
            "host": socket.gethostname() if host is None else host,
            "pid": os.getpid() if pid is None else pid,
            "claimed_at": claimed_at,
            "heartbeat_at": time.time(),
        }

    def try_claim(
        self,
        task_id: str,
        worker: str,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> bool:
        """Atomically take the task's lease; False when someone holds it.

        A stale lease (expired heartbeat, or dead local process) is
        tombstoned first; the rename arbitrates between concurrent
        reclaimers, then the hard-link creation arbitrates the new claim.
        ``host``/``pid`` default to the calling process; the conformance
        suite passes them to forge a claimant on another host or a dead one.
        """
        self._ensure_layout()
        lease_path = self._lease_path(task_id)
        if lease_path.exists():
            if not self._lease_is_stale(lease_path):
                return False
            tombstone = lease_path.with_name(
                f"{task_id}.reclaimed.{os.getpid()}.{uuid.uuid4().hex}"
            )
            try:
                os.rename(lease_path, tombstone)
            except OSError:
                return False  # another contender won the reclaim
            try:
                os.unlink(tombstone)
            except OSError:
                pass
        tmp = lease_path.with_name(f"{task_id}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        tmp.write_text(json.dumps(self._lease_payload(task_id, worker, time.time(), host, pid)))
        try:
            os.link(tmp, lease_path)
        except FileExistsError:
            return False
        except OSError:
            # Filesystem without hard links (rare): fall back to exclusive
            # creation of the final name.
            try:
                fd = os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
            with os.fdopen(fd, "w") as handle:
                handle.write(tmp.read_text())
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return True

    def heartbeat(self, task_id: str, worker: str) -> bool:
        """Refresh the lease's heartbeat; False when the lease is lost."""
        lease_path = self._lease_path(task_id)
        lease = self._read_json(lease_path)
        if lease is None or lease.get("worker") != worker:
            return False
        lease["heartbeat_at"] = time.time()
        write_json_atomic(lease_path, lease)
        return True

    def release(self, task_id: str, worker: Optional[str] = None) -> None:
        """Drop the task's lease (idempotent).

        With ``worker`` given, the lease is only dropped when that worker
        still holds it: a claimant whose expired lease was reclaimed must
        not drop the new holder's live lease.
        """
        lease_path = self._lease_path(task_id)
        if worker is not None:
            lease = self._read_json(lease_path)
            if lease is not None and lease.get("worker") != worker:
                return
        try:
            os.unlink(lease_path)
        except OSError:
            pass

    def claim_next(
        self, worker: str, finished: Optional[set] = None
    ) -> Optional[ClaimedTask]:
        """Claim the first runnable task, or ``None`` when nothing is claimable.

        ``finished`` is an optional caller-owned memo of task ids already
        known to be terminal (done, failed, unreadable); ids discovered to
        be terminal during this scan are added to it, so a worker's repeated
        scans of a large queue skip the finished tasks instead of re-reading
        every record each time.
        """
        for task_id in self.task_ids():
            if finished is not None and task_id in finished:
                continue
            if self.is_done(task_id):
                if finished is not None:
                    finished.add(task_id)
                continue
            record = self.load_task(task_id)
            if record is None:
                # Corrupt/foreign record: never runnable, terminal.
                if finished is not None:
                    finished.add(task_id)
                continue
            if self.attempts(task_id) >= record.max_attempts:
                if finished is not None:
                    finished.add(task_id)
                continue
            if not self.try_claim(task_id, worker):
                continue
            if self.is_done(task_id):
                # Completed between the scan and our claim of a stale lease.
                self.release(task_id, worker)
                if finished is not None:
                    finished.add(task_id)
                continue
            return ClaimedTask(record=record)
        return None

    # -- completion / failure ------------------------------------------------------
    def mark_done(self, task_id: str, worker: str, attempts: int) -> None:
        """Write the task's completion marker."""
        self._ensure_layout()
        write_json_atomic(
            self._done_path(task_id),
            {
                "task_id": task_id,
                "worker": worker,
                "attempts": int(attempts),
                "completed_at": time.time(),
            },
        )

    def complete(
        self,
        task_id: str,
        point: PointSpec,
        result: Optional[SimulationResult],
        worker: str,
    ) -> None:
        """Store the result (when given), mark the task done, drop the lease."""
        if result is not None:
            self.results.put(point, result)
        self.mark_done(task_id, worker, attempts=self.attempts(task_id))
        self.release(task_id, worker)

    def record_failure(self, task_id: str, worker: str, error: str) -> int:
        """Append one failed attempt (claim holder only) and drop the lease.

        Returns the accumulated attempt count.  Only the current lease
        holder mutates the failure record, so the read-modify-write cannot
        race: a worker whose expired lease was reclaimed while it ran --
        whether the new holder still runs or has already finished and
        released -- must not double-charge the budget (the holder of each
        execution window reports its own outcome) nor drop a live lease.
        """
        lease = self._read_json(self._lease_path(task_id))
        if lease is None or lease.get("worker") != worker:
            return self.attempts(task_id)
        path = self._failed_path(task_id)
        data = self._read_json(path) or {}
        errors = data.get("errors")
        if not isinstance(errors, list):
            errors = []
        errors.append({"worker": worker, "time": time.time(), "error": str(error)})
        attempts = int(data.get("attempts", 0) or 0) + 1
        self._ensure_layout()
        write_json_atomic(
            path, {"task_id": task_id, "attempts": attempts, "errors": errors}
        )
        self.release(task_id, worker)
        return attempts

    def load_result(self, point: PointSpec) -> Optional[SimulationResult]:
        """The stored result for ``point``, or ``None``."""
        return self.results.get(point)

    # -- queue-wide views ----------------------------------------------------------
    def status(self, task_ids: Optional[Iterable[str]] = None) -> QueueStatus:
        """Summarise the queue (or the given subset of task ids)."""
        status = QueueStatus()
        now = time.time()
        for task_id in sorted(task_ids) if task_ids is not None else self.task_ids():
            status.total += 1
            if self.is_done(task_id):
                status.done += 1
                continue
            record = self.load_task(task_id)
            attempts = self.attempts(task_id)
            if record is None:
                # Unreadable record: terminal (matches is_failed), otherwise
                # workers and the distributed runner would wait on it forever.
                status.failed += 1
                status.failures.append(
                    {
                        "task_id": task_id,
                        "attempts": attempts,
                        "last_error": "unreadable or incompatible task record",
                    }
                )
                continue
            if attempts >= record.max_attempts:
                status.failed += 1
                status.failures.append(
                    {
                        "task_id": task_id,
                        "attempts": attempts,
                        "last_error": self.last_error(task_id) or "<unrecorded>",
                    }
                )
                continue
            lease = self.lease_state(task_id, now)
            if lease == "running":
                status.running += 1
            elif lease == "stale":
                status.stale += 1
            else:
                status.pending += 1
        return status

    def wait(
        self,
        task_ids: Sequence[str],
        poll_interval: float = 0.5,
        timeout: Optional[float] = None,
        max_poll_interval: float = DEFAULT_MAX_POLL_INTERVAL,
    ) -> None:
        """Block until every given task is done or failed.

        Polls with capped exponential backoff: idle probes double the sleep
        from ``poll_interval`` up to ``max_poll_interval``, and any probe
        that observes progress (some task finished) snaps back to the floor
        -- so waiting on a long-running sweep is cheap while a draining one
        is still collected promptly.  Raises :class:`TimeoutError` (with a
        status snapshot in the message) when ``timeout`` seconds elapse
        first.
        """
        remaining = set(task_ids)
        deadline = None if timeout is None else time.monotonic() + timeout
        ceiling = max(float(max_poll_interval), float(poll_interval))
        interval = float(poll_interval)
        while remaining:
            finished = {
                task_id
                for task_id in remaining
                if self.is_done(task_id) or self.is_failed(task_id)
            }
            if finished:
                remaining -= finished
                interval = float(poll_interval)  # progress: probe quickly again
            if not remaining:
                return
            if deadline is not None and time.monotonic() > deadline:
                status = self.status(task_ids)
                raise TimeoutError(
                    f"queue {self.describe()} did not finish within {timeout:g}s "
                    f"({len(remaining)} task(s) unfinished)\n{status.render()}"
                )
            time.sleep(interval)
            interval = min(interval * 2.0, ceiling)
