"""Work-queue worker daemon.

A :class:`Worker` drains a :class:`~repro.runner.queue.FilesystemBackend`
(a local or shared-mount queue directory): it atomically claims one task
at a time, executes the point through the same ``execute_point``/``to_dict``
path as :class:`~repro.runner.runner.ParallelRunner` (so results are
bit-identical no matter which driver ran them), stores the result in the
queue's result store and marks the task done.

While a task runs, a daemon thread refreshes the lease heartbeat every
``lease_seconds / 4``; if the worker dies, its lease goes stale and another
worker reclaims the task (immediately when the dead worker lived on the
same host, after the lease timeout otherwise).  A task that raises consumes
one unit of its retry budget and is released for another attempt; once the
budget is exhausted the queue reports it as failed.

Interruption (SIGTERM via the CLI handler, or Ctrl-C) releases the current
lease without consuming a retry, so a killed worker's task is re-run -- not
lost, and not double-counted -- by whoever claims it next.  The heartbeat
thread rides out transient ``OSError`` hiccups of a flaky shared mount.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.runner.queue import ClaimedTask, FilesystemBackend
from repro.runner.runner import PointExecutionError, execute_point_checked
from repro.simulation.results import SimulationResult

__all__ = ["Worker", "WorkerStats"]


@dataclass
class WorkerStats:
    """What one :meth:`Worker.run` call did."""

    executed: int = 0  # points simulated by this worker
    satisfied: int = 0  # tasks completed straight from the result store
    failed: int = 0  # attempts that raised (retry budget permitting)

    @property
    def claimed(self) -> int:
        return self.executed + self.satisfied + self.failed


class _Heartbeat(threading.Thread):
    """Refreshes one task's lease until stopped."""

    def __init__(self, queue: FilesystemBackend, task_id: str, worker_id: str, interval: float):
        super().__init__(name=f"heartbeat-{task_id[:8]}", daemon=True)
        self._queue = queue
        self._task_id = task_id
        self._worker_id = worker_id
        self._interval = interval
        # Not named ``_stop``: that would shadow threading.Thread's internal
        # ``_stop()`` method and break ``join``.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                if not self._queue.heartbeat(self._task_id, self._worker_id):
                    return  # lease lost (reclaimed): completion stays safe
            except OSError:
                pass  # transient FS hiccup: try again next interval

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self._interval + 1.0)


class Worker:
    """Claims and executes queue tasks until the queue drains."""

    def __init__(
        self,
        queue: FilesystemBackend,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.5,
    ):
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self.queue = queue
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.poll_interval = poll_interval
        self.heartbeat_interval = max(0.1, queue.lease_seconds / 4.0)

    def run(self, max_tasks: Optional[int] = None) -> WorkerStats:
        """Drain the queue; returns after ``max_tasks`` claims at the latest.

        Without ``max_tasks`` the worker runs until every task is done or
        failed -- including tasks currently leased to other workers, which
        it waits on (and reclaims if their leases go stale).
        """
        if max_tasks is not None and max_tasks < 1:
            raise ValueError(f"max_tasks must be >= 1, got {max_tasks}")
        stats = WorkerStats()
        # Memo of terminal task ids, filled in by claim_next's scans: every
        # scan adds the done, failed and unreadable tasks it meets, so repeat
        # scans of a large queue skip them instead of re-reading every
        # record, and the drain check below is a directory listing against
        # the memo instead of a full status scan.
        finished: set = set()
        while max_tasks is None or stats.claimed < max_tasks:
            claimed = self.queue.claim_next(self.worker_id, finished)
            if claimed is None:
                # Drained when every task is done or failed.  Otherwise some
                # task is leased elsewhere: the next scan takes it over if
                # its lease goes stale, or memoises it once it finishes.
                if len(finished) >= len(self.queue.task_ids()):
                    break
                time.sleep(self.poll_interval)
                continue
            self._run_claimed(claimed, stats)
        return stats

    def _run_claimed(self, task: ClaimedTask, stats: WorkerStats) -> None:
        task_id = task.task_id
        cached = self.queue.load_result(task.point)
        if cached is not None:
            # Result already in the store (an interrupted worker got this
            # far, or a previous dispatch shared the point): just mark done.
            self.queue.complete(task_id, task.point, None, self.worker_id)
            stats.satisfied += 1
            return
        heartbeat = _Heartbeat(self.queue, task_id, self.worker_id, self.heartbeat_interval)
        heartbeat.start()
        try:
            data = execute_point_checked(task.point)
        except PointExecutionError as exc:
            heartbeat.stop()
            self.queue.record_failure(task_id, self.worker_id, str(exc))
            stats.failed += 1
            return
        except BaseException:
            # Interrupted (SIGTERM/SystemExit/KeyboardInterrupt): hand the
            # task back without consuming a retry.
            heartbeat.stop()
            self.queue.release(task_id, self.worker_id)
            raise
        heartbeat.stop()
        result = SimulationResult.from_dict(data)
        self.queue.complete(task_id, task.point, result, self.worker_id)
        stats.executed += 1
