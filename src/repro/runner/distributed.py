"""Distributed sweep driver: enqueue, wait, fold.

:class:`DistributedRunner` is a drop-in replacement for
:class:`~repro.runner.runner.ParallelRunner` whose ``run_points`` ships the
work through a :class:`~repro.runner.queue.FilesystemBackend` instead of a
local process pool: it enqueues every not-yet-finished point as a durable
task, waits for independent worker processes (``repro-lb worker``, on this
or any host sharing the queue directory) to drain the queue, and folds the
stored results back **in expansion order** -- so tables, aggregates and
exports are byte-identical to a local run of the same spec at any worker
count.

The runner is resumable by construction: enqueueing skips tasks that are
already done, and results live in the queue's result store keyed by the
host-independent cache key, so re-running an interrupted sweep (or
re-dispatching the same scenario) only waits for the points that are
still missing.  The wait loop polls with capped exponential backoff (see
:meth:`FilesystemBackend.wait`), so an idle runner does not hammer a
shared mount while workers grind through long points.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.runner.queue import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    EnqueueSummary,
    FilesystemBackend,
)
from repro.runner.runner import ParallelRunner, PointExecutionError
from repro.runner.spec import PointSpec
from repro.simulation.results import SimulationResult

__all__ = ["DistributedRunner"]


class DistributedRunner(ParallelRunner):
    """Runs scenario points through a shared work queue.

    Inherits ``run``/``run_aggregated`` (spec expansion, result folding,
    aggregation) from :class:`ParallelRunner`; only point execution is
    replaced.  The first argument is a queue directory or an existing
    :class:`FilesystemBackend` (whose own ``lease_seconds`` then applies).
    ``timeout=None`` waits indefinitely -- pass a bound when no worker may
    be running (e.g. in CI) so a dead queue fails loudly instead of hanging.
    """

    def __init__(
        self,
        queue_dir: Union[str, Path, FilesystemBackend],
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_interval: float = 0.5,
        timeout: Optional[float] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ):
        # The queue's result store doubles as this runner's cache, so
        # `run` inherits hit/miss accounting and any pre-seeded results.
        queue = (
            queue_dir
            if isinstance(queue_dir, FilesystemBackend)
            else FilesystemBackend(queue_dir, lease_seconds=lease_seconds)
        )
        super().__init__(workers=1, cache=queue.results)
        self.queue = queue
        self.max_attempts = max_attempts
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.last_enqueue: Optional[EnqueueSummary] = None

    def dispatch(self, points: Sequence[PointSpec]) -> EnqueueSummary:
        """Enqueue the points' unfinished tasks without waiting for them."""
        summary = self.queue.enqueue(points, max_attempts=self.max_attempts)
        self.last_enqueue = summary
        return summary

    def run_points(self, points: Sequence[PointSpec]) -> List[SimulationResult]:
        """Enqueue, wait for workers, and collect results in input order."""
        self.dispatch(points)
        task_ids = [self.queue.task_id(point) for point in points]
        self.queue.wait(
            set(task_ids), poll_interval=self.poll_interval, timeout=self.timeout
        )
        for point, task_id in zip(points, task_ids):
            if not self.queue.is_done(task_id):
                error = self.queue.last_error(task_id) or "failed on a worker"
                raise PointExecutionError(
                    point,
                    RuntimeError(
                        f"task {task_id} exhausted its retry budget "
                        f"({self.queue.attempts(task_id)} attempt(s)): {error}"
                    ),
                )
        results: List[SimulationResult] = []
        for point, task_id in zip(points, task_ids):
            result = self.queue.load_result(point)
            if result is None:
                raise PointExecutionError(
                    point,
                    RuntimeError(
                        f"task {task_id} is marked done but its result is "
                        f"missing from {self.queue.describe()}"
                    ),
                )
            results.append(result)
        return results
