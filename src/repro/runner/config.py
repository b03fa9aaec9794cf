"""`RunnerConfig`: the single construction path for every runner kind.

The runner options -- ``--workers/--no-cache/--cache-dir/--distributed/
--queue-dir/--queue-timeout/--max-retries`` -- answer one question: which
runner do these flags mean?  This dataclass is that decision tree, once:
build a config (directly, or from parsed CLI args via :meth:`from_args`),
then :meth:`make_runner` yields the serial / process-pool / distributed
runner it describes.  CLI subcommands and
:func:`repro.experiments.base.run_scenario` both take a config.

Precedence: a ``queue_dir`` selects a
:class:`~repro.runner.distributed.DistributedRunner` whose queue owns the
result store (the local cache settings are meaningless there --
:meth:`from_args` warns when they are set); otherwise a local
:class:`~repro.runner.runner.ParallelRunner` over ``workers`` processes
with the configured cache.  Either way results fold in expansion order,
so the choice never changes tables, aggregates or exports.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    import argparse
    import os

    from repro.runner.runner import ParallelRunner

__all__ = ["RunnerConfig"]


@dataclass(frozen=True)
class RunnerConfig:
    """Everything that selects and parameterises an execution driver."""

    #: Local process-pool width (0 = one per CPU core); ignored for
    #: distributed runs, whose parallelism is however many workers drain
    #: the queue.
    workers: Optional[int] = 1
    #: Disable the on-disk result cache for local runs.
    no_cache: bool = False
    #: Cache directory override (``None`` = ``$REPRO_CACHE_DIR`` default).
    cache_dir: Optional[Union[str, "os.PathLike"]] = None
    #: Work-queue directory (selects a distributed runner).
    queue_dir: Optional[Union[str, "os.PathLike"]] = None
    #: Give up waiting for workers after this long (``None`` = forever).
    queue_timeout: Optional[float] = None
    #: Attempts per newly enqueued task (``None`` = queue default of 3).
    max_retries: Optional[int] = None

    @property
    def distributed(self) -> bool:
        return self.queue_dir is not None

    @classmethod
    def from_args(cls, args: "argparse.Namespace") -> "RunnerConfig":
        """Build from parsed CLI flags (the ``_add_runner_arguments`` set).

        Validates the flag combinations the old decision tree enforced:
        ``--distributed`` without ``--queue-dir`` is an error, and cache
        flags are warned about (and ignored) on distributed runs, whose
        results live in the queue's own store.
        """
        queue_dir = getattr(args, "queue_dir", None)
        if getattr(args, "distributed", False) and queue_dir is None:
            raise SystemExit("--distributed requires --queue-dir DIR")
        if queue_dir is not None and (
            getattr(args, "no_cache", False) or getattr(args, "cache_dir", None)
        ):
            print(
                "note: distributed runs keep results in the queue's own store; "
                "--no-cache/--cache-dir are ignored",
                file=sys.stderr,
            )
        return cls(
            workers=getattr(args, "workers", 1),
            no_cache=getattr(args, "no_cache", False),
            cache_dir=getattr(args, "cache_dir", None),
            queue_dir=queue_dir,
            queue_timeout=getattr(args, "queue_timeout", None),
            max_retries=getattr(args, "max_retries", None),
        )

    def make_runner(self) -> "ParallelRunner":
        """The execution driver this config describes."""
        if self.distributed:
            from repro.runner.distributed import DistributedRunner

            kwargs = {"timeout": self.queue_timeout}
            if self.max_retries is not None:
                kwargs["max_attempts"] = self.max_retries
            return DistributedRunner(self.queue_dir, **kwargs)
        from repro.runner.cache import ResultCache
        from repro.runner.runner import ParallelRunner

        cache = None if self.no_cache else ResultCache(self.cache_dir)
        return ParallelRunner(workers=self.workers, cache=cache)
