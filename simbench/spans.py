"""Layer spans for the traced run, installed from outside the program.

:class:`Tracer` wraps the public entry points of each layer of
``src/repro`` (the module names are the layer names) in spans, by replacing
class attributes and module globals while a traced pass runs and restoring
them afterwards.  Nothing under ``src/`` is edited.

* A plain call is one span.
* Most entry points are generators driven by ``yield from``
  (``CpuServer.consume``, ``DiskArray.read_random``,
  ``execute_oltp_transaction``, ``execute_join_query``, ...).  For those,
  :func:`_drive` steps the wrapped generator itself: every
  resumption is a span, suspended time is not, and ``throw``/``close`` are
  forwarded, so crash kills (``Process.kill``) and OLTP preemption behave
  exactly as without the wrapper.
* Self time: the clock always runs for exactly one bucket -- the innermost
  open span -- so a bucket's self time is its spans' time minus the time
  covered by child spans.  ``sim`` is the bucket of ``Environment.run``; its
  self time is the kernel time not covered by any layer span.

Spans stay in memory, aggregated per (parent bucket, bucket) edge with a
count and inclusive seconds, and are written out by the caller when the run
ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Bucket of the code around the point (``execute_point`` and below until
#: the first layer span).
ROOT = "runner"


class Tracer:
    def __init__(self) -> None:
        #: Calibrated totals over the points folded in so far.
        self.self_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        #: Host seconds of the point in progress.
        self._self_s: Dict[str, float] = defaultdict(float)
        self._edges: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
        self.instances: Dict[str, list] = defaultdict(list)
        self._stack: List[Tuple[str, float]] = []
        self._current = ROOT
        self._last = _clock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- span accounting ------------------------------------------------------
    def enter(self, bucket: str) -> None:
        now = _clock()
        current = self._current
        self._self_s[current] += now - self._last
        self._stack.append((current, now))
        self._current = bucket
        self._last = now

    def leave(self) -> None:
        now = _clock()
        bucket = self._current
        self._self_s[bucket] += now - self._last
        parent, start = self._stack.pop()
        edge = self._edges[(parent, bucket)]
        edge[0] += 1
        edge[1] += now - start
        self._current = parent
        self._last = now

    def begin_point(self) -> None:
        """Start the clock of a point (time between points is not traced)."""
        self._last = _clock()

    def end_point(self) -> None:
        """Stop the clock of the point in progress."""
        self._self_s[self._current] += _clock() - self._last
        if self._stack:
            raise RuntimeError(f"unbalanced spans at end of point: {self._stack}")

    def fold(self, scale: float) -> None:
        """Add the finished point's seconds, times ``scale``, to the totals."""
        for bucket, seconds in self._self_s.items():
            self.self_s[bucket] += seconds * scale
        for key, (count, seconds) in self._edges.items():
            edge = self.edges[key]
            edge[0] += count
            edge[1] += seconds * scale
        self._self_s.clear()
        self._edges.clear()

    def inclusive_s(self, bucket: str) -> float:
        """Time inside the outermost spans of ``bucket``."""
        return sum(
            (seconds for (parent, child), (_, seconds) in self.edges.items()
             if child == bucket and parent != bucket),
            0.0,
        )

    def dump(self) -> Dict[str, object]:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "edges": [
                {"parent": parent, "bucket": bucket, "spans": count, "inclusive_s": seconds}
                for (parent, bucket), (count, seconds) in sorted(self.edges.items())
            ],
        }

    # -- wrappers ----------------------------------------------------------------
    def span(self, fn: Callable, bucket: str, count: Optional[str] = None,
             done: Optional[str] = None, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span of ``bucket``.

        ``count`` names a counter bumped per call; for generator functions
        ``done`` names one bumped when the generator returns normally; for
        plain functions ``after(result)`` may bump counters from the result.
        """
        enter, leave, counts = self.enter, self.leave, self.counts
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                if count is not None:
                    counts[count] += 1
                return _drive(fn(*args, **kwargs), bucket, enter, leave, counts, done)
        else:
            def traced(*args, **kwargs):
                if count is not None:
                    counts[count] += 1
                enter(bucket)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                if after is not None:
                    after(result)
                return result
        traced.__wrapped__ = fn
        return traced

    def counter(self, fn: Callable, count: str) -> Callable:
        """Wrap ``fn`` to count calls only (hot kernel paths)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def registrar(self, init: Callable, kind: str) -> Callable:
        """Wrap an ``__init__`` to keep the constructed instances of ``kind``."""
        instances = self.instances[kind]

        def registered(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        registered.__wrapped__ = init
        return registered

    # -- installation ---------------------------------------------------------------
    def patch_method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        self._restore.append((cls, name, original))
        setattr(cls, name, make(original))

    def patch_function(self, module, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere it was imported by name."""
        original = getattr(module, name)
        wrapped = make(original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not getattr(loaded, "__name__", "").startswith("repro") or namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((loaded, key, original))
                    setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


def _drive(generator, bucket: str, enter, leave, counts, done: Optional[str]):
    """Step ``generator`` so that each resumption is one span of ``bucket``."""
    send, throw = generator.send, generator.throw
    value = None
    error: Optional[BaseException] = None
    while True:
        enter(bucket)
        try:
            target = send(value) if error is None else throw(error)
        except StopIteration as stop:
            leave()
            if done is not None:
                counts[done] += 1
            return stop.value
        except BaseException:
            leave()
            raise
        leave()
        error = None
        value = None
        try:
            value = yield target
        except GeneratorExit:
            enter(bucket)
            try:
                generator.close()
            finally:
                leave()
            raise
        except BaseException as exc:
            error = exc
