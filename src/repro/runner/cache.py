"""On-disk result cache for simulation points.

Each point is stored as one JSON file named by the SHA-256 of its
execution-relevant fields (configuration, strategy, workload axes, seed and
run limits -- see :meth:`repro.runner.spec.PointSpec.cache_payload`).  The
presentation fields (figure name, series label, x value) are deliberately
excluded, so the same simulation shared by two figures or an ad-hoc sweep is
computed once.

The cache directory defaults to ``$REPRO_CACHE_DIR``, falling back to
``$XDG_CACHE_HOME/repro-lb`` and then ``~/.cache/repro-lb``.  Files are
written atomically (temp file + rename) so concurrent runs never observe a
half-written entry; unreadable or stale-format entries are treated as
misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Optional, Union

from repro.runner.spec import PointSpec
from repro.simulation.results import SimulationResult

__all__ = ["ResultCache", "default_cache_dir", "point_key", "write_json_atomic"]

#: Bump when the result schema or point semantics change: old entries miss.
#: v2: ``replicate`` joined the point cache payload.
#: v3: arrival process axes + timeline window joined the payload, results
#: may carry a ``timeline`` time series, and derived replicate seeds now
#: cover the arrival coordinate.
#: v4: heterogeneous hardware -- ``node_classes``/``topology`` joined the
#: payload (canonicalised to ``None`` on uniform points), and timeline
#: windows may carry per-node-class utilisation tuples.
#: v5: fault injection -- the ``failures`` fault-plan axis joined the
#: payload (canonicalised to ``None`` on fault-free points), and timeline
#: windows carry per-window ``availability``/``anomaly`` fields.
#: v6: replication & failover -- the ``replication`` axis joined the payload
#: (canonicalised to ``None`` on single-copy points), and timeline windows
#: carry a per-window ``effective_availability`` field.
#: v7: a racked topology with unit wire factors keeps its entry (it used
#: to canonicalise to ``None``, dropping its racks).
CACHE_FORMAT_VERSION = 7


def write_json_atomic(path: Path, payload: dict) -> None:
    """Write JSON via a unique temp file + atomic rename.

    The temp name embeds pid *and* a uuid: the pid alone collides for
    concurrent threads of one process (and for pid-recycling across hosts
    on a shared mount).  The final rename is atomic, so concurrent writers
    of one path can never interleave partial content; readers either see
    the old complete file or the new complete file.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def point_key(point: PointSpec) -> str:
    """The host-independent cache/task key of a simulation point.

    Every result store and the work queue address a point by this key, so a
    task id computed on the dispatching host names the same work on every
    worker host and the same result file in a shared cache.
    """
    payload = {"version": CACHE_FORMAT_VERSION, "point": point.cache_payload()}
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """Resolve the cache root from the environment."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-lb"


class ResultCache:
    """Maps :class:`PointSpec` keys to :class:`SimulationResult` JSON files."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def key(self, point: PointSpec) -> str:
        return point_key(point)

    def path(self, point: PointSpec) -> Path:
        return self.root / f"{self.key(point)}.json"

    def get(self, point: PointSpec) -> Optional[SimulationResult]:
        path = self.path(point)
        try:
            data = json.loads(path.read_text())
            result = SimulationResult.from_dict(data["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, point: PointSpec, result: SimulationResult) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(point)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "point": point.cache_payload(),
            "figure": point.figure,
            "series": point.series,
            "x": point.x,
            "result": result.to_dict(),
        }
        write_json_atomic(path, payload)
        return path

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.json"))
        except OSError:
            return 0
