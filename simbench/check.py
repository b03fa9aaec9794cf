"""Output checks: a digest of each point's simulated statistics.

The digest covers what the simulation *computed* -- completions, the OLTP
count, response-time mean and p95, utilisations and every timeline window
(throughput, availability, effective availability, ...).  Kernel event
counts are left out on purpose: fewer events for the same outcome is a
legitimate optimisation.

At a seed with committed references (``references.json``) every digest must
match.  At any other seed the runs of a point within one process must agree
and :func:`invariant_errors` must find nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Mapping

REFERENCES_PATH = Path(__file__).resolve().parent / "references.json"

#: SimulationResult fields that enter the digest.
RESULT_FIELDS = (
    "strategy",
    "num_pe",
    "mode",
    "simulated_seconds",
    "joins_completed",
    "oltp_completed",
    "join_response_time",
    "join_response_time_p95",
    "oltp_response_time",
    "average_degree",
    "cpu_utilization",
    "disk_utilization",
    "memory_utilization",
)

#: Fractions that must lie in [0, 1], per result and per timeline window.
RESULT_FRACTIONS = ("cpu_utilization", "disk_utilization", "memory_utilization")
WINDOW_FRACTIONS = (
    "cpu_util",
    "cpu_util_max",
    "disk_util",
    "disk_util_max",
    "mem_util",
    "mem_util_max",
    "availability",
    "effective_availability",
)


def digest_payload(result: Mapping[str, object]) -> Dict[str, object]:
    """The digested subset of a result dictionary (``SimulationResult.to_dict``)."""
    payload: Dict[str, object] = {name: result[name] for name in RESULT_FIELDS}
    timeline = result.get("timeline")
    payload["timeline"] = list(timeline["windows"]) if timeline else None
    return payload


def digest(result: Mapping[str, object]) -> str:
    text = json.dumps(digest_payload(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _fraction_errors(where: str, values: Mapping[str, object], names) -> List[str]:
    errors = []
    for name in names:
        value = values[name]
        if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            errors.append(f"{where}{name}={value!r} outside [0, 1]")
    return errors


def invariant_errors(result: Mapping[str, object]) -> List[str]:
    """Violated invariants of one result; empty when the result is sane."""
    errors = []
    if result["joins_completed"] + result["oltp_completed"] <= 0:
        errors.append("no join or OLTP transaction completed")
    for name in ("join_response_time", "join_response_time_p95", "oltp_response_time"):
        value = result[name]
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
            errors.append(f"{name}={value!r} is not a finite non-negative time")
    errors += _fraction_errors("", result, RESULT_FRACTIONS)
    timeline = result.get("timeline")
    for window in timeline["windows"] if timeline else ():
        where = f"window [{window['start']:g},{window['end']:g}) "
        errors += _fraction_errors(where, window, WINDOW_FRACTIONS)
    return errors


def reference_digests(workload: str, seed: int):
    """Committed digests (point label -> digest) of the workload at ``seed``,
    or None if the seed is not pinned."""
    digests = json.loads(REFERENCES_PATH.read_text())["digests"]
    return digests.get(str(seed), {}).get(workload)
