"""Processing element (PE): one node of the Shared Nothing system.

Each PE is represented by a transaction manager, a query processing system,
CPU servers, a communication manager, a concurrency control component and a
buffer manager (paper §4, Fig. 3).  This class wires those components
together and offers the utilisation snapshots the control node polls.
"""

from __future__ import annotations

from typing import Optional

from repro.config.parameters import SystemConfig
from repro.engine.buffer import BufferManager
from repro.engine.deadlock import DeadlockDetector
from repro.engine.lock import LockManager
from repro.engine.transaction import TransactionManager
from repro.hardware.cpu import CpuServer
from repro.hardware.disk import DiskArray
from repro.sim import Environment

__all__ = ["ProcessingElement"]


class ProcessingElement:
    """One node: CPU(s), disks, buffer, locks and transaction management."""

    def __init__(
        self,
        env: Environment,
        pe_id: int,
        config: SystemConfig,
        deadlock_detector: Optional[DeadlockDetector] = None,
    ):
        self.env = env
        self.pe_id = pe_id
        self.config = config
        # Per-PE hardware: the effective_* accessors return the base config
        # objects verbatim for default-hardware PEs, so a uniform system is
        # bit-identical to the pre-heterogeneity simulator.
        self.node_class = config.node_class_name(pe_id)
        self.cpu_factor = config.cpu_factor(pe_id)
        self.cpu = CpuServer(env, config.effective_cpu(pe_id), config.costs, pe_id=pe_id)
        self.disks = DiskArray(env, config.effective_disk(pe_id), pe_id=pe_id)
        self.buffer = BufferManager(env, config.effective_buffer_pages(pe_id), pe_id=pe_id)
        self.locks = LockManager(env, pe_id=pe_id, deadlock_detector=deadlock_detector)
        self.transactions = TransactionManager(
            env, pe_id, config.multiprogramming_level
        )
        # Statistics counters updated by the execution layer.
        self.joins_processed = 0
        self.oltp_processed = 0
        self.temp_pages_written = 0
        self.temp_pages_read = 0
        self._disk_snapshot = self.disks.snapshot()
        self._recent_disk_utilization = 0.0

    # -- utilisation reporting -------------------------------------------------
    def close_report_window(self) -> None:
        """Close the current CPU/disk measurement window (control node tick)."""
        self.cpu.close_window()
        snapshot = self.disks.snapshot()
        self._recent_disk_utilization = self.disks.utilization_since(
            self._disk_snapshot, snapshot
        )
        self._disk_snapshot = snapshot

    @property
    def recent_cpu_utilization(self) -> float:
        return self.cpu.recent_utilization

    @property
    def recent_disk_utilization(self) -> float:
        return self._recent_disk_utilization

    @property
    def free_memory_pages(self) -> int:
        return self.buffer.free_pages

    @property
    def memory_utilization(self) -> float:
        return self.buffer.utilization()

    def describe(self) -> str:
        """Short status line (used by the CLI verbose mode)."""
        return (
            f"PE {self.pe_id}: cpu {self.cpu.utilization:0.2f}, "
            f"disk {self.disks.utilization():0.2f}, "
            f"mem {self.buffer.utilization():0.2f}, "
            f"active {self.transactions.active_count}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProcessingElement {self.pe_id}>"
