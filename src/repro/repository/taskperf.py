"""Task-performance database: the prediction model's inputs.

Paper §3: "A task performance database provides performance
characteristics for each task in the system and is used to predict the
performance of a task on a given resource.  Each task implementation is
specified by several parameters such as computation size, communication
size, required memory size, etc."

Paper §4.1: the Site Manager "updates the task-performance database
with the execution time after an application execution is completed" —
implemented here as an exponentially weighted moving average over
normalised measurements, so predictions improve as the site runs more
applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.tasklib.base import ParallelModel
from repro.tasklib.registry import TaskRegistry

__all__ = ["TaskPerfRecord", "TaskPerformanceDB"]


@dataclass(frozen=True)
class TaskPerfRecord:
    """Per-task-type parameters (the paper's "several parameters")."""

    task_type: str
    #: measured execution time on the base processor at scale 1.0
    computation_size: float
    #: output volume per port at scale 1.0 (MB)
    communication_size_mb: float
    #: resident memory requirement at scale 1.0 (MB)
    required_memory_mb: int
    parallel: Optional[ParallelModel] = None


class TaskPerformanceDB:
    """Task parameters + per-(task, host) measured-time refinement."""

    #: EWMA weight for new measurements
    ALPHA = 0.3

    def __init__(self, site_name: str):
        self.site_name = site_name
        self._records: Dict[str, TaskPerfRecord] = {}
        #: (task_type, host) -> EWMA of measured/expected ratio
        self._host_ratio: Dict[Tuple[str, str], float] = {}
        self.measurements_recorded = 0
        #: bumped whenever a prediction input changes (registration or
        #: calibration refinement) — part of the prediction rows' key
        self.version = 0

    # -- population --------------------------------------------------------

    def register(self, record: TaskPerfRecord) -> TaskPerfRecord:
        if record.task_type in self._records:
            raise ValueError(f"task {record.task_type!r} already registered")
        if record.computation_size < 0:
            raise ValueError(f"task {record.task_type!r}: negative computation size")
        self._records[record.task_type] = record
        self.version += 1
        return record

    def load_from_registry(self, registry: TaskRegistry) -> int:
        """Seed the database from library signatures (site bring-up)."""
        count = 0
        for name in registry.names():
            if name in self._records:
                continue
            sig = registry.get(name)
            self.register(
                TaskPerfRecord(
                    task_type=sig.qualified_name,
                    computation_size=sig.base_comp_size,
                    communication_size_mb=sig.comm_size_mb,
                    required_memory_mb=sig.base_memory_mb,
                    parallel=sig.parallel,
                )
            )
            count += 1
        return count

    # -- queries ----------------------------------------------------------------

    def get(self, task_type: str) -> TaskPerfRecord:
        try:
            return self._records[task_type]
        except KeyError:
            raise KeyError(
                f"task {task_type!r} not in task-performance DB of "
                f"{self.site_name!r}"
            ) from None

    def base_cost(self, task_type: str, scale: float = 1.0) -> float:
        """Computation cost on the base processor — the level metric input."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return self.get(task_type).computation_size * scale

    def host_calibration(self, task_type: str, host: str) -> float:
        """Learned measured/expected ratio for this (task, host); 1.0 if unseen."""
        return self._host_ratio.get((task_type, host), 1.0)

    def task_types(self) -> List[str]:
        return sorted(self._records)

    # -- refinement (Site Manager, after application completion) -----------------

    def record_execution(
        self,
        task_type: str,
        host: str,
        expected_s: float,
        measured_s: float,
    ) -> float:
        """Fold one measured execution time into the (task, host) calibration.

        ``expected_s`` is what prediction said *including the current
        calibration*; ``measured_s`` what the runtime observed.  The
        EWMA therefore updates on the implied **raw** ratio
        ``(measured / expected) x current_calibration`` — updating on
        the calibrated ratio directly would drag a correct calibration
        back toward 1.0 on every accurate run.  Returns the updated
        calibration ratio.
        """
        if expected_s <= 0 or measured_s < 0:
            raise ValueError("expected must be positive, measured non-negative")
        self.get(task_type)  # validate task exists
        key = (task_type, host)
        old = self._host_ratio.get(key)
        current = 1.0 if old is None else old
        raw_ratio = (measured_s / expected_s) * current
        new = raw_ratio if old is None else (
            (1 - self.ALPHA) * old + self.ALPHA * raw_ratio
        )
        self._host_ratio[key] = new
        self.measurements_recorded += 1
        self.version += 1
        return new

    def __len__(self) -> int:
        return len(self._records)
