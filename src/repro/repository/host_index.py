"""Per-site host tables for host selection: Figure 3 steps 1-2 as one read.

Host selection evaluates ``Predict(task, R)`` for every host of the
site, and the model is separable (:mod:`repro.scheduler.prediction`):
everything a host contributes — reported load, speed, available memory,
the (task type, host) calibration and noise factors — is independent of
the individual task, and piecewise-constant between repository writes.
A scheduling round therefore asks once per (site, task type) for
:meth:`HostIndex.rows`: one :meth:`~repro.scheduler.prediction.
PredictionModel.host_terms` row per up ACTIVE host with the executable
installed, in name order, and the row kernel evaluates a bid from the
rows without touching a :class:`~repro.repository.resources.HostRecord`.

The rows are the only thing kept, in one dict valid for exactly one
``(version_key, model)``.  Host rows are frozen and replaced on write,
so any workload report, up/down or membership transition bumps one of
the first three counters of :meth:`HostIndex.version_key`; a task
registration or a post-execution calibration refinement bumps the
fourth.  Nothing is ever patched in place: a changed key, or another
model value (a frozen dataclass, compared by equality, so noise /
ablation variants never collide), drops the dict.  Per-bid filters
(preferred machine, quarantine, exclusion) *select* from the rows and
never mutate them; health penalties multiply after prediction, so
health-score updates need no re-keying.

The host list itself is not cached: measured on the committed bench
workloads it was rebuilt on every call but 29 of 795 on one of them
(DESIGN §13.10), so it is computed from the live records.  Filtering
commutes with sorting, so the answer is exactly ``SiteRepository.
runnable_up_hosts`` in name order (``tests/scheduler/
test_host_index.py`` holds it to the scan + sort kept in
``tests/scheduler/_reference.py``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.repository.constraints import TaskConstraintsDB
from repro.repository.resources import (
    HostRecord,
    MembershipState,
    ResourcePerformanceDB,
)
from repro.repository.taskperf import TaskPerformanceDB

if TYPE_CHECKING:  # pragma: no cover - avoid repository -> scheduler cycle
    from repro.scheduler.prediction import PredictionModel

__all__ = ["HostIndex"]

_by_name = attrgetter("name")


class HostIndex:
    """Name-ordered runnable hosts and their prediction rows."""

    def __init__(
        self,
        resources: ResourcePerformanceDB,
        constraints: TaskConstraintsDB,
        task_perf: TaskPerformanceDB,
    ):
        self._resources = resources
        self._constraints = constraints
        self._task_perf = task_perf
        #: ``(version_key, model)`` the rows below were built under
        self._key: Optional[Tuple[Tuple[int, int, int, int], "PredictionModel"]] = None
        #: task_type -> rows; the one cache of the repository
        self._rows: Dict[str, List[tuple]] = {}
        #: row tables built — bounded by distinct (key, model, task type)
        self.builds = 0

    def version_key(self) -> Tuple[int, int, int, int]:
        """The version 4-tuple under which no prediction row has changed."""
        resources = self._resources
        return (
            resources.registration_version,
            self._constraints.version,
            resources.state_version,
            self._task_perf.version,
        )

    def runnable_up_hosts(self, task_type: str) -> List[HostRecord]:
        """Up ACTIVE hosts with ``task_type`` installed, name-ordered.

        Same set and order as ``sorted(SiteRepository.runnable_up_hosts
        (task_type), key=name)``, read from the live records: a host
        marked down (or draining) disappears from the very next query.
        """
        is_runnable = self._constraints.is_runnable
        active = MembershipState.ACTIVE
        return sorted(
            (
                record
                for record in self._resources.up_hosts()
                if record.state == active and is_runnable(task_type, record.name)
            ),
            key=_by_name,
        )

    def rows(self, task_type: str, model: "PredictionModel") -> List[tuple]:
        """One ``model.host_terms`` row per runnable up host, name-ordered.

        Aligned with :meth:`runnable_up_hosts` at the same key.  The
        returned list is the cache itself: read-only.
        """
        key = (self.version_key(), model)
        if key != self._key:
            self._rows = {}
            self._key = key
        rows = self._rows.get(task_type)
        if rows is None:
            host_terms = model.host_terms
            task_perf = self._task_perf
            rows = self._rows[task_type] = [
                host_terms(task_type, record, task_perf)
                for record in self.runnable_up_hosts(task_type)
            ]
            self.builds += 1
        return rows
