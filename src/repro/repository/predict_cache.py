"""Prediction rows: the host half of ``Predict(task, R)``, cached.

Host selection evaluates the prediction model for every (task, host)
pair per scheduling round, and the federation runs that round at every
site.  The model is separable (:mod:`repro.scheduler.prediction`):
everything a host contributes — reported load, speed, available memory,
the (task type, host) calibration and noise factors — is independent of
the individual task, and piecewise-constant between repository writes.

:class:`PredictCache` therefore keeps, per model value and task type,
one :meth:`~repro.scheduler.prediction.PredictionModel.host_terms` row
per up ACTIVE host with the executable installed, in the host index's
name order, and host selection's row kernel evaluates a bid from the
rows without touching a :class:`~repro.repository.resources.HostRecord`.

Key discipline is the host index's, plus one counter: rows are valid
for exactly one ``(resources.registration_version, constraints.version,
resources.state_version, task_perf.version)``.  Host rows are frozen
and replaced on write, so any workload report, up/down or membership
transition bumps one of the first three; a task registration or a
post-execution calibration refinement bumps the fourth.  Nothing is
ever patched in place: a changed key drops every table.  The model
object participates in the table key (it is a frozen, hashable
dataclass), so noise/ablation variants never collide.  Per-bid filters
(preferred machine, quarantine, exclusion) *select* from the rows and
never mutate them; health penalties multiply after prediction, so
health-score updates need no re-keying.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.repository.host_index import HostIndex
from repro.repository.taskperf import TaskPerformanceDB

if TYPE_CHECKING:  # pragma: no cover - avoid repository -> scheduler cycle
    from repro.scheduler.prediction import PredictionModel

__all__ = ["PredictCache"]


class PredictCache:
    """``host_terms`` rows per (model, task type), rebuilt only on re-key."""

    def __init__(self, host_index: HostIndex, task_perf: TaskPerformanceDB):
        self._host_index = host_index
        self._task_perf = task_perf
        self._key: Tuple[int, ...] = ()
        #: model -> task_type -> rows (exact model equality); the outer
        #: lookup is short-circuited by an ``is`` check on the last model
        #: seen — schedulers pass one model object for a whole round
        self._by_model: Dict["PredictionModel", Dict[str, List[tuple]]] = {}
        self._model: Optional["PredictionModel"] = None
        self._tables: Dict[str, List[tuple]] = {}
        #: row tables built — bounded by distinct (key, model, task type)
        self.builds = 0

    def key(self) -> Tuple[int, ...]:
        """The version key the current rows would have to match."""
        return self._host_index.version_key() + (self._task_perf.version,)

    def rows(self, task_type: str, model: "PredictionModel") -> List[tuple]:
        """One ``model.host_terms`` row per runnable up host, name-ordered.

        Aligned with :meth:`HostIndex.runnable_up_hosts` at the same
        key.  The returned list is the cache itself: read-only.
        """
        key = self.key()
        if key != self._key:
            self._by_model.clear()
            self._model = None
            self._key = key
        if model is not self._model:
            self._tables = self._by_model.setdefault(model, {})
            self._model = model
        rows = self._tables.get(task_type)
        if rows is None:
            host_terms = model.host_terms
            task_perf = self._task_perf
            rows = self._tables[task_type] = [
                host_terms(task_type, record, task_perf)
                for record in self._host_index.runnable_up_hosts(task_type)
            ]
            self.builds += 1
        return rows
