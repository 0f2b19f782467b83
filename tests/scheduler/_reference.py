"""Test oracles: the straight-line forms of host selection's three steps.

``src/`` has one implementation of each — the host index, the row
kernel, the commitment ledger.  These are the bodies they replaced, kept
verbatim as what the equivalence tests compare against, ``==`` on every
float:

* :func:`candidate_hosts` — linear scan of the repository, preference
  filters, then a name sort;
* :func:`bid_for_task` — one ``PredictionModel.predict`` call per
  (task, host) pair, times the health factor;
* :func:`rescan_extra_load` — per (task, host) pair, count every
  commitment on the host that is not ordered with the task.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.afg.task import TaskNode
from repro.repository.resources import HostRecord
from repro.repository.store import SiteRepository
from repro.scheduler.host_selection import (
    HostSelectionResult,
    _matches_machine_type,
)
from repro.scheduler.prediction import PredictionModel


def candidate_hosts(task: TaskNode, repo: SiteRepository) -> List[HostRecord]:
    records = repo.runnable_up_hosts(task.task_type)
    props = task.properties
    if props.preferred_machine is not None:
        records = [r for r in records if r.name == props.preferred_machine]
    if props.preferred_machine_type is not None:
        records = [
            r for r in records if _matches_machine_type(r, props.preferred_machine_type)
        ]
    return sorted(records, key=lambda r: r.name)


def bid_for_task(
    task: TaskNode,
    repo: SiteRepository,
    model: PredictionModel,
    extra_load_of,
    health_of=None,
) -> Optional[HostSelectionResult]:
    props = task.properties
    candidates = candidate_hosts(task, repo)
    n_nodes = props.n_nodes if props.is_parallel else 1
    if not repo.task_perf.has(task.task_type):
        return None
    factors: Dict[str, float] = {}
    if health_of is not None:
        kept = []
        for record in candidates:
            factor = health_of(record.name)
            if factor is not None:  # None = quarantined, excluded
                factors[record.name] = factor
                kept.append(record)
        candidates = kept
    if len(candidates) < n_nodes:
        return None
    memory_mb = props.memory_mb if props.memory_mb > 0 else None
    pairs = [
        (
            model.predict(
                task.task_type,
                props.workload_scale,
                n_nodes,
                record,
                repo.task_perf,
                memory_mb=memory_mb,
                extra_load=float(extra_load_of(record.name)),
            )
            * factors.get(record.name, 1.0),
            record.name,
        )
        for record in candidates
    ]
    if n_nodes == 1:
        best_time, best_name = min(pairs)
        chosen_hosts: Tuple[str, ...] = (best_name,)
        predicted_time = best_time
    else:
        chosen = sorted(pairs)[:n_nodes]
        chosen_hosts = tuple(name for _, name in chosen)
        predicted_time = chosen[-1][0]
    return HostSelectionResult(
        task_id=task.id,
        site=repo.site_name,
        hosts=chosen_hosts,
        predicted_time=predicted_time,
    )


def rescan_extra_load(
    committed: Dict[str, List[str]],
    related: Dict[str, Set[str]],
    task_id: str,
):
    """``extra_load_of(host_name)`` for ``task_id``, given ``committed``
    (host -> task ids placed there this round, in placement order) and
    ``related`` (task -> its ancestors and descendants)."""

    def extra_load_of(host_name: str) -> float:
        others = committed.get(host_name, ())
        return float(
            sum(1 for other in others if other not in related[task_id])
        )

    return extra_load_of
