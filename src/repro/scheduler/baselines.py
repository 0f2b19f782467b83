"""Baseline schedulers for the comparison experiments (E2, E3, E9).

The paper positions its heuristic inside the list-scheduling family
(refs [2, 3, 4]) and builds on application-level scheduling ideas
(refs [1, 5]).  A credible reproduction therefore needs the standard
comparison points:

* :class:`RandomScheduler` / :class:`RoundRobinScheduler` — the naive
  floors any load-aware scheduler must beat;
* :class:`LocalOnlyScheduler` — VDCE with ``k = 0`` (no remote sites);
* :class:`LoadBlindScheduler` — VDCE whose prediction ignores measured
  load (isolates the value of the monitoring subsystem, E3);
* :class:`MinMinScheduler` / :class:`MaxMinScheduler` — the classic
  batch-mode heuristics;
* :class:`HEFTScheduler` — insertion-based Heterogeneous Earliest
  Finish Time (the strongest list scheduler of this family; notably,
  HEFT is Topcuoglu's own later algorithm).

All of them emit the same :class:`~repro.scheduler.allocation.AllocationTable`
the VDCE scheduler emits, so the runtime executes any of them unchanged.

Parallel tasks: baseline candidate sets treat each site's best
``n_nodes``-host group (as chosen by the Fig. 3 logic) as one candidate
"processor", which keeps the machinery uniform across schedulers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.afg.graph import ApplicationFlowGraph
from repro.afg.levels import compute_levels
from repro.afg.validate import validate_afg
from repro.scheduler.allocation import AllocationTable, TaskAssignment
from repro.scheduler.federation import FederationView
from repro.scheduler.host_selection import candidate_hosts
from repro.scheduler.prediction import PredictionModel
from repro.scheduler.site_scheduler import SchedulingError, SiteScheduler

__all__ = [
    "HEFTScheduler",
    "LoadBlindScheduler",
    "LocalOnlyScheduler",
    "MaxMinScheduler",
    "MinMinScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
]


@dataclass(frozen=True)
class _Candidate:
    """One placement option for one task."""

    site: str
    hosts: Tuple[str, ...]
    exec_time: float

    @property
    def primary_host(self) -> str:
        return self.hosts[0]


def _task_candidates(
    afg: ApplicationFlowGraph,
    view: FederationView,
    model: PredictionModel,
    sites: Sequence[str],
) -> Dict[str, List[_Candidate]]:
    """Feasible (site, host-group, predicted-time) options per task."""
    out: Dict[str, List[_Candidate]] = {}
    for task in afg:
        props = task.properties
        n_nodes = props.n_nodes if props.is_parallel else 1
        memory_mb = props.memory_mb if props.memory_mb > 0 else None
        options: List[_Candidate] = []
        for site in sites:
            repo = view.repository(site)
            records = candidate_hosts(task, repo)
            if len(records) < n_nodes:
                continue
            if n_nodes == 1:
                for record in records:
                    options.append(
                        _Candidate(
                            site=site,
                            hosts=(record.name,),
                            exec_time=model.predict(
                                task.task_type,
                                props.workload_scale,
                                1,
                                record,
                                repo.task_perf,
                                memory_mb=memory_mb,
                            ),
                        )
                    )
            else:
                predictions = sorted(
                    (
                        model.predict(
                            task.task_type,
                            props.workload_scale,
                            n_nodes,
                            record,
                            repo.task_perf,
                            memory_mb=memory_mb,
                        ),
                        record.name,
                    )
                    for record in records
                )
                chosen = predictions[:n_nodes]
                options.append(
                    _Candidate(
                        site=site,
                        hosts=tuple(name for _, name in chosen),
                        exec_time=chosen[-1][0],
                    )
                )
        if not options:
            raise SchedulingError(
                f"no site can run task {task.id!r} ({task.task_type})"
            )
        out[task.id] = options
    return out


def _transfer_between(
    view: FederationView,
    src: TaskAssignment | _Candidate,
    src_site: str,
    dst: _Candidate,
    size_mb: float,
) -> float:
    """Edge transfer estimate between two placements (0 if same host)."""
    src_hosts = src.hosts if hasattr(src, "hosts") else ()
    if dst.hosts and src_hosts and src_hosts[0] == dst.hosts[0]:
        return 0.0
    return view.site_transfer_time(src_site, dst.site, size_mb)


def _table_from_choices(
    afg: ApplicationFlowGraph,
    choices: Dict[str, _Candidate],
    name: str,
) -> AllocationTable:
    table = AllocationTable(afg.name, scheduler=name)
    for task_id, cand in choices.items():
        table.assign(
            TaskAssignment(
                task_id=task_id,
                site=cand.site,
                hosts=cand.hosts,
                predicted_time=cand.exec_time,
            )
        )
    table.validate_against(afg)
    return table


# ---------------------------------------------------------------------------
# Naive baselines
# ---------------------------------------------------------------------------


@dataclass
class RandomScheduler:
    """Uniform random feasible placement (seeded)."""

    seed: int = 0
    model: PredictionModel = field(default_factory=PredictionModel)
    name: str = "random"

    def schedule(self, afg: ApplicationFlowGraph, view: FederationView) -> AllocationTable:
        import numpy as np

        validate_afg(afg)
        rng = np.random.default_rng(self.seed)
        sites = view.participating_sites()
        candidates = _task_candidates(afg, view, self.model, sites)
        choices = {
            task_id: options[int(rng.integers(len(options)))]
            for task_id, options in sorted(candidates.items())
        }
        return _table_from_choices(afg, choices, self.name)


@dataclass
class RoundRobinScheduler:
    """Cycle through placement options in stable order, one per task."""

    model: PredictionModel = field(default_factory=PredictionModel)
    name: str = "round-robin"

    def schedule(self, afg: ApplicationFlowGraph, view: FederationView) -> AllocationTable:
        validate_afg(afg)
        sites = view.participating_sites()
        candidates = _task_candidates(afg, view, self.model, sites)
        counter = itertools.count()
        choices: Dict[str, _Candidate] = {}
        for task_id in afg.topological_order():
            options = sorted(candidates[task_id], key=lambda c: (c.site, c.hosts))
            choices[task_id] = options[next(counter) % len(options)]
        return _table_from_choices(afg, choices, self.name)


def LocalOnlyScheduler(model: Optional[PredictionModel] = None) -> SiteScheduler:
    """VDCE restricted to the local site (``k = 0``)."""
    return SiteScheduler(k=0, model=model or PredictionModel(), name="local-only")


def LoadBlindScheduler(k: int = 2, noise: float = 0.0) -> SiteScheduler:
    """VDCE whose prediction pretends every host is idle (E3 ablation)."""
    model = PredictionModel(ignore_load=True, noise=noise)
    return SiteScheduler(k=k, model=model, name="load-blind")


# ---------------------------------------------------------------------------
# Batch-mode heuristics: min-min / max-min
# ---------------------------------------------------------------------------


@dataclass
class _BatchModeScheduler:
    """Shared machinery for min-min / max-min (completion-time driven)."""

    k: Optional[int] = None  # None = all sites
    model: PredictionModel = field(default_factory=PredictionModel)
    name: str = "batch"
    pick_max: bool = False

    def schedule(self, afg: ApplicationFlowGraph, view: FederationView) -> AllocationTable:
        validate_afg(afg)
        sites = view.participating_sites(self.k)
        candidates = _task_candidates(afg, view, self.model, sites)

        host_free: Dict[str, float] = {}
        finish: Dict[str, float] = {}
        choices: Dict[str, _Candidate] = {}
        # a task is ready when its count of unscheduled parents is zero
        structure = afg.structure()
        waiting = {t: len(near) for t, near in structure.parents.items()}
        ready_set = {t for t, n in waiting.items() if not n}

        def completion(task_id: str, cand: _Candidate) -> float:
            ready = 0.0
            for edge in afg.in_edges(task_id):
                src = choices[edge.src]
                xfer = _transfer_between(view, src, src.site, cand, edge.size_mb)
                ready = max(ready, finish[edge.src] + xfer)
            start = max([ready] + [host_free.get(h, 0.0) for h in cand.hosts])
            return start + cand.exec_time

        while ready_set:
            ready_tasks = sorted(ready_set)
            # best candidate per ready task
            best: Dict[str, Tuple[float, _Candidate]] = {}
            for t in ready_tasks:
                options = candidates[t]
                times = [(completion(t, c), c) for c in options]
                times.sort(key=lambda pair: (pair[0], pair[1].site, pair[1].hosts))
                best[t] = times[0]
            # min-min picks the task with smallest best completion;
            # max-min the task with largest best completion.
            selector = max if self.pick_max else min
            chosen_task = selector(ready_tasks, key=lambda t: (best[t][0], t))
            ctime, cand = best[chosen_task]
            choices[chosen_task] = cand
            finish[chosen_task] = ctime
            for h in cand.hosts:
                host_free[h] = ctime
            ready_set.discard(chosen_task)
            for child in structure.children[chosen_task]:
                waiting[child] -= 1
                if not waiting[child]:
                    ready_set.add(child)

        return _table_from_choices(afg, choices, self.name)


def MinMinScheduler(k: Optional[int] = None,
                    model: Optional[PredictionModel] = None) -> _BatchModeScheduler:
    return _BatchModeScheduler(k=k, model=model or PredictionModel(),
                               name="min-min", pick_max=False)


def MaxMinScheduler(k: Optional[int] = None,
                    model: Optional[PredictionModel] = None) -> _BatchModeScheduler:
    return _BatchModeScheduler(k=k, model=model or PredictionModel(),
                               name="max-min", pick_max=True)


# ---------------------------------------------------------------------------
# HEFT
# ---------------------------------------------------------------------------


@dataclass
class HEFTScheduler:
    """Insertion-based Heterogeneous Earliest Finish Time.

    Upward ranks use the mean execution time over each task's candidate
    placements and the federation's mean per-MB transfer cost; placement
    walks tasks in descending rank, choosing the candidate with the
    earliest finish time, with insertion into idle gaps.
    """

    k: Optional[int] = None
    model: PredictionModel = field(default_factory=PredictionModel)
    name: str = "heft"

    def schedule(self, afg: ApplicationFlowGraph, view: FederationView) -> AllocationTable:
        validate_afg(afg)
        sites = view.participating_sites(self.k)
        candidates = _task_candidates(afg, view, self.model, sites)

        mean_exec = {
            t: sum(c.exec_time for c in opts) / len(opts)
            for t, opts in candidates.items()
        }
        per_mb = self._mean_transfer_per_mb(view, sites)

        # upward rank
        rank: Dict[str, float] = {}
        for task_id in reversed(afg.topological_order()):
            best_child = 0.0
            for edge in afg.out_edges(task_id):
                best_child = max(
                    best_child, edge.size_mb * per_mb + rank[edge.dst]
                )
            rank[task_id] = mean_exec[task_id] + best_child

        order = sorted(rank, key=lambda t: (-rank[t], t))

        busy: Dict[str, List[Tuple[float, float]]] = {}
        finish: Dict[str, float] = {}
        choices: Dict[str, _Candidate] = {}

        for task_id in order:
            best_cand = None
            best_fin = float("inf")
            best_start = 0.0
            for cand in sorted(candidates[task_id], key=lambda c: (c.site, c.hosts)):
                ready = 0.0
                for edge in afg.in_edges(task_id):
                    src = choices[edge.src]
                    xfer = _transfer_between(view, src, src.site, cand, edge.size_mb)
                    ready = max(ready, finish[edge.src] + xfer)
                start = self._earliest_slot(busy, cand.hosts, ready, cand.exec_time)
                fin = start + cand.exec_time
                if fin < best_fin:
                    best_fin, best_cand, best_start = fin, cand, start
            assert best_cand is not None  # candidates are never empty
            choices[task_id] = best_cand
            finish[task_id] = best_fin
            for h in best_cand.hosts:
                intervals = busy.setdefault(h, [])
                intervals.append((best_start, best_fin))
                intervals.sort()

        return _table_from_choices(afg, choices, self.name)

    @staticmethod
    def _mean_transfer_per_mb(view: FederationView, sites: Sequence[str]) -> float:
        pairs = [(a, b) for a in sites for b in sites]
        if not pairs:
            return 0.0
        total = sum(view.site_transfer_time(a, b, 1.0) for a, b in pairs)
        return total / len(pairs)

    @staticmethod
    def _earliest_slot(
        busy: Dict[str, List[Tuple[float, float]]],
        hosts: Tuple[str, ...],
        ready: float,
        duration: float,
    ) -> float:
        """Earliest time >= ready when all ``hosts`` are free for ``duration``.

        Insertion-based: scans the merged busy intervals of the host
        group for the first sufficient gap.
        """
        intervals = sorted(
            itertools.chain.from_iterable(busy.get(h, []) for h in hosts)
        )
        t = ready
        for start, end in intervals:
            if start - t >= duration:
                return t
            t = max(t, end)
        return t
