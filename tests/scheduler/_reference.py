"""Test oracles: the straight-line forms of the Fig. 2 / Fig. 3 pass.

``src/`` has one implementation of each step — the host index, the row
kernel, the commitment ledger, the AFG's structure snapshot, the flat
placement loop.  These are the bodies they replaced, kept verbatim as
what the equivalence tests compare against, ``==`` on every float:

* :func:`candidate_hosts` — linear scan of the repository, preference
  filters, then a name sort;
* :func:`bid_for_task` — one ``PredictionModel.predict`` call per
  (task, host) pair, times the health factor; the in-round load is a
  callable ``extra_load_of(host_name)``;
* :func:`sheet_bid` → :func:`predict_rows` — one site's bid on its
  sheet, the call chain ``task_bid`` fused into one pass over every
  bidder: preferences and health select rows, task terms once per
  (task, site), the row loop reading a host -> count mapping;
* :func:`extra_load` — that mapping, built from
  ``CommitmentLedger.load`` over every committed host of the federation
  per task, which ``task_bid`` computes inline per row it evaluates;
* :func:`rescan_extra_load` — per (task, host) pair, count every
  commitment on the host that is not ordered with the task;
* :func:`topological_order`, :func:`reachability`,
  :func:`compute_levels` — Kahn's algorithm over the edge lists, the
  ancestor sets inverted one ``add`` per pair, levels from the public
  accessors: what ``ApplicationFlowGraph.structure()`` now derives once;
* :func:`related_sets` — the snapshot's reachability as n Python sets
  (ancestors ∪ descendants), which ``StructureSnapshot.reach`` keeps as
  n bit masks;
* :class:`ClosureLedger` — the ledger that walked the whole related
  set per task and answered through a closure per host row;
* :class:`SetLedger` — the ledger that intersected ``related[task]``
  with the placed tasks per query and took their hosts off a copy of
  the totals, which ``CommitmentLedger`` answers with popcounts;
* :func:`select_hosts`, :func:`schedule_with_trace` — the Fig. 3 queue
  walk and the Fig. 2 ready loop (``all(p in scheduled ...)``) with
  ``min(bids, key=lambda ...)`` over a ``time_total`` closure, built on
  nothing but the functions above and :func:`edge_size_between`, a
  parent's summed edge volume to a child over every port pair.
"""

import heapq
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.afg.graph import ApplicationFlowGraph, StructureSnapshot
from repro.afg.task import TaskNode
from repro.afg.validate import validate_afg
from repro.repository.resources import HostRecord
from repro.repository.store import SiteRepository
from repro.scheduler.allocation import AllocationTable, TaskAssignment
from repro.scheduler.federation import FederationView
from repro.scheduler.host_selection import (
    ArchOsOf,
    BidSheet,
    CommitmentLedger,
    HostSelectionResult,
    _attrs_match,
    _matches_machine_type,
)
from repro.scheduler.prediction import PredictionModel
from repro.scheduler.site_scheduler import SchedulingError, SiteScheduler


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
    if task.task_type not in repo.task_perf.task_types():
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


def predict_rows(
    rows: List[tuple],
    span_work: float,
    required_mb: int,
    memory_penalty: float,
    extra_load: Mapping[str, float],
    n_nodes: int = 1,
    factors: Optional[Mapping[str, float]] = None,
) -> Tuple[float, Tuple[str, ...]]:
    """The row kernel: ``(predicted time, host group)`` minimising
    ``Predict`` over ``rows`` (at least ``n_nodes`` of them).

    Predict is separable (see :mod:`repro.scheduler.prediction`): the
    task half arrives as ``span_work`` / ``required_mb``, the host half
    is the repository's cached rows, and the loop body is
    ``PredictionModel.predict``'s float operations in ``predict``'s
    order, the health factor multiplied last
    (``tests/scheduler/test_predict_kernel.py`` holds the two to
    ``==``).
    """
    extra_on = extra_load.get
    # one host wanted (the hot case): keep the running minimum, not a
    # list of pairs.  Rows are name-ordered and names unique, so the
    # first strict minimum is min() over (time, name) tuples.
    single = n_nodes == 1
    best_time = best_name = None
    pairs = []
    for name, one_plus_load, speed, available_mb, calibration, noise in rows:
        # an int count promotes exactly when added to the float load
        extra = extra_on(name, 0)
        if extra < 0:
            raise ValueError("extra_load must be non-negative")
        t = span_work * (one_plus_load + extra) / speed
        if required_mb > available_mb:
            t *= memory_penalty
        t *= calibration
        t *= noise
        if factors:
            t *= factors[name]
        if not single:
            pairs.append((t, name))
        elif best_name is None or t < best_time:
            best_time, best_name = t, name
    if single:
        return best_time, (best_name,)
    chosen = sorted(pairs)[:n_nodes]
    # parallel slices run concurrently; the group finishes with its
    # slowest member (the largest selected prediction)
    return chosen[-1][0], tuple(name for _, name in chosen)


def sheet_bid(
    task: TaskNode,
    arch_os: ArchOsOf,
    sheet: BidSheet,
    model: PredictionModel,
    extra_load: Mapping[str, float],
    health_of=None,
) -> Optional[Tuple[float, Tuple[str, ...]]]:
    """Figure 3 step 4 for one task on one site's sheet: the kernel's
    ``(predicted time, host group)``, or ``None`` when too few hosts
    are left after the task's preferences and ``health_of``.

    ``arch_os`` answers for the hosts of the sheet (the site's
    resource DB, or the attributes its :class:`SiteBid` carried); a
    sheet's rows are the site's up hosts with the executable, so the
    preferences select among them exactly as :func:`candidate_hosts`
    selects among the records.
    """
    perf, rows = sheet
    props = task.properties
    # preferences select rows, never touch the shared list
    if props.preferred_machine is not None:
        rows = [row for row in rows if row[0] == props.preferred_machine]
    if props.preferred_machine_type is not None:
        rows = [
            row for row in rows
            if _attrs_match(arch_os(row[0]), props.preferred_machine_type)
        ]
    factors: Optional[Dict[str, float]] = None
    if health_of is not None:
        factors = {}
        for row in rows:
            factor = health_of(row[0])
            if factor is not None:  # None = quarantined, excluded
                factors[row[0]] = factor
        if len(factors) != len(rows):
            rows = [row for row in rows if row[0] in factors]
    # sequential tasks have n_nodes == 1 (TaskProperties checks it)
    n_nodes = props.n_nodes
    if len(rows) < n_nodes:
        return None
    span_work, required_mb = model.task_terms(
        perf, props.workload_scale, n_nodes,
        props.memory_mb if props.memory_mb > 0 else None,
    )
    return predict_rows(
        rows, span_work, required_mb, model.memory_penalty, extra_load,
        n_nodes, factors,
    )



def extra_load(ledger: CommitmentLedger, task_id: str) -> Mapping[str, int]:
    """host -> in-round commitments on it that can run concurrently
    with ``task_id``; a host not in the mapping has none.  The ledger's
    own totals when nothing placed so far is ordered with the task."""
    total, on, reach = ledger.load(task_id)
    if not reach:
        return total
    return {
        host: count - (reach & on[host]).bit_count()
        for host, count in total.items()
    }


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


# -- AFG structure: what the snapshot replaced --------------------------------


def parents(afg: ApplicationFlowGraph, task_id: str) -> List[str]:
    """``task_id``'s parents, de-duplicated, in first-edge order."""
    return list(dict.fromkeys(e.src for e in afg.in_edges(task_id)))


def children(afg: ApplicationFlowGraph, task_id: str) -> List[str]:
    """``task_id``'s children, de-duplicated, in first-edge order."""
    return list(dict.fromkeys(e.dst for e in afg.out_edges(task_id)))


def topological_order(afg: ApplicationFlowGraph) -> List[str]:
    indeg = {t.id: len(afg.in_edges(t.id)) for t in afg}
    ready = [t for t, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: List[str] = []
    pop, push = heapq.heappop, heapq.heappush
    while ready:
        t = pop(ready)
        order.append(t)
        for e in afg.out_edges(t):
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                push(ready, e.dst)
    if len(order) != len(afg):
        raise ValueError(f"AFG {afg.name!r} contains a cycle")
    return order


def reachability(afg: ApplicationFlowGraph) -> Dict[str, Set[str]]:
    """task -> set of tasks ordered with it (ancestors + descendants)."""
    order = topological_order(afg)
    ancestors: Dict[str, Set[str]] = {}
    for task_id in order:
        acc: Set[str] = set()
        for parent in parents(afg, task_id):
            acc.add(parent)
            acc |= ancestors[parent]
        ancestors[task_id] = acc
    related: Dict[str, Set[str]] = {t: set(ancestors[t]) for t in order}
    for task_id in order:
        for ancestor in ancestors[task_id]:
            related[ancestor].add(task_id)
    return related


def compute_levels(
    afg: ApplicationFlowGraph, cost: Callable[[str], float]
) -> Dict[str, float]:
    levels: Dict[str, float] = {}
    for task_id in reversed(topological_order(afg)):
        c = float(cost(task_id))
        if c < 0:
            raise ValueError(f"task {task_id!r}: negative computation cost {c}")
        child_best = max((levels[ch] for ch in children(afg, task_id)), default=0.0)
        levels[task_id] = c + child_best
    return levels


def edge_size_between(afg: ApplicationFlowGraph, src: str, dst: str) -> float:
    """Total data volume moved from ``src`` to ``dst`` (all port pairs)."""
    return sum(e.size_mb for e in afg.out_edges(src) if e.dst == dst)


def related_sets(structure: StructureSnapshot) -> Dict[str, Set[str]]:
    # ancestors along the order, descendants against it: one
    # C-level union per task instead of one ``add`` per pair
    parents, children = structure.parents, structure.children
    related = {}
    for t in structure.order:
        near = parents[t]
        related[t] = set(near).union(*[related[p] for p in near])
    below: Dict[str, Set[str]] = {}
    for t in reversed(structure.order):
        near = children[t]
        below[t] = set(near).union(*[below[c] for c in near])
        related[t] |= below[t]
    return related


def reach_sets(structure: StructureSnapshot) -> Dict[str, Set[str]]:
    """``structure.reach`` read back bit by bit: task -> the tasks whose
    position in ``order`` is set in its mask."""
    order = structure.order
    return {
        task_id: {order[i] for i in range(mask.bit_length()) if mask >> i & 1}
        for task_id, mask in structure.reach.items()
    }


# -- the set-form and closure-form ledgers -------------------------------------


class SetLedger:
    def __init__(self, related: Dict[str, Set[str]]):
        self._related = related
        self._total: Dict[str, int] = {}
        self._placed_on: Dict[str, Tuple[str, ...]] = {}

    def commit(self, task_id: str, hosts: Tuple[str, ...]) -> None:
        self._placed_on[task_id] = tuple(hosts)
        total = self._total
        for host in hosts:
            total[host] = total.get(host, 0) + 1

    def extra_load(self, task_id: str) -> Mapping[str, int]:
        placed_on = self._placed_on
        ordered = self._related[task_id] & placed_on.keys()
        if not ordered:
            return self._total
        extra = dict(self._total)
        for other in ordered:
            for host in placed_on[other]:
                extra[host] -= 1
        return extra



class ClosureLedger:
    def __init__(self, related: Dict[str, Set[str]]):
        self._related = related
        self._total: Dict[str, int] = {}
        self._placed_on: Dict[str, Tuple[str, ...]] = {}
        self._for_task: Optional[str] = None
        self._related_on: Dict[str, int] = {}

    def commit(self, task_id: str, hosts: Tuple[str, ...]) -> None:
        self._placed_on[task_id] = tuple(hosts)
        total = self._total
        for host in hosts:
            total[host] = total.get(host, 0) + 1
        self._for_task = None  # per-task overlap is stale now

    def extra_load_fn(self, task_id: str):
        if task_id != self._for_task:
            self._begin(task_id)
        total_get = self._total.get
        related_on = self._related_on
        if not related_on:
            def extra_load_of(host_name: str) -> float:
                return total_get(host_name, 0)

            return extra_load_of
        related_get = related_on.get

        def extra_load_of(host_name: str) -> float:
            return float(total_get(host_name, 0) - related_get(host_name, 0))

        return extra_load_of

    def _begin(self, task_id: str) -> None:
        related_on: Dict[str, int] = {}
        placed_on = self._placed_on
        for other in self._related[task_id]:
            hosts = placed_on.get(other)
            if hosts:
                for host in hosts:
                    related_on[host] = related_on.get(host, 0) + 1
        self._related_on = related_on
        self._for_task = task_id


# -- Fig. 3 queue walk and Fig. 2 ready loop -----------------------------------


def select_hosts(
    afg: ApplicationFlowGraph,
    repo: SiteRepository,
    model: PredictionModel,
    order: List[str],
    health_of=None,
) -> Dict[str, HostSelectionResult]:
    ledger = ClosureLedger(reachability(afg))
    results: Dict[str, HostSelectionResult] = {}
    for task_id in order:
        bid = bid_for_task(
            afg.task(task_id), repo, model, ledger.extra_load_fn(task_id),
            health_of,
        )
        if bid is None:
            continue
        ledger.commit(task_id, bid.hosts)
        results[task_id] = bid
    return results


def _no_extra_load(host_name: str) -> float:
    return 0.0


def schedule_with_trace(
    scheduler: SiteScheduler,
    afg: ApplicationFlowGraph,
    view: FederationView,
    health_of=None,
) -> Tuple[AllocationTable, List[str]]:
    validate_afg(afg)
    sites = view.participating_sites(scheduler.k)

    def cost(task_id: str) -> float:
        # the first participating site, local first, that knows the type
        node = afg.task(task_id)
        for site in sites:
            task_perf = view.repository(site).task_perf
            if node.task_type in task_perf.task_types():
                return task_perf.base_cost(
                    node.task_type, node.properties.workload_scale)
        raise SchedulingError(
            f"no participating site knows task type {node.task_type!r}")

    levels = compute_levels(afg, cost)
    ledger = (
        ClosureLedger(reachability(afg))
        if scheduler.account_commitments else None
    )
    table = AllocationTable(afg.name, scheduler=scheduler.name)
    site_by_task: Dict[str, str] = {}
    placement_order: List[str] = []

    scheduled: Set[str] = set()
    ready: List[str] = sorted(afg.entry_tasks())
    while ready:
        if scheduler.use_level_priority:
            task_id = max(ready, key=lambda t: (levels[t], t))
            ready.remove(task_id)
        else:
            task_id = ready.pop(0)
        assignment = _place_task(
            scheduler, afg, task_id, sites, view, site_by_task, health_of,
            ledger,
        )
        table.assign(assignment)
        if ledger is not None:
            ledger.commit(task_id, assignment.hosts)
        site_by_task[task_id] = assignment.site
        placement_order.append(task_id)
        scheduled.add(task_id)
        for child in children(afg, task_id):
            if (
                child not in scheduled
                and child not in ready
                and all(p in scheduled for p in parents(afg, child))
            ):
                ready.append(child)
    table.validate_against(afg)
    return table, placement_order


def _place_task(
    scheduler: SiteScheduler,
    afg: ApplicationFlowGraph,
    task_id: str,
    sites: List[str],
    view: FederationView,
    site_by_task: Dict[str, str],
    health_of,
    ledger: Optional[ClosureLedger],
) -> TaskAssignment:
    task = afg.task(task_id)
    extra_load_of = (
        ledger.extra_load_fn(task_id) if ledger is not None
        else _no_extra_load
    )
    bids: Dict[str, HostSelectionResult] = {}
    for site in sites:
        bid = bid_for_task(
            task, view.repository(site), scheduler.model, extra_load_of,
            health_of,
        )
        if bid is not None:
            bids[site] = bid
    if not bids:
        raise SchedulingError(
            f"no site can run task {task_id!r} ({task.task_type})"
        )
    if not afg.requires_input_transfer(task_id):
        best = min(bids, key=lambda s: (bids[s].predicted_time, s))
    else:
        site_transfer_time = view.site_transfer_time
        inputs = [
            (site_by_task[parent], edge_size_between(afg, parent, task_id))
            for parent in parents(afg, task_id)
        ]
        file_mb = task.properties.total_input_size_mb()
        if file_mb > 0:
            inputs.append((view.local_site, file_mb))

        def time_total(site: str) -> float:
            transfer = 0.0
            for source_site, size_mb in inputs:
                transfer += site_transfer_time(source_site, site, size_mb)
            return transfer + bids[site].predicted_time

        best = min(bids, key=lambda s: (time_total(s), s))
    bid = bids[best]
    return TaskAssignment(
        task_id=task_id,
        site=bid.site,
        hosts=bid.hosts,
        predicted_time=bid.predicted_time,
    )
