"""The Host Selection Algorithm — paper Figure 3, step for step.

    1. Retrieve task-specific parameters of AFG tasks from the
       task-performance database.
    2. Retrieve resource-specific parameters of a set of resources,
       Rset = {R1, R2, ..., Rm}, from the resource-performance database.
    3. Set task-queue = {task_i | task_i in AFG}.
    4. For each task_i in task-queue:
         - Evaluate the performance prediction time of task_i,
           Predict(task_i, Rj), for all Rj in Rset.
         - Assign task_i to Rj, which minimizes the performance
           prediction time Predict(task_i, Rj).

Each site runs this independently on the multicast AFG and reports
"the mapping information of each task, i.e., machine name and predicted
execution time, to the local site" — that report is the
:class:`HostSelectionResult` returned here.

The paper's parallel-task extension ("the host selection algorithm is
updated to select the number of machines required within the site") is
implemented by choosing the ``n_nodes`` hosts with the smallest
predicted slice times; the bid's time is the slowest chosen slice.

**One documented deviation (schedule-aware load accounting).**  Read
literally, step 4 predicts every task against the *same* repository
load values, so all comparable tasks collapse onto the single
fastest host — for a bag of independent tasks this is catastrophically
worse than random placement, which cannot be the algorithm behind a
scheduler whose stated objective is "to minimize the schedule length".
The refs the paper builds on ([2, 4], and the federated model of [5])
all account for the processor's committed work.  We therefore walk the
task queue in level-priority order and, when predicting ``task_i`` on
host ``R``, add one run-queue entry for every task *already assigned to
``R`` in this round that can execute concurrently with ``task_i``*
(i.e. is neither its ancestor nor descendant in the AFG).  Chains keep
preferring the fastest host (their stages never overlap); independent
bags spread.  DESIGN.md §5 records this as the reproduction's only
algorithmic interpolation.

Candidate filtering honours, in order: host up-status, the
task-constraints database (executable present), the user's preferred
machine, and the preferred machine type (matched against the host's
``arch``/``os`` attributes).  A task with no feasible candidate at this
site (including tasks absent from the site's task-performance DB) is
simply absent from the result — the site declines to bid.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.afg.graph import ApplicationFlowGraph, StructureSnapshot
from repro.afg.task import TaskNode
from repro.metrics.registry import MetricsRegistry, NULL_METRICS
from repro.repository.resources import HostRecord
from repro.repository.store import SiteRepository
from repro.repository.taskperf import TaskPerfRecord
from repro.scheduler.prediction import PredictionModel
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = [
    "CommitmentLedger",
    "HostSelectionResult",
    "SiteBid",
    "bid_for_task",
    "bid_sheet",
    "candidate_hosts",
    "select_hosts",
    "site_bid",
    "task_bid",
]


class HostSelectionResult(NamedTuple):
    """One site's bid for one task: machine name(s) + predicted time.

    A tuple type: seven of the eight bids per task lose, so the record
    costs one allocation, not a frozen dataclass's four guarded stores.
    """

    task_id: str
    site: str
    hosts: Tuple[str, ...]
    predicted_time: float

    @property
    def primary_host(self) -> str:
        return self.hosts[0]


#: host name -> (arch, os): all a ``preferred_machine_type`` filter reads
#: (``ResourcePerformanceDB.arch_os`` of a site, or what its bid carried)
ArchOsOf = Callable[[str], Tuple[str, str]]


def _attrs_match(attrs: Tuple[str, str], machine_type: str) -> bool:
    """Case-insensitive match against a host's (arch, OS) attributes.

    Figure 1 writes types like ``<SUN solaris>``; we accept any
    whitespace-separated tokens all matching the host's arch or OS.
    """
    tokens = machine_type.lower().split()
    # vendor aliases seen in the paper's examples ("SUN solaris")
    aliases = {"sun": "sparc"}
    normalized = {aliases.get(t, t) for t in tokens}
    return normalized <= {attrs[0].lower(), attrs[1].lower()}


def _matches_machine_type(record: HostRecord, machine_type: str) -> bool:
    return _attrs_match((record.spec.arch, record.spec.os), machine_type)


def candidate_hosts(task: TaskNode, repo: SiteRepository) -> List[HostRecord]:
    """Feasible hosts for ``task`` at this site, in stable name order.

    The sorted order is a repository invariant the rest of host
    selection depends on (prediction rows are aligned with it).  The
    host index hands out its list name-sorted and the preference
    filters preserve relative order; ``tests/scheduler/
    test_host_index.py`` pins the answer to a linear scan + sort.
    """
    records = repo.host_index.runnable_up_hosts(task.task_type)
    props = task.properties
    if props.preferred_machine is not None:
        records = [r for r in records if r.name == props.preferred_machine]
    if props.preferred_machine_type is not None:
        records = [
            r for r in records if _matches_machine_type(r, props.preferred_machine_type)
        ]
    return records


#: a task's in-round load: (host -> placement count, host -> placed
#: mask, mask of the placed tasks ordered with the task)
Load = Tuple[Mapping[str, int], Mapping[str, int], int]


class CommitmentLedger:
    """In-round commitment accounting on bit masks.

    "How many tasks already placed on host ``R`` can run concurrently
    with ``task_i``?"  Every task is a bit (its position in the round's
    :class:`~repro.afg.graph.StructureSnapshot`): the ledger keeps, per
    host, the count and the mask of the tasks placed on it, and the
    answer is the count less the popcount of ``reach[task_i] &
    on[R]`` — no per-task walk of the related set, and a site is asked
    about its own hosts only.

    Every committed task appears at most once per host (bid host groups
    are duplicate-free) and relatedness is symmetric, so subtracting
    the related placements from the total is exactly "count others not
    related to the task" — ``tests/scheduler/test_commitment_ledger.py``
    checks it against that rescan on random DAGs.
    """

    def __init__(self, structure: StructureSnapshot):
        self._index = structure.index
        self._reach = structure.reach
        self._total: Dict[str, int] = {}
        self._on: Dict[str, int] = {}
        self._placed = 0

    def commit(self, task_id: str, hosts: Tuple[str, ...]) -> None:
        """Record ``task_id`` as placed on ``hosts`` this round."""
        bit = 1 << self._index[task_id]
        if self._placed & bit:
            raise ValueError(f"task {task_id!r} committed twice")
        self._placed |= bit
        total, on = self._total, self._on
        for host in hosts:
            total[host] = total.get(host, 0) + 1
            on[host] = on.get(host, 0) | bit

    def load(self, task_id: str) -> Load:
        """What :func:`task_bid` reads in place, valid until the next
        :meth:`commit`: ``related``, the placed tasks ordered with
        ``task_id``, is 0 for a bag or an entry wave, whose load is then
        the totals — which move on a host only when a commit lands."""
        return self._total, self._on, self._reach[task_id] & self._placed


#: what a (site, task type) pair resolves to for a whole round: the
#: site's task-performance record and its prediction rows, name-ordered
BidSheet = Tuple[TaskPerfRecord, List[tuple]]


def bid_sheet(
    repo: SiteRepository, task_type: str, model: PredictionModel
) -> Optional[BidSheet]:
    """Figure 3 steps 1-2 for one task type at one site, or ``None``
    when the site's task-performance DB lacks the type (it declines).

    The rows are the repository's cache itself: valid for the
    synchronous call that built the sheet and never kept beyond it —
    monitor reports rewrite the repositories between one call and the
    next.  What crosses the wire is a :class:`SiteBid`, which copies.
    """
    try:
        perf = repo.task_perf.get(task_type)
    except KeyError:
        return None
    return perf, repo.host_index.rows(task_type, model)


class SiteBid(NamedTuple):
    """One site's reply to a scheduling request (Fig. 2 step 5): its bid
    sheets for the requested task types, as of ``version_key``.

    A bid is valid for the exchange that carried it.  ``sheets`` lacks
    the types the site's task-performance DB lacks (it declines those);
    ``host_attrs`` covers every host named by a row.
    """

    site: str
    #: ``repository.host_index.version_key()`` when the sheets were read
    version_key: Tuple[int, ...]
    sheets: Dict[str, BidSheet]
    host_attrs: Dict[str, Tuple[str, str]]

    @property
    def rows(self) -> int:
        """Prediction rows carried — what the reply is sized by."""
        return sum(len(rows) for _perf, rows in self.sheets.values())


def site_bid(
    repo: SiteRepository, task_types: Iterable[str], model: PredictionModel
) -> SiteBid:
    """Figure 3 steps 1-2 for every requested task type at one site.

    The row lists are copied: the cache replaces its lists, never
    patches them, but a reply must not alias what its sender goes on
    using.
    """
    sheets: Dict[str, BidSheet] = {}
    for task_type in task_types:
        sheet = bid_sheet(repo, task_type, model)
        if sheet is not None:
            sheets[task_type] = (sheet[0], list(sheet[1]))
    arch_os = repo.resources.arch_os
    return SiteBid(
        repo.site_name,
        repo.host_index.version_key(),
        sheets,
        {row[0]: arch_os(row[0])
         for _perf, rows in sheets.values() for row in rows},
    )


#: a bidding site: name, ``host -> (arch, os)``, bid sheet, bid memo
#: (``None``: none) and transfer row (``federation.TransferRow``)
Bidder = Tuple[str, ArchOsOf, BidSheet, Optional[dict],
               Optional[Mapping[str, Callable[[float], float]]]]

#: :meth:`CommitmentLedger.load` of a round that adds no in-round load
NO_LOAD: Load = ({}, {}, 0)


def task_bid(
    task: TaskNode,
    bidders: Iterable[Bidder],
    model: PredictionModel,
    load: Load = NO_LOAD,
    health_of=None,
    key=None,
    inputs: Iterable[Tuple[str, float]] = (),
) -> Optional[Tuple[str, Tuple[str, ...], float]]:
    """Figure 3 step 4 at every bidder and Figure 2 step 7's site
    choice in one pass: the winning ``(site, host group, predicted
    time)``, or ``None`` when every bidder declines.

    Per bidder: preferences select sheet rows, ``health_of`` is asked
    per selected row in name order (``None`` = quarantined), too few
    rows is a decline.  The row loop is ``PredictionModel.predict``'s
    float operations in its order, the health factor last; one node is
    the first strict minimum, n nodes the n smallest ``(time, name)``
    pairs.  Task terms are computed once per distinct record; a host's
    in-round load is its :meth:`CommitmentLedger.load` count less the
    placements ordered with the task.  With a ``key`` a bidder's memo
    answers and keeps its bid.  Timetotal adds each ``(source site,
    MB)`` input's transfer from ``0.0`` in order; sites tie by name.
    """
    props = task.properties
    n_nodes = props.n_nodes  # sequential tasks have 1 (TaskProperties)
    single = n_nodes == 1
    machine, machine_type = props.preferred_machine, props.preferred_machine_type
    totals, on, related = load
    total_of = totals.get
    penalty = model.memory_penalty
    terms: Dict[int, Tuple[float, int]] = {}
    best = best_site = best_total = last = None
    for site, arch_os, (perf, rows), memo, to_site in bidders:
        if key is not None and key in memo:
            bid = memo[key]
        else:
            bid = None
            if machine is not None:
                rows = [row for row in rows if row[0] == machine]
            if machine_type is not None:
                rows = [row for row in rows
                        if _attrs_match(arch_os(row[0]), machine_type)]
            factors: Optional[Dict[str, float]] = None
            if health_of is not None:
                factors = {}
                for row in rows:
                    factor = health_of(row[0])
                    if factor is not None:
                        factors[row[0]] = factor
                if len(factors) != len(rows):
                    rows = [row for row in rows if row[0] in factors]
            if len(rows) >= n_nodes:
                if perf is not last:  # bidders mostly share one record
                    last = perf
                    half = terms.get(id(perf))
                    if half is None:
                        half = terms[id(perf)] = model.task_terms(
                            perf, props.workload_scale, n_nodes,
                            props.memory_mb if props.memory_mb > 0 else None)
                    span_work, required_mb = half
                best_time = best_name = None
                pairs = []
                for name, one_plus_load, speed, available_mb, calibration, \
                        noise in rows:
                    # an int count promotes exactly when added to the load
                    extra = total_of(name, 0)
                    if related and extra:
                        extra -= (related & on[name]).bit_count()
                    t = span_work * (one_plus_load + extra) / speed
                    if required_mb > available_mb:
                        t *= penalty
                    t = t * calibration * noise
                    if factors:
                        t *= factors[name]
                    if not single:
                        pairs.append((t, name))
                    elif best_name is None or t < best_time:
                        best_time, best_name = t, name
                if single:
                    bid = (best_time, (best_name,))
                else:
                    # parallel slices run concurrently; the group
                    # finishes with its slowest member
                    chosen = sorted(pairs)[:n_nodes]
                    bid = (chosen[-1][0], tuple(name for _, name in chosen))
            if key is not None:
                memo[key] = bid
        if bid is None:
            continue
        total = bid[0]
        if inputs:
            transfer = 0.0
            for source, size_mb in inputs:
                transfer += to_site[source](size_mb)
            total = transfer + total
        if best is None or total < best_total or (
            total == best_total and site < best_site
        ):
            best, best_site, best_total = bid, site, total
    return None if best is None else (best_site, best[1], best[0])


def bid_for_task(
    task: TaskNode,
    repo: SiteRepository,
    model: PredictionModel,
    extra_load: Mapping[str, float],
    health_of=None,
) -> Optional[HostSelectionResult]:
    """Figure 3's inner step for one task at one site.

    Evaluates ``Predict(task, Rj)`` over every feasible host (with the
    caller-supplied in-round load ``extra_load.get(host_name, 0)``
    added) and returns the minimising host group, or ``None`` when the
    site cannot run the task (no feasible hosts, task unknown to its
    DBs).  It is :func:`task_bid` with one bidder, on a sheet built for
    the one call.

    ``health_of`` (optional, from :class:`~repro.runtime.straggler.
    HostHealth`) maps a host name to a multiplicative prediction
    penalty, or ``None`` for a quarantined host, which is excluded from
    the candidate set entirely.  It is consulted per bid, never
    resolved once per round: ``factor_of`` releases an expired
    quarantine as a side effect.
    """
    if any(extra < 0 for extra in extra_load.values()):
        raise ValueError("extra_load must be non-negative")
    sheet = bid_sheet(repo, task.task_type, model)
    if sheet is None:
        return None
    site = repo.site_name
    bid = task_bid(
        task, ((site, repo.resources.arch_os, sheet, None, None),), model,
        (extra_load, {}, 0), health_of,
    )
    return None if bid is None else HostSelectionResult(task.id, *bid)


def select_hosts(
    afg: ApplicationFlowGraph,
    repo: SiteRepository,
    model: Optional[PredictionModel] = None,
    order: Optional[List[str]] = None,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
    health_of=None,
) -> Dict[str, HostSelectionResult]:
    """Run Figure 3 at one site; return this site's bids, keyed by task id.

    ``order`` overrides the queue order (default: level priority); the
    E9 ablation passes a FIFO/topological order here.  ``tracer``
    records one :data:`~repro.trace.events.EventKind.HOST_BID` event
    per bid produced; ``metrics`` counts bids (a fold of those events,
    through the one emitter the two make) and declines per site.
    ``health_of`` is the optional host-health penalty/quarantine hook
    (see :func:`bid_for_task`).
    """
    model = model or PredictionModel()
    tracer = metrics.emitter(tracer)
    results: Dict[str, HostSelectionResult] = {}

    # Step 3: every AFG task goes in the queue.  The queue is walked in
    # level-priority order (§3: levels are computed before scheduling);
    # tasks whose type the site's task-performance DB lacks cost 0 for
    # ordering purposes and will produce no bid below.
    def base_cost(task_id: str) -> float:
        node = afg.task(task_id)
        try:
            return repo.task_perf.base_cost(
                node.task_type, node.properties.workload_scale
            )
        except KeyError:
            return 0.0

    if order is None:
        from repro.afg.levels import priority_order

        queue = priority_order(afg, base_cost)
    else:
        if sorted(order) != sorted(t.id for t in afg):
            raise ValueError("order must be a permutation of the AFG's tasks")
        queue = list(order)

    #: in-round commitments: which hosts each placed task went to
    ledger = CommitmentLedger(afg.structure())
    #: steps 1-2, once per task type: this site as the one bidder, or
    #: no bidder when it declines
    bidders: Dict[str, Tuple[Bidder, ...]] = {}
    site = repo.site_name
    arch_os = repo.resources.arch_os

    for task_id in queue:
        task = afg.task(task_id)
        task_type = task.task_type
        if task_type not in bidders:
            sheet = bid_sheet(repo, task_type, model)
            bidders[task_type] = (
                () if sheet is None else ((site, arch_os, sheet, None, None),)
            )
        # Step 4: Predict(task, Rj) for every feasible Rj, with the
        # in-round load of concurrent commitments added.
        bid = task_bid(
            task, bidders[task_type], model, ledger.load(task_id), health_of
        )
        if bid is None:
            if metrics.enabled:
                metrics.counter(
                    "vdce_host_bid_declines_total",
                    "tasks a site could not bid on (no feasible host)",
                ).inc(site=site)
            continue  # site cannot run this task; no bid
        _site, hosts, predicted_time = bid
        if tracer.enabled:
            tracer.emit(
                EventKind.HOST_BID, source=f"hostsel:{site}",
                task=task_id, site=site, hosts=hosts,
                predicted_time=predicted_time,
            )
        ledger.commit(task_id, hosts)
        results[task_id] = HostSelectionResult(
            task_id, site, hosts, predicted_time
        )
    return results
