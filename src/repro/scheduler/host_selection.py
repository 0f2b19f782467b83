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
    "predict_rows",
    "select_hosts",
    "sheet_bid",
    "site_bid",
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

    def unordered(self, task_id: str) -> bool:
        """Whether nothing placed so far is ordered with ``task_id``:
        its :meth:`extra_load` is then the ledger's own totals, which
        change on a host only when a placement commits to it."""
        return not self._reach[task_id] & self._placed

    def extra_load(self, task_id: str) -> Mapping[str, int]:
        """host -> in-round commitments on it that can run concurrently
        with ``task_id``; a host not in the mapping has none.

        Read-only and valid until the next :meth:`commit`: when nothing
        placed so far is ordered with the task (a bag, an entry wave)
        it is the ledger's own totals, otherwise the totals with each
        host's related placements counted off.
        """
        reach = self._reach[task_id]
        if not reach & self._placed:
            return self._total
        on = self._on
        return {
            host: count - (reach & on[host]).bit_count()
            for host, count in self._total.items()
        }


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
    DBs).  A round resolves one :func:`bid_sheet` per task type and
    calls :func:`sheet_bid` per task; this is the same bid on a sheet
    built for the one call.

    ``health_of`` (optional, from :class:`~repro.runtime.straggler.
    HostHealth`) maps a host name to a multiplicative prediction
    penalty, or ``None`` for a quarantined host, which is excluded from
    the candidate set entirely.  It is consulted per bid, never
    resolved once per round: ``factor_of`` releases an expired
    quarantine as a side effect.
    """
    sheet = bid_sheet(repo, task.task_type, model)
    if sheet is None:
        return None
    bid = sheet_bid(
        task, repo.resources.arch_os, sheet, model, extra_load, health_of
    )
    if bid is None:
        return None
    return HostSelectionResult(task.id, repo.site_name, bid[1], bid[0])


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
        from repro.afg.levels import compute_levels

        levels = compute_levels(afg, base_cost)
        queue = sorted(levels, key=lambda t: (-levels[t], t))
    else:
        if sorted(order) != sorted(t.id for t in afg):
            raise ValueError("order must be a permutation of the AFG's tasks")
        queue = list(order)

    #: in-round commitments: which hosts each placed task went to
    ledger = CommitmentLedger(afg.structure())
    #: steps 1-2, once per task type: its sheet, None = site declines
    sheets: Dict[str, Optional[BidSheet]] = {}
    site = repo.site_name
    arch_os = repo.resources.arch_os

    for task_id in queue:
        task = afg.task(task_id)
        task_type = task.task_type
        if task_type not in sheets:
            sheets[task_type] = bid_sheet(repo, task_type, model)
        sheet = sheets[task_type]
        # Step 4: Predict(task, Rj) for every feasible Rj, with the
        # in-round load of concurrent commitments added.
        bid = None if sheet is None else sheet_bid(
            task, arch_os, sheet, model, ledger.extra_load(task_id), health_of
        )
        if bid is None:
            if metrics.enabled:
                metrics.counter(
                    "vdce_host_bid_declines_total",
                    "tasks a site could not bid on (no feasible host)",
                ).inc(site=site)
            continue  # site cannot run this task; no bid
        predicted_time, hosts = bid
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
