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

from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from repro.afg.graph import ApplicationFlowGraph
from repro.afg.task import TaskNode
from repro.metrics.registry import MetricsRegistry, NULL_METRICS
from repro.repository.resources import HostRecord
from repro.repository.store import SiteRepository
from repro.scheduler.prediction import PredictionModel
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = [
    "CommitmentLedger",
    "HostSelectionResult",
    "bid_for_task",
    "candidate_hosts",
    "select_hosts",
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


def _matches_machine_type(record: HostRecord, machine_type: str) -> bool:
    """Case-insensitive match against the host's arch/OS attributes.

    Figure 1 writes types like ``<SUN solaris>``; we accept any
    whitespace-separated tokens all matching the host's arch or OS.
    """
    tokens = machine_type.lower().split()
    attrs = {record.spec.arch.lower(), record.spec.os.lower()}
    # vendor aliases seen in the paper's examples ("SUN solaris")
    aliases = {"sun": "sparc"}
    normalized = {aliases.get(t, t) for t in tokens}
    return normalized <= attrs


def candidate_hosts(task: TaskNode, repo: SiteRepository) -> List[HostRecord]:
    """Feasible hosts for ``task`` at this site, in stable name order.

    The sorted order is a repository invariant the rest of host
    selection depends on (prediction rows are aligned with it).  The
    host index hands out its table pre-sorted and the preference
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
    """In-round commitment accounting with O(|related ∩ placed|) queries.

    "How many tasks already placed on host ``R`` can run concurrently
    with ``task_i``?"  Rescanning every commitment on ``R`` per (task,
    host) prediction is O(total commitments) per pair, quadratic over a
    large bag.  The ledger keeps per-host totals and, once per queried
    task, takes that task's *related* (ordered) placements off a copy;
    the row kernel then reads the concurrent count of each host with
    one ``dict.get``.

    Every committed task appears at most once per host (bid host groups
    are duplicate-free) and relatedness is symmetric, so subtracting
    the related placements from the total is exactly "count others not
    in related[task]" — ``tests/scheduler/test_commitment_ledger.py``
    checks it against that rescan on random DAGs.
    """

    def __init__(self, related: Dict[str, Set[str]]):
        self._related = related
        self._total: Dict[str, int] = {}
        self._placed_on: Dict[str, Tuple[str, ...]] = {}

    def commit(self, task_id: str, hosts: Tuple[str, ...]) -> None:
        """Record ``task_id`` as placed on ``hosts`` this round."""
        self._placed_on[task_id] = tuple(hosts)
        total = self._total
        for host in hosts:
            total[host] = total.get(host, 0) + 1

    def extra_load(self, task_id: str) -> Mapping[str, int]:
        """host -> in-round commitments on it that can run concurrently
        with ``task_id``; a host not in the mapping has none.

        Read-only and valid until the next :meth:`commit`: when nothing
        placed so far is ordered with the task (a bag, an entry wave)
        it is the ledger's own totals, otherwise a copy with the
        related placements taken off — only ``related ∩ placed`` is
        visited, not the whole related set.
        """
        placed_on = self._placed_on
        ordered = self._related[task_id] & placed_on.keys()
        if not ordered:
            return self._total
        extra = dict(self._total)
        for other in ordered:
            for host in placed_on[other]:
                extra[host] -= 1
        return extra


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
    DBs).

    ``health_of`` (optional, from :class:`~repro.runtime.straggler.
    HostHealth`) maps a host name to a multiplicative prediction
    penalty, or ``None`` for a quarantined host, which is excluded from
    the candidate set entirely.  It is consulted per bid, never
    resolved once per round: ``factor_of`` releases an expired
    quarantine as a side effect.
    """
    props = task.properties
    task_type = task.task_type
    candidates = candidate_hosts(task, repo)
    try:
        perf = repo.task_perf.get(task_type)
    except KeyError:
        return None
    factors: Dict[str, float] = {}
    if health_of is not None:
        # rebuild rather than remove-in-place: candidate lists may be
        # the host index's cached table, which is shared and read-only
        kept = []
        for record in candidates:
            factor = health_of(record.name)
            if factor is not None:  # None = quarantined, excluded
                factors[record.name] = factor
                kept.append(record)
        candidates = kept
    # sequential tasks have n_nodes == 1 (TaskProperties checks it)
    n_nodes = props.n_nodes
    if len(candidates) < n_nodes:
        return None
    # The row kernel: Predict is separable (see scheduler.prediction),
    # so the task half is computed once here, the host half comes from
    # the repository's cached rows, and the loop body is
    # ``PredictionModel.predict``'s float operations in ``predict``'s
    # order (``tests/scheduler/test_predict_kernel.py`` holds the two
    # to ``==``).
    rows = repo.predict_cache.rows(task_type, model)
    if len(rows) != len(candidates):
        # a preference / quarantine / exclusion filter narrowed the
        # candidates: select their rows, never touch the shared list
        kept_names = {record.name for record in candidates}
        rows = [row for row in rows if row[0] in kept_names]
    span_work, required_mb = model.task_terms(
        perf, props.workload_scale, n_nodes,
        props.memory_mb if props.memory_mb > 0 else None,
    )
    memory_penalty = model.memory_penalty
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
        chosen_hosts: Tuple[str, ...] = (best_name,)
        predicted_time = best_time
    else:
        chosen = sorted(pairs)[:n_nodes]
        chosen_hosts = tuple(name for _, name in chosen)
        # parallel slices run concurrently; the group finishes with its
        # slowest member (the largest selected prediction)
        predicted_time = chosen[-1][0]
    return HostSelectionResult(
        task.id, repo.site_name, chosen_hosts, predicted_time
    )


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
    per bid produced; ``metrics`` counts bids and declines per site.
    ``health_of`` is the optional host-health penalty/quarantine hook
    (see :func:`bid_for_task`).
    """
    model = model or PredictionModel()
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
    ledger = CommitmentLedger(afg.structure().related)

    for task_id in queue:
        task = afg.task(task_id)
        # Step 4: Predict(task, Rj) for every feasible Rj, with the
        # in-round load of concurrent commitments added.
        bid = bid_for_task(
            task, repo, model, ledger.extra_load(task_id), health_of
        )
        if bid is None:
            if metrics.enabled:
                metrics.counter(
                    "vdce_host_bid_declines_total",
                    "tasks a site could not bid on (no feasible host)",
                ).inc(site=repo.site_name)
            continue  # site cannot run this task; no bid
        if metrics.enabled:
            metrics.counter(
                "vdce_host_bids_total",
                "host-selection bids produced, per site",
            ).inc(site=repo.site_name)
        if tracer.enabled:
            tracer.emit(
                EventKind.HOST_BID, source=f"hostsel:{repo.site_name}",
                task=task.id, site=bid.site, hosts=bid.hosts,
                predicted_time=bid.predicted_time,
            )
        ledger.commit(task_id, bid.hosts)
        results[task.id] = bid
    return results
