"""The Site Scheduler Algorithm — paper Figure 2, step for step.

    1. Receive application flow graph from Application Editor.
    2. Select k nearest VDCE neighbor sites,
       Sremote = {S1, S2, ..., Sk}, for local site Slocal.
    3. Multicast application flow graph to each Si in Sremote.
    4. Call Host-Selection-Algorithm (local and remote sites).
    5. Receive the outputs of Host-Selection Algorithm from each Si.
    6. Initialize ready-tasks = {task_i | task_i is an entry node}.
    7. For each task_i in ready-tasks set:
         If task_i is an entry task or task_i does not require input:
             Assign task_i to Sj which minimizes Predict(task_i, Rj).
         Else:
             Determine the site(s), Sparent, assigned for one or more of
             the parent nodes of task_i.
             For each site Sj evaluate:
                 Timetotal(task_i, Sj) = transfer_time(Sparent, Sj)
                                         x file_size + Predict(task_i, Rj)
             Assign task_i to Sj which minimizes Timetotal(task_i, Sj).
         Store resource allocation information for task_i.
         Update the ready-tasks set by removing task_i, and adding
         children nodes of task_i.

Two faithful readings are worth noting:

* *Priorities.*  §3 says levels are "determined before the execution of
  the scheduling algorithm" and give the priority; the ready set is
  therefore processed in descending level order (highest level first),
  recomputed as children become ready.
* *Children become ready* only when **all** their parents are scheduled
  (a child with an unscheduled second parent has no complete
  ``Sparent`` set yet); this is the standard list-scheduling reading.

This module is pure: multicast latency and message counting belong to
the runtime (:mod:`repro.runtime`), which invokes the same functions
from inside simulated Site Manager processes.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import copysign
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.afg.graph import ApplicationFlowGraph
from repro.afg.levels import compute_levels
from repro.afg.validate import validate_afg
from repro.repository.taskperf import TaskPerfRecord
from repro.scheduler.allocation import AllocationTable, TaskAssignment
from repro.scheduler.federation import FederationView, TransferRow
from repro.scheduler.host_selection import (
    NO_LOAD,
    Bidder,
    CommitmentLedger,
    task_bid,
)
from repro.scheduler.prediction import PredictionModel
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["SiteScheduler", "SchedulingError"]


class SchedulingError(RuntimeError):
    """No feasible placement exists for some task."""


@dataclass
class SiteScheduler:
    """VDCE's distributed scheduler, configured for one local site.

    Parameters
    ----------
    k:
        How many nearest remote sites join the schedule (Fig. 2 step 2).
        ``k=0`` degenerates to single-site scheduling.
    model:
        The ``Predict`` evaluator shared by all participating sites.
    name:
        Label recorded in the allocation table (used by experiments).
    use_level_priority:
        When False, the ready set is processed in FIFO/insertion order
        instead of level order — the E9 ablation.
    account_commitments:
        When False, ``Predict`` ignores tasks already placed in this
        round — the *literal* reading of Figures 2-3, in which every
        comparable task collapses onto the single fastest host.  The
        E13 ablation quantifies what the schedule-aware accounting
        (DESIGN.md §5) buys.
    """

    k: int = 2
    model: PredictionModel = field(default_factory=PredictionModel)
    name: str = "vdce"
    use_level_priority: bool = True
    account_commitments: bool = True

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be non-negative")

    # -- the algorithm ------------------------------------------------------

    def schedule(
        self,
        afg: ApplicationFlowGraph,
        view: FederationView,
        tracer: Tracer = NULL_TRACER,
        health_of=None,
    ) -> AllocationTable:
        """Run Figure 2 and return the resource allocation table."""
        table, _ = self.schedule_with_trace(
            afg, view, tracer=tracer, health_of=health_of
        )
        return table

    def schedule_with_trace(
        self,
        afg: ApplicationFlowGraph,
        view: FederationView,
        tracer: Tracer = NULL_TRACER,
        health_of=None,
    ) -> Tuple[AllocationTable, List[str]]:
        """As :meth:`schedule`, also returning the placement order.

        ``tracer`` emits one ``schedule_decision`` event per placed
        task — the substrate for trace-diffing a scheduling change, and
        what the decision metrics fold.
        ``health_of`` is the optional host-health penalty/quarantine
        hook threaded into every bid (see
        :func:`~repro.scheduler.host_selection.bid_for_task`).
        """
        validate_afg(afg)

        # Step 2: select the k nearest neighbour sites.  The call is
        # synchronous, so, like the AFG's structure (DESIGN §13.8), each
        # task type's bidders — every participating site knowing it,
        # local first — are resolved once here, each with its site's bid
        # memo (DESIGN §13.10) and transfer row (§13.12); equal records
        # become one object, so task terms are computed once per record.
        model = self.model
        sites = {
            site: (view.arch_os_of(site), {}, TransferRow(view, site))
            for site in view.participating_sites(self.k)
        }
        records: Dict[tuple, TaskPerfRecord] = {}
        sheets: Dict[str, List[Bidder]] = {}
        for node in afg:
            task_type = node.task_type
            if task_type in sheets:
                continue
            bidders = sheets[task_type] = []
            for site, (arch_os, memo, to_site) in sites.items():
                sheet = view.bid_sheet(site, task_type, model)
                if sheet is not None:
                    perf, rows = sheet  # one object per equal record,
                    perf = records.setdefault(  # signed: 0.0 == -0.0
                        (perf, copysign(1.0, perf.computation_size)), perf)
                    bidders.append((site, arch_os, (perf, rows), memo, to_site))
            if not bidders:
                raise SchedulingError(
                    f"no participating site knows task type {task_type!r}"
                )
        structure = afg.structure()

        # Steps 3-5 (the AFG multicast and bid replies) are the *wire*
        # protocol, reproduced with real messages by
        # VDCERuntime.schedule_process; the information they move — each
        # remote site's bid sheets — reaches this pure function through
        # the FederationView, which answers from the bids it was built
        # from or, for a caller holding every repository, from those.
        # Step 7's inner
        # "evaluate Predict(task_i, Rj)" is performed per ready task
        # against the sites' current in-round commitments (the
        # schedule-aware accounting documented in
        # repro.scheduler.host_selection), so independent tasks spread
        # over hosts *and* sites instead of collapsing onto the single
        # fastest machine.
        # Priorities: levels from base computation costs, computed once
        # "before the execution of the scheduling algorithm" (§3), from
        # the first bidder's record: the local one when it knows the type.
        def cost(task_id: str) -> float:
            node = afg.task(task_id)
            perf = sheets[node.task_type][0][2][0]
            return perf.computation_size * node.properties.workload_scale

        levels = compute_levels(afg, cost)
        #: federation-wide in-round commitments; None under the E13
        #: ablation, where Predict ignores what this round already placed
        ledger: Optional[CommitmentLedger] = (
            CommitmentLedger(structure)
            if self.account_commitments else None
        )

        table = AllocationTable(afg.name, scheduler=self.name)
        site_by_task: Dict[str, str] = {}
        placement_order: List[str] = []

        # Step 6: ready set starts with the entry nodes.  With level
        # priority it is a heap of ranks, a task's rank its position in
        # one descending sort of (level, id), so each pop is
        # max(ready, key=(level, id)); the E9 ablation keeps a FIFO queue.
        # A task enters it when its count of unplaced parents hits zero.
        children = structure.children
        waiting = {t: len(near) for t, near in structure.parents.items()}
        by_level = self.use_level_priority
        entries = sorted(t for t, n in waiting.items() if not n)
        if by_level:
            by_rank = sorted(zip(levels.values(), levels), reverse=True)
            rank = {task: r for r, (_level, task) in enumerate(by_rank)}
            ready = [rank[t] for t in entries]
            heapq.heapify(ready)
        else:
            ready = deque(entries)

        # Step 7: walk the ready set in priority order.
        while ready:
            if by_level:
                task_id = by_rank[heapq.heappop(ready)][1]
            else:
                task_id = ready.popleft()
            assignment = self._place_task(
                afg, task_id, sheets, view, site_by_task, health_of, ledger,
            )
            if tracer.enabled:
                tracer.emit(
                    EventKind.SCHEDULE_DECISION, source=f"sched:{self.name}",
                    application=afg.name, task=task_id,
                    site=assignment.site, hosts=assignment.hosts,
                    predicted_time=assignment.predicted_time,
                    level=levels[task_id],
                )
            table.assign(assignment)
            if ledger is not None:
                ledger.commit(task_id, assignment.hosts)
                sites[assignment.site][1].clear()  # its memo: totals moved
            site_by_task[task_id] = assignment.site
            placement_order.append(task_id)
            for child in children[task_id]:
                waiting[child] -= 1
                if not waiting[child]:
                    if by_level:
                        heapq.heappush(ready, rank[child])
                    else:
                        ready.append(child)

        table.validate_against(afg)
        return table, placement_order

    # -- placement of one task ------------------------------------------------

    def _place_task(
        self,
        afg: ApplicationFlowGraph,
        task_id: str,
        sheets: Dict[str, List[Bidder]],
        view: FederationView,
        site_by_task: Dict[str, str],
        health_of=None,
        ledger: Optional[CommitmentLedger] = None,
    ) -> TaskAssignment:
        task = afg.task(task_id)
        load = NO_LOAD if ledger is None else ledger.load(task_id)
        # A site's bid reads the task's fields keyed here, the sheet and
        # the in-round load on the site's hosts.  While that load is the
        # ledger's totals, it moves only when a placement commits to the
        # site, so the site's memo answers an identical task; a health
        # hook is asked per bid (factor_of releases quarantines)
        key = None
        if health_of is None and not load[2]:
            props = task.properties
            key = (task.task_type, props.workload_scale, props.memory_mb,
                   props.n_nodes, props.preferred_machine,
                   props.preferred_machine_type)

        # Dataflow rule: Timetotal = parent-site transfers + Predict.
        # What does not depend on the candidate site is gathered once
        # per task; an entry / no-input task has nothing to transfer,
        # and its Timetotal is Predict alone.
        inputs: List[Tuple[str, float]] = []
        if afg.requires_input_transfer(task_id):
            # afg.edge_size_between per parent, summed in one pass
            size_of: Dict[str, float] = {}
            for edge in afg.in_edges(task_id):
                size_of[edge.src] = size_of.get(edge.src, 0) + edge.size_mb
            inputs = [(site_by_task[p], mb) for p, mb in size_of.items()]
            # explicit file inputs are staged from the submitting site
            file_mb = task.properties.total_input_size_mb()
            if file_mb > 0:
                inputs.append((view.local_site, file_mb))

        bid = task_bid(
            task, sheets[task.task_type], self.model, load, health_of, key,
            inputs,
        )
        if bid is None:
            raise SchedulingError(
                f"no site can run task {task_id!r} ({task.task_type})"
            )
        site, hosts, predicted_time = bid
        return TaskAssignment(
            task_id=task_id,
            site=site,
            hosts=hosts,
            predicted_time=predicted_time,
        )
