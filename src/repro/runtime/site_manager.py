"""Site Managers — the VDCE Server software at each site (paper §§1, 4.1).

The Site Manager is the hub of Figure 4:

1. retrieving the resource performance parameters,
2. monitoring the VDCE resources (via Group Managers),
3. updating the site repository — both the resource-performance DB
   (workload + failure state) and, after an application completes, the
   task-performance DB with measured execution times,
4. sending the related portion of the resource allocation table to the
   Group Managers involved in an execution,
5. inter-site coordination (scheduler multicast and bid replies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.afg.graph import ApplicationFlowGraph
from repro.net.rpc import ManagerUnavailable
from repro.obs.spans import NULL_SPANS, SpanKind, SpanRecorder
from repro.repository.store import SiteRepository
from repro.runtime.monitor import Measurement
from repro.runtime.overload import NULL_BROWNOUT, SiteOverloaded
from repro.runtime.stats import RuntimeStats
from repro.runtime.straggler import NULL_HEALTH
from repro.scheduler.allocation import AllocationTable
from repro.scheduler.host_selection import (
    HostSelectionResult,
    SiteBid,
    bid_for_task,
    # not called here (the per-round path carries bid sheets); bound
    # because the frozen bench/tests/test_bench_smoke.py looks it up
    select_hosts,  # noqa: F401
    site_bid,
)
from repro.scheduler.prediction import PredictionModel
from repro.sim.kernel import Signal, Simulator
from repro.sim.site import Site
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.app_controller import AppController
    from repro.runtime.group_manager import GroupManager

__all__ = ["SiteManager"]

#: site occupancy at which the site stops answering bid requests
_BID_EXCLUSION_OCCUPANCY = 1.0


class SiteManager:
    """Per-site control hub bridging runtime components to the repository."""

    def __init__(
        self,
        sim: Simulator,
        site: Site,
        repository: SiteRepository,
        stats: RuntimeStats,
        lan_latency_s: float = 0.0005,
        tracer: Tracer = NULL_TRACER,
        health=NULL_HEALTH,
        spans: SpanRecorder = NULL_SPANS,
        brownout=NULL_BROWNOUT,
    ):
        self.sim = sim
        self.site = site
        self.repository = repository
        self.stats = stats
        self.lan_latency_s = float(lan_latency_s)
        self.tracer = tracer
        self.spans = spans
        #: trace/span source of everything this manager emits
        self._src = f"sm:{site.name}"
        #: HostHealth (or NULL_HEALTH): quarantine + prediction penalties
        #: folded into every host selection this site performs
        self.health = health
        #: BrownoutController (or NULL_BROWNOUT): Group Managers feed
        #: per-group occupancy here and saturated sites refuse to bid
        self.brownout = brownout
        #: latest occupancy per group (load / saturation threshold)
        self._occupancy: Dict[str, float] = {}
        #: site occupancy: mean of the groups' latest reports (0 = idle)
        self.occupancy = 0.0
        self.group_managers: Dict[str, "GroupManager"] = {}
        self.app_controllers: Dict[str, "AppController"] = {}
        #: False while the VDCE Server process is crashed
        self.alive = True
        #: moved by every ``GroupManager._bump`` here (DESIGN §13.15)
        self.belief_mark = 0
        #: failure/recovery reports received while crashed, in order
        self._pending_reports: List[tuple] = []
        #: runtime-wide membership coordinator, set by VDCERuntime; the
        #: admit/drain/retire/rejoin RPCs below delegate to it
        self.membership = None

    @property
    def name(self) -> str:
        return self.site.name

    # -- crash / re-register (control-plane fault model) --------------------

    def crash(self) -> None:
        """The VDCE Server process dies: no bids, no allocation, no DB.

        The federation layer excludes a crashed site from scheduling
        (its bid RPCs never get an answer and its
        :meth:`~repro.runtime.vdce_runtime.VDCERuntime.federation_view`
        entry is dropped) until :meth:`recover` re-registers it.
        Group Manager reports arriving meanwhile are buffered and
        replayed in order at recovery, so the repository never reflects
        updates applied by a dead manager.
        """
        if not self.alive:
            return
        self.alive = False
        self.tracer.emit(
            EventKind.MANAGER_CRASH, source=self._src, role="site_manager",
        )

    def recover(self) -> None:
        """A replacement server re-registers and replays buffered reports."""
        if self.alive:
            return
        self.alive = True
        pending, self._pending_reports = self._pending_reports, []
        for kind, host_name in pending:
            if not self.repository.resources.has_host(host_name):
                continue  # the host was deregistered while we were dead
            if kind == "down":
                self.repository.resources.mark_down(host_name, time=self.sim.now)
            else:
                self.repository.resources.mark_up(host_name, time=self.sim.now)
        self.tracer.emit(
            EventKind.MANAGER_RECOVER, source=self._src,
            role="site_manager", replayed_reports=len(pending),
        )

    # -- wiring ------------------------------------------------------------

    def attach_group_manager(self, gm: "GroupManager") -> None:
        self.group_managers[gm.name] = gm

    def attach_app_controller(self, controller: "AppController") -> None:
        self.app_controllers[controller.host.name] = controller

    # -- monitoring inputs (Fig. 4 flows 2-3) -----------------------------------

    def receive_workload(self, measurement: Measurement) -> None:
        """Fold a forwarded measurement into the resource-performance DB."""
        if not self.repository.resources.has_host(measurement.host):
            return  # in-flight report from a host deregistered meanwhile
        self.repository.resources.update_workload(
            measurement.host,
            load=measurement.load,
            available_memory_mb=measurement.available_memory_mb,
            time=self.sim.now,
        )
        metrics = self.sim.metrics
        if metrics.enabled:
            # the site's *believed* queue depth: what survives Fig. 4's
            # filter (vdce_host_load keeps every change point)
            metrics.series(
                "vdce_site_queue_depth",
                "per-host run-queue length as known at the Site Manager",
            ).observe(measurement.load, site=self.name, host=measurement.host)

    def receive_occupancy(self, group: str, occupancy: float) -> None:
        """Fold a Group Manager's echo-round occupancy into backpressure."""
        self._occupancy[group] = float(occupancy)
        self.occupancy = sum(self._occupancy.values()) / len(self._occupancy)
        self.brownout.update(self.name, group, occupancy)

    def receive_failure(self, host_name: str) -> None:
        """Mark the host "down" at the site's resource-performance DB."""
        if not self.alive:
            self._pending_reports.append(("down", host_name))
            return
        if not self.repository.resources.has_host(host_name):
            return  # report raced a deregistration; the row is gone
        self.repository.resources.mark_down(host_name, time=self.sim.now)

    def receive_recovery(self, host_name: str) -> None:
        if not self.alive:
            self._pending_reports.append(("up", host_name))
            return
        if not self.repository.resources.has_host(host_name):
            return
        self.repository.resources.mark_up(host_name, time=self.sim.now)

    # -- elastic membership RPCs (issue 10) ---------------------------------

    def admit_host(self, spec, group_name: str, activate: bool = True):
        """Join a new host into one of this site's groups at runtime.

        A name with a departure tombstone is dispatched to the rejoin
        path instead (same epoch-bumping reconciliation an explicit
        :meth:`rejoin_host` performs).
        """
        if not self.alive:
            raise ManagerUnavailable(self.name)
        if spec.name in self.repository.resources.departed_hosts():
            return self.membership.rejoin_host(spec.name, spec=spec)
        return self.membership.admit_host(
            self.name, group_name, spec, activate=activate
        )

    def drain_host(self, name: str, deadline_s: float, retire: bool = True):
        """Gracefully drain a host: no new placements, bounded finish."""
        if not self.alive:
            raise ManagerUnavailable(self.name)
        return self.membership.drain_host(name, deadline_s, retire=retire)

    def retire_host(self, name: str):
        """Hard decommission: evict resident work and deregister now."""
        if not self.alive:
            raise ManagerUnavailable(self.name)
        return self.membership.retire_host(name)

    def rejoin_host(self, name: str, spec=None):
        """Bring a departed host back under a fresh membership epoch."""
        if not self.alive:
            raise ManagerUnavailable(self.name)
        return self.membership.rejoin_host(name, spec=spec)

    # -- allocation distribution (Fig. 4 flow 4) ----------------------------------

    def distribute_allocation(
        self, table: AllocationTable, afg: ApplicationFlowGraph
    ) -> Signal:
        """Multicast this site's portion of the table toward its hosts.

        "Another function of the Site Manager is to multicast the
        resource allocation table to the Group Managers that will be
        involved in the execution.  Each Group Manager sends an
        execution request message and the related portion of the
        resource allocation information to the Application Controller
        of the related machines."

        Returns a signal that fires when every involved Application
        Controller has received its execution request.
        """
        if not self.alive:
            raise ManagerUnavailable(self.name)
        my_tasks = table.tasks_on_site(self.name)
        site_hosts = self.site.hosts
        # hosts named by the table that this site still has — a table
        # built before a membership change may name a departed host,
        # whose tasks the coordinator's membership check will move
        hosts_involved: List[str] = sorted(
            {h for t in my_tasks for h in table.hosts_of(t)} & site_hosts.keys()
        )
        done = self.sim.signal(f"alloc:{self.name}:{table.application}")
        if not hosts_involved:
            self.sim.call_at(self.sim.now, lambda: done.succeed([]))
            return done

        groups_involved = sorted(
            {self.site.group_of(h).name for h in hosts_involved}
        )
        # Site Manager -> each Group Manager (one message per group) ...
        self.stats.allocation_messages += len(groups_involved)
        self.tracer.emit(
            EventKind.ALLOCATION_MULTICAST, source=self._src,
            application=table.application, groups=groups_involved,
            hosts=hosts_involved,
        )
        # ... then Group Manager -> each Application Controller
        pending = [len(hosts_involved)]
        # parented to the caller's ambient context: the allocation span
        # for a local call, the RPC attempt for a remote one — this is
        # the cross-site hop that stitches the tree together
        fanout_span = self.spans.open(
            SpanKind.SM_FANOUT, table.application,
            parent=self.spans.current, source=self._src,
            groups=groups_involved, hosts=len(hosts_involved),
        )

        def deliver_to_controller(host_name: str) -> None:
            self.stats.execution_requests += 1
            self.tracer.emit(
                EventKind.EXECUTION_REQUEST, source=self._src,
                application=table.application, host=host_name,
            )
            controller = self.app_controllers.get(host_name)
            if controller is not None:
                # a host retired while the request was on the LAN has no
                # controller left; its tasks get moved at attempt time
                controller.receive_execution_request(table.application)
            pending[0] -= 1
            if pending[0] == 0:
                self.spans.close(fanout_span, source=self._src)
                done.succeed(hosts_involved)

        for host_name in hosts_involved:
            # two LAN hops: SM -> GM -> AC
            self.sim.call_after(
                2 * self.lan_latency_s,
                lambda h=host_name: deliver_to_controller(h),
            )
        return done

    # -- post-execution refinement (paper §4.1) -------------------------------------

    def record_completed_execution(
        self, task_type: str, host: str, expected_s: float, measured_s: float
    ) -> None:
        """Update the task-performance DB after an application completes."""
        self.repository.task_perf.record_execution(
            task_type, host, expected_s=expected_s, measured_s=measured_s
        )
        self.stats.taskperf_updates += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.TASKPERF_UPDATE, source=self._src,
                task_type=task_type, host=host,
                expected_s=expected_s, measured_s=measured_s,
            )

    # -- inter-site coordination (scheduler support) ----------------------------------

    def handle_bid_request(
        self, task_types: Iterable[str], model: PredictionModel
    ) -> SiteBid:
        """Answer a peer's scheduling request (the remote-site role of
        Fig. 2 steps 4-5): this site's bid sheets for the task types of
        the multicast AFG, for the local site to assign from.

        Called by a peer Site Manager; the caller charges WAN latency
        and counts the messages.
        """
        if not self.alive:
            raise ManagerUnavailable(self.name)
        if self.occupancy >= _BID_EXCLUSION_OCCUPANCY:
            # backpressure: a saturated site excludes itself from bidding
            # instead of attracting work it cannot serve
            raise SiteOverloaded(self.name, self.occupancy)
        return site_bid(self.repository, task_types, model)

    # -- rescheduling support --------------------------------------------------------

    def reselect_host(
        self,
        afg: ApplicationFlowGraph,
        task_id: str,
        exclude_hosts: frozenset,
        model: Optional[PredictionModel] = None,
    ) -> Optional[HostSelectionResult]:
        """Pick a replacement placement for one task at this site.

        Used by the Application Controller's rescheduling path; returns
        None when this site has no feasible alternative.
        """
        if not self.alive:
            return None  # a crashed site never bids
        health_of = self.health.selection_hook

        def masked(host_name: str) -> Optional[float]:
            # health first, excluded or not: factor_of releases an
            # expired quarantine (PROBATION) on whichever host it sees
            factor = 1.0 if health_of is None else health_of(host_name)
            return None if host_name in exclude_hosts else factor

        return bid_for_task(
            afg.task(task_id), self.repository, model or PredictionModel(),
            {}, masked,
        )
