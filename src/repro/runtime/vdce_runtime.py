"""VDCERuntime: one whole VDCE deployment, wired and running.

Composes, for a given :class:`~repro.sim.topology.Topology`:

* a :class:`~repro.repository.store.SiteRepository` per site
  (bootstrapped if not supplied),
* a :class:`~repro.runtime.site_manager.SiteManager` per site, with a
  :class:`~repro.runtime.group_manager.GroupManager` per group, a
  :class:`~repro.runtime.monitor.MonitorDaemon` and an
  :class:`~repro.runtime.app_controller.AppController` per host,
* the shared services (I/O, console) and statistics.

It also provides the *distributed scheduling* wrapper of paper §3: the
pure :class:`~repro.scheduler.site_scheduler.SiteScheduler` already
computes placements; :meth:`schedule_process` reproduces the message
exchange around it (AFG multicast to the k nearest sites, bid replies)
as real simulated transfers, so scheduling overhead is measurable
(experiment E11).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, NamedTuple, Optional

from repro.afg.graph import ApplicationFlowGraph
from repro.errors import refuse_non_finite
from repro.metrics.registry import MetricsRegistry, NULL_METRICS
from repro.net.rpc import (
    NULL_BREAKERS,
    BreakerRegistry,
    ControlPlane,
    RpcTimeout,
)
from repro.obs.spans import NULL_SPANS, SpanContext, SpanKind, SpanRecorder
from repro.runtime.overload import NULL_BROWNOUT, BrownoutController, SiteOverloaded
from repro.repository.store import SiteRepository
from repro.runtime.app_controller import AppController, LoadCheckCalendar
from repro.runtime.execution import ApplicationResult, ExecutionCoordinator
from repro.runtime.group_manager import GroupManager
from repro.runtime.integrity import NULL_INTEGRITY, IntegrityManager
from repro.runtime.membership import MembershipCoordinator
from repro.runtime.monitor import MonitorDaemon, MonitorRound
from repro.runtime.services import ConsoleService, IOService
from repro.runtime.site_manager import SiteManager
from repro.runtime.stats import RuntimeStats
from repro.runtime.straggler import (
    NULL_HEALTH,
    HostHealth,
    RatioTracker,
    SpeculationPolicy,
)
from repro.scheduler.allocation import AllocationTable
from repro.scheduler.federation import FederationView
from repro.scheduler.host_selection import SiteBid, site_bid
from repro.scheduler.prediction import PredictionModel
from repro.scheduler.site_scheduler import SiteScheduler
from repro.sim.kernel import AllOf, AnyOf, Simulator, Timeout
from repro.sim.topology import Topology
from repro.tasklib.registry import TaskRegistry, default_registry
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["RuntimeConfig", "VDCERuntime"]

#: approximate wire size of one task-type entry of a scheduling
#: request, MB
_REQUEST_ENTRY_MB = 0.0005
#: approximate wire size of one prediction row of a bid reply, MB
_BID_ROW_MB = 0.0002
#: how long the site scheduler waits for remote bids before
#: proceeding with whichever of the k sites answered (Fig. 2 step 5)
_BID_DEADLINE_S = 6.0


def _reply_mb(bid: SiteBid) -> float:
    """Wire size of a bid reply: its rows (an empty one still costs one)."""
    return _BID_ROW_MB * max(1, bid.rows)


class _BidRound(NamedTuple):
    """What every exchange of one Fig. 2 round shares."""

    application: str
    #: trace/span source of the local Site Manager
    source: str
    #: the round's ``schedule`` span
    span: SpanContext
    task_types: List[str]
    model: PredictionModel
    request_mb: float
    #: VDCE Server host of the local site, and of every site in the round
    local_server: str
    servers: Dict[str, str]
    #: per remote, the believed time on the wire of one request and its
    #: reply — expected to be the size of this site's own
    wire_s: Dict[str, float]


@dataclass(frozen=True)
class RuntimeConfig:
    """Deployment-wide runtime parameters (the paper's tunables)."""

    #: Monitor daemon measurement period (paper: "periodically measures")
    monitor_period_s: float = 2.0
    #: Group Manager significant-change threshold on run-queue length
    change_threshold: float = 0.25
    #: Group Manager echo-packet period
    echo_period_s: float = 5.0
    #: probability that a single echo round trip is lost (lossy LAN)
    echo_loss_prob: float = 0.0
    #: consecutive missed echoes before a host is declared down
    suspicion_threshold: int = 1
    #: Application Controller load threshold for task rescheduling
    load_threshold: float = 4.0
    #: Application Controller check period
    check_period_s: float = 2.0
    #: failure-detection discipline: "count" (consecutive missed echoes,
    #: the paper's protocol) or "phi" (phi-accrual over inter-arrival
    #: history — SUSPECT/TRUST transitions, slow != dead)
    detector: str = "count"
    #: speculative re-execution of straggling tasks (None = disabled:
    #: fault-free runs draw zero extra RNG, traces unchanged)
    speculation: Optional[SpeculationPolicy] = None
    #: host health scoring + quarantine
    health: bool = False
    #: causal span tracing (repro.obs): tree-structured open/close span
    #: events threaded through RPC, admission, scheduling and execution.
    #: Off by default — the disabled recorder is a shared null object and
    #: fault-free traces/hashes are byte-identical either way.
    causal_spans: bool = False
    #: backpressure + brownout ladder (off: no occupancy bookkeeping,
    #: no bid exclusion)
    overload: bool = False
    #: per-WAN-link RPC circuit breakers
    breaker: bool = False
    #: end-to-end data integrity: content-hash every produced artifact,
    #: verify on receive/stage-in, repair via refetch → lineage
    #: regeneration → poison-quarantine (off: no hashes are computed, no
    #: extra RNG is drawn, traces/hashes unchanged)
    data_integrity: bool = False

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if self.monitor_period_s <= 0 or self.echo_period_s <= 0:
            raise ValueError("periods must be positive")
        if self.change_threshold < 0:
            raise ValueError("change_threshold must be non-negative")
        if not (0.0 <= self.echo_loss_prob < 1.0):
            raise ValueError("echo_loss_prob must be in [0, 1)")
        if self.suspicion_threshold < 1:
            raise ValueError("suspicion_threshold must be >= 1")
        if self.load_threshold <= 0 or self.check_period_s <= 0:
            raise ValueError("load_threshold/check_period_s must be positive")
        if self.detector not in ("count", "phi"):
            raise ValueError(
                f"detector must be 'count' or 'phi', got {self.detector!r}"
            )


class VDCERuntime:
    """All control- and data-plane components of one deployment."""

    def __init__(
        self,
        topology: Topology,
        repositories: Optional[Mapping[str, SiteRepository]] = None,
        registry: Optional[TaskRegistry] = None,
        config: RuntimeConfig = RuntimeConfig(),
        model: Optional[PredictionModel] = None,
        default_site: Optional[str] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        self.topology = topology
        self.sim: Simulator = topology.sim
        self.registry = registry or default_registry()
        self.config = config
        self.model = model or PredictionModel()
        self.stats = RuntimeStats()
        #: shared metrics registry (no-op by default); it folds what the
        #: emitter below emits, direct writers use ``self.sim.metrics``
        self.metrics = self.sim.attach_metrics(metrics)
        #: the one emitter handed to every component below (see
        #: ``Simulator.attach_tracer``)
        self.tracer = self.sim.attach_tracer(tracer)
        self.default_site = default_site or topology.site_names[0]
        #: causal span recorder (repro.obs); the shared null object
        #: unless causal_spans is on and the tracer records
        self.spans = (
            SpanRecorder(self.tracer)
            if config.causal_spans and self.tracer.records
            else NULL_SPANS
        )
        #: federation brownout controller; NULL_BROWNOUT when overload is off
        self.brownout = (
            BrownoutController(self.sim, tracer=self.tracer)
            if config.overload
            else NULL_BROWNOUT
        )
        #: per-WAN-link circuit breakers; NULL_BREAKERS when disabled
        self.breakers = (
            BreakerRegistry(self.sim, tracer=self.tracer)
            if config.breaker
            else NULL_BREAKERS
        )
        #: admission queues register themselves here so metrics export
        #: can surface their depth/occupancy gauges
        self.admission_queues: List = []
        #: retrying control-plane messaging shared by every component,
        #: under the default RetryPolicy (scheduling, allocation, channel
        #: signalling, failure reports)
        self.control = ControlPlane(
            self.sim, topology.network, stats=self.stats,
            tracer=self.tracer, spans=self.spans, breakers=self.breakers,
        )
        #: host health scoring (straggler defense); NULL_HEALTH when off
        self.health = (
            HostHealth(self.sim, tracer=self.tracer)
            if config.health
            else NULL_HEALTH
        )
        #: per-host measured/predicted ratio history for the adaptive
        #: speculation trigger; None when speculation is disabled
        self.ratio_tracker: Optional[RatioTracker] = (
            RatioTracker()
            if config.speculation is not None
            else None
        )

        if repositories is None:
            repositories = {
                name: SiteRepository.bootstrap(site, self.registry)
                for name, site in topology.sites.items()
            }
        self.repositories: Dict[str, SiteRepository] = dict(repositories)

        self._monitoring_started = False
        self._build_sites()
        self._build_services()

    def _build_sites(self) -> None:
        """The Fig. 4 hierarchy: per site a Site Manager, per group a
        Group Manager, per host a Monitor daemon and an Application
        Controller — and the membership driver that changes it later."""
        self.site_managers: Dict[str, SiteManager] = {}
        self.group_managers: Dict[str, GroupManager] = {}
        self.monitors: Dict[str, MonitorDaemon] = {}
        self.app_controllers: Dict[str, AppController] = {}
        #: one calendar of armed load checks for every controller, so
        #: checks due in the same instant fire oldest slice first
        self.load_checks = LoadCheckCalendar(self.sim)
        for site in self.topology.sites.values():
            self._build_site(site)
        #: elastic membership driver (DESIGN §17): host join / graceful
        #: drain / decommission / rejoin at runtime.  Pure bookkeeping
        #: until a transition is requested — fault-free runs unchanged.
        self.membership = MembershipCoordinator(self)
        for manager in self.site_managers.values():
            manager.membership = self.membership

    def _build_services(self) -> None:
        """The data-plane services shared by every application."""
        config = self.config
        #: end-to-end data integrity (artifact hashes + repair ladder),
        #: chosen once: NULL_INTEGRITY hashes and repairs nothing
        self.integrity = (
            IntegrityManager(self.sim)
            if config.data_integrity
            else NULL_INTEGRITY
        )
        self.io_service = IOService(
            self.sim, self.topology.network, self.stats, tracer=self.tracer,
            integrity=self.integrity,
        )
        self.console = ConsoleService(self.sim)

    def _build_site(self, site) -> None:
        """One site's Site Manager, its Group Managers and their hosts."""
        lan_link = self.topology.network.lan_link(site.name)
        manager = self.site_managers[site.name] = SiteManager(
            self.sim, site, self.repositories[site.name], self.stats,
            lan_latency_s=lan_link.spec.latency_s,
            tracer=self.tracer,
            health=self.health,
            spans=self.spans,
            brownout=self.brownout,
        )
        for group in site.groups.values():
            gm = GroupManager(
                self.sim, group, manager, self.stats, self.config,
                lan_link=lan_link,
                tracer=self.tracer,
                control=self.control,
                health=self.health,
                spans=self.spans,
            )
            manager.attach_group_manager(gm)
            self.group_managers[gm.name] = gm
            for host in group:
                self.attach_host(gm, host)

    def attach_host(self, gm: GroupManager, host) -> None:
        """Per-host wiring: a Monitor daemon reporting to ``gm`` and an
        Application Controller, at deployment and at every (re)join."""
        config = self.config
        monitor = self.monitors[host.name] = MonitorDaemon(
            self.sim, host, gm, self.stats,
            period_s=config.monitor_period_s,
            lan_latency_s=gm.lan_latency_s,
            tracer=self.tracer,
        )
        controller = self.app_controllers[host.name] = AppController(
            self.sim, host, self.stats,
            load_threshold=config.load_threshold,
            check_period_s=config.check_period_s,
            tracer=self.tracer,
            checks=self.load_checks,
        )
        gm.site_manager.attach_app_controller(controller)
        if self._monitoring_started:
            monitor.start()

    # -- control plane ------------------------------------------------------

    def start_monitoring(self) -> None:
        """Start every Monitor daemon and Group Manager echo loop."""
        if self._monitoring_started:
            raise RuntimeError("monitoring already started")
        self._monitoring_started = True
        MonitorRound(self.sim, self.monitors.values())
        for gm in self.group_managers.values():
            gm.start_echo()

    # -- metrics ------------------------------------------------------------

    def export_metrics(self) -> MetricsRegistry:
        """Sync the registry with everything known at export time.

        Folds the :class:`~repro.runtime.stats.RuntimeStats` counters
        into registry counters (one source of truth for ``vdce
        metrics`` and the E5–E8 assertions) and the Group Managers'
        report / suppress / echo counts (an elided report or quiet echo
        has no event to fold), sets the kernel gauges (virtual time,
        event rate) and the monitoring suppression ratio, then returns
        the registry.  Safe to call repeatedly; a no-op on the disabled
        registry.
        """
        if self.metrics.enabled:
            self.stats.export_to(self.metrics)
            self.sim.export_metrics()
            for gm in self.group_managers.values():
                for host, (n,) in gm.reports.items():
                    if n:
                        self.metrics.counter(
                            "vdce_monitor_reports_by_host_total",
                            "monitor measurements taken, per host",
                        ).set_total(float(n), host=host)
                if gm.suppressed:
                    self.metrics.counter(
                        "vdce_workload_suppressed_by_group_total",
                        "measurements filtered by the significant-change test",
                    ).set_total(float(gm.suppressed), group=gm.name)
                if gm.echoes:
                    self.metrics.counter(
                        "vdce_echo_packets_by_group_total",
                        "echo round trips attempted, per group",
                    ).set_total(float(gm.echoes), group=gm.name)
            reports = self.stats.workload_forwards + self.stats.workload_suppressed
            self.metrics.gauge(
                "vdce_workload_suppression_ratio",
                "share of monitor measurements the Group Managers filtered",
            ).set(
                self.stats.workload_suppressed / reports if reports else 0.0
            )
            if self.admission_queues:
                queued = self.metrics.gauge(
                    "vdce_admission_queued",
                    "applications waiting in the admission queue",
                )
                running = self.metrics.gauge(
                    "vdce_admission_running",
                    "applications admitted and currently executing",
                )
                for queue in self.admission_queues:
                    queued.set(float(queue.queued), site=queue.site)
                    running.set(float(queue.running), site=queue.site)
        return self.metrics

    def neighbor_order(self, site_name: str) -> List[str]:
        return self.topology.neighbor_sites(site_name)

    def federation_view(self, local_site: Optional[str] = None) -> FederationView:
        """The local site's view of the federation.

        Sites whose Site Manager is crashed are excluded: a dead VDCE
        Server answers no bids and takes no allocations, so it must not
        attract placements until it re-registers.
        """
        view = FederationView.from_topology(
            self.topology, self.repositories, local_site or self.default_site
        )
        dead = {
            name for name, sm in self.site_managers.items() if not sm.alive
        }
        if dead:
            view = view.restricted(
                {s for s in self.topology.site_names if s not in dead}
            )
        return view

    # -- distributed scheduling (messages + pure placement) -----------------------

    def schedule_process(
        self,
        afg: ApplicationFlowGraph,
        scheduler: Optional[SiteScheduler] = None,
        local_site: Optional[str] = None,
    ):
        """Generator process: distributed scheduling with real messages.

        Returns ``(table, scheduling_time_s)``.  Reproduces Fig. 2
        steps 2-5 as traffic through the retrying control plane: the
        request multicast to the k nearest neighbour sites names the
        AFG's task types (one entry per type, whatever the task count),
        each site returns its bid sheets for them
        (:class:`~repro.scheduler.host_selection.SiteBid`, one row per
        type and up host), and placement runs on the local repository
        and on what came back — never on a remote repository.  Sites
        that do not answer in time — the link is down, or every retry
        was lost — are simply left out: placement proceeds with the
        subset that answered, degrading to local-only scheduling under
        a full partition.
        """
        scheduler = scheduler or SiteScheduler(k=2, model=self.model)
        local_site = local_site or self.default_site
        source = f"sm:{local_site}"
        started = self.sim.now
        sched_span = self.spans.open(
            SpanKind.SCHEDULE, afg.name,
            parent=self.spans.root_of(afg.name, source=source),
            source=source, site=local_site,
        )
        view = self.federation_view(local_site)
        remotes = view.remote_sites(scheduler.k)

        # steps 2-4: size the messages, one exchange per remote site
        bid_round = self._size_messages(
            afg, scheduler.model, view, remotes, source, sched_span
        )
        procs = [
            self.sim.process(
                self._bid_exchange(bid_round, r), name=f"sched-xchg:{r}"
            )
            for r in remotes
        ]
        if procs:
            # step 5 with a deadline: wait for every exchange, but never
            # longer than the bid deadline — late answers are dropped.
            yield AnyOf([AllOf(procs), Timeout(
                _BID_DEADLINE_S + max(bid_round.wire_s.values())
            )])
        replies = [p.value for p in procs if p.triggered and p.value is not None]

        # placement itself (pure), on the local repository and the bids
        # that came back; its wall cost is negligible vs messages
        table = scheduler.schedule(
            afg, view.answered(replies), tracer=self.tracer,
            health_of=self.health.selection_hook,
        )
        sites_bid = self.stats.sites_bid[afg.name] = 1 + len(replies)
        sites_used = self.stats.sites_used[afg.name] = len(table.sites_used())
        self.spans.close(
            sched_span, source=source,
            sites_answered=len(replies), sites_bid=sites_bid,
            sites_used=sites_used, tasks=len(table),
        )
        if self.metrics.enabled:
            self.metrics.histogram(
                "vdce_schedule_seconds",
                "distributed scheduling time (multicast + bids + placement)",
                buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
            ).observe(self.sim.now - started)
        return table, self.sim.now - started

    def _size_messages(self, afg, model, view, remotes, source, span) -> _BidRound:
        """Fig. 2 step 2: what goes on the wire this round, and for how long.

        A large message is slow, not lost: each attempt's deadline is
        the control plane's ``policy.timeout_s`` plus the believed wire
        time of the request and the expected reply (this site's own
        reply to the same request), and step 5 waits ``_BID_DEADLINE_S``
        plus the largest such estimate.
        """
        local_site = view.local_site
        task_types = sorted({task.task_type for task in afg})
        request_mb = _REQUEST_ENTRY_MB * max(1, len(task_types))
        servers = {
            site: self.topology.site(site).server_host.name
            for site in (local_site, *remotes)
        }
        local_server = servers[local_site]
        wire_s: Dict[str, float] = {}
        if remotes:
            reply_mb = _reply_mb(
                site_bid(view.local_repository(), task_types, model)
            )
            estimate = self.topology.network.transfer_time_estimate
            wire_s = {
                remote: estimate(local_server, servers[remote], request_mb)
                + estimate(servers[remote], local_server, reply_mb)
                for remote in remotes
            }
        return _BidRound(
            afg.name, source, span, task_types, model, request_mb,
            local_server, servers, wire_s,
        )

    def _bid_exchange(self, bid_round: _BidRound, remote: str):
        """Fig. 2 steps 3-4 with one remote site; value = its bid, or None
        when the site is saturated (it declined to bid) or unreachable —
        not a failure: placement proceeds with whoever answered."""
        started = self.sim.now
        application, source = bid_round.application, bid_round.source
        tracer = self.tracer
        bid_span = self.spans.open(
            SpanKind.BID_EXCHANGE, application, parent=bid_round.span,
            source=source, remote=remote,
        )

        def on_send(attempt: int) -> None:
            # step 3: multicast the request (once per attempt on the wire)
            self.stats.scheduler_messages += 1
            tracer.emit(
                EventKind.AFG_MULTICAST, source=source,
                application=application, remote=remote,
                size_mb=bid_round.request_mb, attempt=attempt,
            )

        def on_reply(attempt: int) -> None:
            self.stats.scheduler_messages += 1

        def handle() -> SiteBid:
            # step 4 at the remote site: its bid sheets, as of now
            bid = self.site_managers[remote].handle_bid_request(
                bid_round.task_types, bid_round.model
            )
            tracer.emit(
                EventKind.BID_REPLY, source=f"sm:{remote}",
                application=application, task_types=len(bid.sheets),
                rows=bid.rows, version=bid.version_key,
            )
            return bid

        rpc_policy = self.control.policy
        status = None
        try:
            bid = yield from self.control.request(
                bid_round.local_server, bid_round.servers[remote], handle,
                payload_mb=bid_round.request_mb, reply_mb=_reply_mb,
                label=f"sched:{application}:{remote}",
                policy=replace(
                    rpc_policy,
                    timeout_s=rpc_policy.timeout_s + bid_round.wire_s[remote],
                ),
                on_send=on_send, on_reply=on_reply,
                span=bid_span,
            )
        except SiteOverloaded as exc:
            # backpressure: the saturated site declined to bid
            status = "overloaded"
            tracer.emit(
                EventKind.SITE_OVERLOADED, source=source,
                application=application, remote=remote,
                occupancy=round(exc.occupancy, 9),
            )
        except RpcTimeout:
            status = "unreachable"
            tracer.emit(
                EventKind.SITE_UNREACHABLE, source=source,
                application=application, remote=remote, phase="scheduling",
            )
        if status is not None:
            self.spans.close(bid_span, source=source, status=status)
            return None
        if self.metrics.enabled:
            self.metrics.histogram(
                "vdce_bid_latency_seconds",
                "AFG multicast -> bid reply round trip per remote site",
                buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
            ).observe(self.sim.now - started, site=remote)
        self.spans.close(bid_span, source=source, rows=bid.rows)
        return bid

    # -- execution -----------------------------------------------------------------

    def execute_process(
        self,
        afg: ApplicationFlowGraph,
        table: AllocationTable,
        submit_site: Optional[str] = None,
        execute_payloads: bool = True,
        journal=None,
        checkpoint=None,
    ):
        """Spawn the execution coordinator; process value = ApplicationResult.

        ``journal`` (a :class:`~repro.runtime.checkpoint.CheckpointJournal`)
        turns on durable checkpointing; ``checkpoint`` (a parsed
        :class:`~repro.runtime.checkpoint.ApplicationCheckpoint`) makes
        this a resume that re-executes only the incomplete frontier.
        """
        coordinator = ExecutionCoordinator(
            self,
            afg,
            table,
            execute_payloads=execute_payloads,
            submit_site=submit_site or self.default_site,
            journal=journal,
            checkpoint=checkpoint,
        )
        return coordinator.start()

    def run_process(
        self,
        afg: ApplicationFlowGraph,
        scheduler: Optional[SiteScheduler] = None,
        site: Optional[str] = None,
        execute_payloads: bool = True,
        journal=None,
    ):
        """Generator: the submit pipeline — schedule at ``site``, then
        execute from it; returns the ApplicationResult."""
        table, _sched_time = yield from self.schedule_process(
            afg, scheduler, local_site=site
        )
        result = yield self.execute_process(
            afg, table, submit_site=site,
            execute_payloads=execute_payloads, journal=journal,
        )
        return result

    def submit(
        self,
        afg: ApplicationFlowGraph,
        scheduler: Optional[SiteScheduler] = None,
        submit_site: Optional[str] = None,
        user: Optional[str] = None,
        password: Optional[str] = None,
        execute_payloads: bool = True,
        limit: Optional[float] = None,
        journal=None,
    ) -> ApplicationResult:
        """Convenience one-shot: authenticate, schedule, execute, return.

        Drives the simulator until the application completes.  When
        credentials are given they are checked against the submitting
        site's user-accounts database (paper §2: "After user
        authentication, the Application Editor is loaded ...").  A
        ``journal`` checkpoints the execution (:meth:`run_process`).
        """
        site = submit_site or self.default_site
        if user is not None:
            self.repositories[site].users.authenticate(user, password or "")
        proc = self.sim.process(
            self.run_process(afg, scheduler, site, execute_payloads, journal),
            name=f"submit:{afg.name}",
        )
        return self.sim.run_until_complete(proc, limit=limit)
