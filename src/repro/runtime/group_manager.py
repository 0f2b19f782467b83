"""Group Managers — one per group-leader machine (paper §4.1, Fig. 4).

Two responsibilities, both verbatim from the paper:

* *Significant-change filtering*: "The Group Manager sends to the Site
  Manager only the workloads of the resources that have changed
  considerably from the previous measurement."  ``change_threshold``
  quantifies "considerably" (absolute run-queue delta); E5 sweeps it.
* *Echo-packet failure detection*: "Another function of the Group
  Manager is to periodically check all hosts in the group by sending
  echo packets to hosts and waiting for their responses.  When a
  failure of a host is detected, the Group Manager passes this
  information to the Site Manager."  Recovery detection (a previously
  down host answering again) is the natural complement and is needed
  for any long-running deployment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.spans import NULL_SPAN, NULL_SPANS, SpanKind, SpanRecorder
from repro.runtime.monitor import Measurement
from repro.runtime.stats import RuntimeStats
from repro.runtime.straggler import (
    NULL_HEALTH,
    CountEchoDetector,
    PhiEchoDetector,
)
from repro.sim.kernel import Process, Simulator, Timeout
from repro.sim.site import Group
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.rpc import ControlPlane
    from repro.runtime.site_manager import SiteManager
    from repro.runtime.vdce_runtime import RuntimeConfig

__all__ = ["GroupManager"]

#: health penalty added when the detector SUSPECTs the host
_SUSPECT_PENALTY = 0.5
#: health penalty added when the host is declared down
_FAILURE_PENALTY = 1.0


class GroupManager:
    """Filtering relay + failure detector for one host group."""

    def __init__(
        self,
        sim: Simulator,
        group: Group,
        site_manager: "SiteManager",
        stats: RuntimeStats,
        config: "RuntimeConfig",
        lan_link,
        control: "ControlPlane",
        tracer: Tracer = NULL_TRACER,
        health=NULL_HEALTH,
        spans: SpanRecorder = NULL_SPANS,
    ):
        """``config`` carries the monitoring tunables, already validated
        by ``RuntimeConfig``: the significant-change threshold, the echo
        period, ``echo_loss_prob`` (a lossy campus LAN: each echo round
        trip independently fails with this probability) and the
        failure-detection discipline — ``detector="count"`` is a
        :class:`~repro.runtime.straggler.CountEchoDetector`, ``"phi"`` a
        :class:`~repro.runtime.straggler.PhiEchoDetector`.

        Failure/recovery reports go to the Site Manager through
        ``control``'s retrying notification path over ``lan_link``, so a
        lossy or down LAN delays rather than drops them."""
        self.sim = sim
        self.group = group
        self.site_manager = site_manager
        self.stats = stats
        self.change_threshold = float(config.change_threshold)
        self.echo_period_s = float(config.echo_period_s)
        self.lan_latency_s = float(lan_link.spec.latency_s)
        self.echo_loss_prob = float(config.echo_loss_prob)
        self.tracer = tracer
        self._control = control
        self._lan_link = lan_link
        self.health = health
        self.spans = spans
        #: trace/span source of everything this manager emits
        self._src = f"gm:{group.name}"
        #: open failover span between crash and restart
        self._crash_span = NULL_SPAN
        #: last workload value forwarded upward, per host
        self._last_forwarded: Dict[str, float] = {}
        #: reports taken per host (one cell, shared by every daemon the
        #: host has had) and suppresses in this group, elided ones
        #: included: ``VDCERuntime.export_metrics`` writes them
        self.reports: Dict[str, List[int]] = {}
        self.suppressed = 0
        #: per-host filter mark (a cell shared like ``reports``), moved by
        #: whatever can change a repeat's fate at delivery (DESIGN §13.9)
        self.filter_marks: Dict[str, List[int]] = {}
        #: what this Group Manager believes about host liveness
        self._believed_up: Dict[str, bool] = {h.name: True for h in group}
        #: the failure-detection discipline and its per-host state
        self._detector = (
            PhiEchoDetector(self.echo_period_s, self._believed_up)
            if config.detector == "phi"
            else CountEchoDetector(config.suspicion_threshold, self._believed_up)
        )
        self._echo_process: Optional[Process] = None
        #: echoes sent (written at export) and quiet ones, not traced
        self.echoes = self.quiet_echoes = 0
        self.false_positives = 0
        #: False while the manager process is crashed (fault injection)
        self.alive = True
        #: host currently running the manager role after a failover
        self.deputy_host: Optional[str] = None
        #: completed deputy promotions for this group
        self.failovers = 0
        #: bumped on crash/promotion; stale echo loops notice and exit
        self._generation = 0
        self._failover_pending = False

    @property
    def name(self) -> str:
        return self.group.name

    @property
    def host_names(self):
        """The hosts this manager owns (the no-orphaned-group check)."""
        return frozenset(h.name for h in self.group)

    # -- elastic membership (issue 10) -------------------------------------

    def admit_host(self, host) -> None:
        """Start tracking a newly joined (or rejoined) group member.

        The :class:`~repro.sim.site.Group` roster itself is mutated by
        the topology layer; this initialises the manager's beliefs for
        the host — trusted, no missed echoes, fresh detector history.
        """
        self._believed_up[host.name] = True
        self._detector.reset(host.name)
        self._bump(host.name)

    def retire_host(self, name: str) -> None:
        """Forget a departed member: beliefs, suspicion, filter state."""
        self._believed_up.pop(name, None)
        self._detector.retire(name)
        self._last_forwarded.pop(name, None)
        self._bump(name)

    # -- crash / failover (control-plane fault model) ----------------------

    def crash(self) -> None:
        """The manager process dies: echo and filtering stop cold.

        The echo loop is not interrupted — it notices the generation
        bump at its next tick and exits without acting, so no kernel
        process dies unobserved.  Detection falls to the group's
        Monitor daemons, which call :meth:`request_failover` when they
        find the manager gone.
        """
        if not self.alive:
            return
        self.alive = False
        self._generation += 1
        self._bump(*self.filter_marks)
        self._failover_pending = False
        self.tracer.emit(
            EventKind.MANAGER_CRASH, source=self._src, role="group_manager",
        )
        # manager-scoped span (no owning application): the window from
        # crash to restart during which the group is headless
        self._crash_span = self.spans.open(
            SpanKind.FAILOVER, "", source=self._src, group=self.name,
        )

    def recover(self) -> None:
        """The original manager process comes back (no deputy needed)."""
        if self.alive:
            return
        self._restart(deputy=None, kind=EventKind.MANAGER_RECOVER)

    def request_failover(self, reporter_host) -> None:
        """A Monitor daemon found the manager dead; elect a deputy.

        Every live monitor in the group calls this at its next tick;
        the first call wins and runs the election: the lowest-load live
        host in the group (ties broken by name — deterministic) is
        promoted deputy after one LAN latency.  The deputy rebuilds its
        believed-up state from the site repository and the next echo
        round.
        """
        if self.alive or self._failover_pending:
            return
        candidates = sorted(
            (h.load_average(), h.name) for h in self.group if h.is_up()
        )
        if not candidates:
            return  # nobody left to promote; retried at the next tick
        self._failover_pending = True
        deputy = candidates[0][1]
        self.sim.call_after(
            self.lan_latency_s,
            lambda: self._restart(deputy=deputy, kind=EventKind.FAILOVER),
        )

    def _restart(self, deputy: Optional[str], kind: str) -> None:
        if self.alive:
            return  # a recovery raced the election; first one wins
        self.alive = True
        self._failover_pending = False
        self.deputy_host = deputy
        self._generation += 1
        # Belief is rebuilt from the site repository (the durable best
        # knowledge) and refined by the next echo round: a host that
        # recovered while the manager was down answers its next echo
        # and triggers the usual recovery notification.
        repo = self.site_manager.repository
        for host_name in self._believed_up:
            if repo.resources.has_host(host_name):
                self._believed_up[host_name] = repo.resources.get(host_name).up
            else:
                self._believed_up[host_name] = True
            self._detector.reset(host_name)
        self._last_forwarded.clear()
        self._bump(*self.filter_marks)
        if kind == EventKind.FAILOVER:
            self.failovers += 1
            self.stats.failovers += 1
        self.tracer.emit(
            kind, source=self._src, role="group_manager", deputy=deputy,
        )
        self.spans.close(
            self._crash_span, source=self._src,
            status="failover" if kind == EventKind.FAILOVER else "recover",
            deputy=deputy,
        )
        if self._echo_process is not None:
            # monitoring was running before the crash: resume the echo
            # protocol under the new generation
            self._echo_process = self.sim.process(
                self._echo_loop(self._generation), name=f"echo:{self.name}"
            )

    # -- workload path ----------------------------------------------------

    def _bump(self, *names: str) -> None:
        """Move the filter marks of ``names``: a repeat read under the
        old mark may no longer be suppressed.  The site's belief mark
        moves too, so hosts found fit for a placement are checked again."""
        self.site_manager.belief_mark += 1
        for name in names:
            self.filter_marks.setdefault(name, [0])[0] += 1

    def suppresses(self, host: str, load: float) -> bool:
        """Fig. 4's test: has ``load`` not changed considerably from the
        last load forwarded for ``host``?  (Never for a first report.)"""
        last = self._last_forwarded.get(host)
        return last is not None and abs(load - last) < self.change_threshold

    def receive_measurement(self, measurement: Measurement) -> None:
        """Monitor daemon delivery; forward only significant changes."""
        if not self.alive:
            return  # a dead manager drops reports on the floor
        if measurement.host not in self._believed_up:
            return  # in-flight report from a host retired meanwhile
        if self.suppresses(measurement.host, measurement.load):
            self.stats.workload_suppressed += 1
            self.suppressed += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.WORKLOAD_SUPPRESS, source=self._src,
                    host=measurement.host, load=measurement.load,
                    last=self._last_forwarded[measurement.host],
                )
            return
        self._last_forwarded[measurement.host] = measurement.load
        self._bump(measurement.host)
        self.stats.workload_forwards += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.WORKLOAD_FORWARD, source=self._src,
                host=measurement.host, load=measurement.load,
            )
        self.sim.call_after(
            self.lan_latency_s,
            lambda: self.site_manager.receive_workload(measurement),
        )

    def receive_repeat(self, host: str, reading: Tuple[float, int]) -> None:
        """An elided report's delivery (DESIGN §13.9): a suppress is
        counted, not emitted; anything else — a dead manager, a retired
        host, a filter reset since the tick — takes the full path."""
        if (self.alive and host in self._believed_up
                and self.suppresses(host, reading[0])):
            self.stats.workload_suppressed += 1
            self.suppressed += 1
        else:
            self.receive_measurement(Measurement(host, *reading))

    # -- echo / failure detection ----------------------------------------------

    def start_echo(self) -> Process:
        if self._echo_process is not None and self._echo_process.alive:
            raise RuntimeError(f"echo process for group {self.name} already running")
        self._echo_process = self.sim.process(
            self._echo_loop(self._generation), name=f"echo:{self.name}"
        )
        return self._echo_process

    def _echo_loop(self, generation: int):
        rng = None  # echo:{gm}, taken on the first lossy echo
        quiet = self._detector.quiet
        while True:
            yield Timeout(self.echo_period_s)
            if generation != self._generation:
                return  # crashed (or failed over) since our last tick
            # one aggregate bump per round, here and per group
            self.stats.echo_packets += len(self.group)
            self.echoes += len(self.group)
            for host in self.group:
                # an echo round trip on the LAN; the response reflects the
                # host's state when the packet arrives, and may be lost
                responded = host.is_up()
                if responded and self.echo_loss_prob > 0.0:
                    if rng is None:
                        rng = self.sim.rng(f"echo:{self.name}")
                    if float(rng.uniform()) < self.echo_loss_prob:
                        responded = False  # packet lost, host fine
                # two LAN hops, stretched by slowdown: slow, not dead
                rtt_s = 2.0 * self.lan_latency_s * max(1.0, host.slowdown)
                if responded and quiet(host.name, rtt_s):
                    self.quiet_echoes += 1  # changes nothing: no round
                else:
                    self._echo_round(host, responded, rtt_s)
            # backpressure input (a no-op with overload off)
            self.site_manager.brownout.observe_round(self)

    def _echo_round(self, host, responded: bool, rtt_s: float) -> None:
        """Read one echo through the detector and act on its verdict."""
        verdict = self._detector.round(
            host.name, responded, rtt_s, self.sim.now,
            self._believed_up[host.name],
        )
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.ECHO, source=self._src, host=host.name,
                responded=verdict.responded, **verdict.echo,
            )
        change = verdict.transition
        if change == "down" or change == "up":
            self._declare(host, change == "up", **verdict.evidence)
        elif change is not None:
            self.tracer.emit(
                EventKind.SUSPECT if change == "suspect" else EventKind.TRUST,
                source=self._src, host=host.name, **verdict.evidence,
            )
        if verdict.penalty is not None:
            self.health.penalize(
                host.name,
                _FAILURE_PENALTY if change == "down" else _SUSPECT_PENALTY,
                verdict.penalty, origin=self._src,
            )

    def _declare(self, host, up: bool, **evidence) -> None:
        """Flip the belief about ``host`` and tell the Site Manager."""
        name = host.name
        self._believed_up[name] = up
        self._bump(name)
        if up:
            self.stats.recovery_notifications += 1
            kind = EventKind.RECOVERY_NOTIFICATION
        else:
            false_positive = host.is_up()  # a lost or late echo, host fine
            if false_positive:
                self.false_positives += 1
            evidence = {"false_positive": false_positive, **evidence}
            self.stats.failure_notifications += 1
            kind = EventKind.FAILURE_NOTIFICATION
        self.stats.record_detection(self.sim.now, name, "up" if up else "down")
        self.tracer.emit(kind, source=self._src, host=name, **evidence)
        # over the LAN, retrying (and so loss-tolerant); a lossless,
        # healthy LAN delivers after exactly one latency
        receive = (
            self.site_manager.receive_recovery if up
            else self.site_manager.receive_failure
        )
        self._control.notify_lan(
            self._lan_link, lambda: receive(name), self.lan_latency_s,
            label=f"report:{self.name}",
        )

    def is_suspected(self, host_name: str) -> bool:
        """Is the host under (phi) suspicion — slow, but not declared dead?"""
        return self._detector.suspects(host_name)

    def believes_up(self, host_name: str) -> bool:
        # a host this manager does not track (departed, or never a
        # member) is simply not believed *down* — membership checks,
        # not liveness beliefs, keep placements off such hosts
        return self._believed_up.get(host_name, True)
