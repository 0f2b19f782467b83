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

from typing import TYPE_CHECKING, Dict, Optional

from repro.obs.spans import NULL_SPANS, SpanKind, SpanRecorder
from repro.runtime.monitor import Measurement
from repro.runtime.stats import RuntimeStats
from repro.runtime.straggler import HostHealth, PhiAccrualDetector
from repro.sim.kernel import Process, Simulator, Timeout
from repro.sim.site import Group
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.site_manager import SiteManager

__all__ = ["GroupManager"]


class GroupManager:
    """Filtering relay + failure detector for one host group."""

    def __init__(
        self,
        sim: Simulator,
        group: Group,
        site_manager: "SiteManager",
        stats: RuntimeStats,
        change_threshold: float = 0.25,
        echo_period_s: float = 5.0,
        lan_latency_s: float = 0.0005,
        echo_loss_prob: float = 0.0,
        suspicion_threshold: int = 1,
        tracer: Tracer = NULL_TRACER,
        control=None,
        lan_link=None,
        detector: str = "count",
        phi_suspect: float = 1.0,
        phi_down: float = 2.0,
        echo_timeout_s: Optional[float] = None,
        health: Optional[HostHealth] = None,
        spans: SpanRecorder = NULL_SPANS,
    ):
        """``echo_loss_prob`` models a lossy campus LAN: each echo round
        trip independently fails with this probability.  A host is only
        declared down after ``suspicion_threshold`` *consecutive* missed
        echoes — the standard guard against false positives (with the
        default of 1, behaviour is the paper's immediate declaration).

        ``detector`` picks the failure-detection discipline: ``"count"``
        is the consecutive-miss counter above; ``"phi"`` is a
        phi-accrual detector (:class:`~repro.runtime.straggler.
        PhiAccrualDetector`) over echo inter-arrival history, which
        SUSPECTs at ``phi_suspect`` and only declares down at
        ``phi_down`` — so a slowed host (whose echo round trip stretches
        with its :attr:`~repro.sim.host.Host.slowdown`) stays trusted
        instead of being treated as dead.  ``echo_timeout_s`` is the
        count detector's per-round response deadline (default: the echo
        period, i.e. any response within the round counts); the phi
        detector has no deadline — late arrivals simply enter the
        history.

        ``control`` (a :class:`~repro.net.rpc.ControlPlane`) and
        ``lan_link`` route failure/recovery reports through the retrying
        notification path, so a lossy or down LAN delays rather than
        drops them; without them, reports are plain delayed calls."""
        if change_threshold < 0:
            raise ValueError("change_threshold must be non-negative")
        if echo_period_s <= 0:
            raise ValueError("echo_period_s must be positive")
        if not (0.0 <= echo_loss_prob < 1.0):
            raise ValueError("echo_loss_prob must be in [0, 1)")
        if suspicion_threshold < 1:
            raise ValueError("suspicion_threshold must be >= 1")
        if detector not in ("count", "phi"):
            raise ValueError(f"detector must be 'count' or 'phi', got {detector!r}")
        if not (0.0 < phi_suspect < phi_down):
            raise ValueError("need 0 < phi_suspect < phi_down")
        if echo_timeout_s is not None and echo_timeout_s <= 0:
            raise ValueError("echo_timeout_s must be positive")
        self.sim = sim
        self.group = group
        self.site_manager = site_manager
        self.stats = stats
        self.change_threshold = float(change_threshold)
        self.echo_period_s = float(echo_period_s)
        self.lan_latency_s = float(lan_latency_s)
        self.echo_loss_prob = float(echo_loss_prob)
        self.suspicion_threshold = int(suspicion_threshold)
        self.tracer = tracer
        self._control = control
        self._lan_link = lan_link
        self.detector = detector
        self.phi_suspect = float(phi_suspect)
        self.phi_down = float(phi_down)
        self.echo_timeout_s = (
            float(echo_timeout_s) if echo_timeout_s is not None else None
        )
        self.health = health
        self.spans = spans
        #: open failover span between crash and restart (spans on only)
        self._crash_span = None
        #: last workload value forwarded upward, per host
        self._last_forwarded: Dict[str, float] = {}
        #: what this Group Manager believes about host liveness
        self._believed_up: Dict[str, bool] = {h.name: True for h in group}
        #: consecutive missed echoes per host
        self._missed: Dict[str, int] = {h.name: 0 for h in group}
        #: phi-accrual state, one detector per host (phi mode only)
        self._detectors: Dict[str, PhiAccrualDetector] = (
            {h.name: PhiAccrualDetector(self.echo_period_s) for h in group}
            if detector == "phi"
            else {}
        )
        #: hosts currently under suspicion (phi mode only)
        self._suspected: Dict[str, bool] = {h.name: False for h in group}
        self._echo_process: Optional[Process] = None
        #: pre-labelled counter handles for the measurement fast path,
        #: resolved lazily at first use: family registration order is
        #: part of the metrics snapshot
        self._suppressed_child = None
        self._forwards_child = None
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
        self._missed[host.name] = 0
        self._suspected[host.name] = False
        if self.detector == "phi":
            self._detectors[host.name] = PhiAccrualDetector(self.echo_period_s)

    def retire_host(self, name: str) -> None:
        """Forget a departed member: beliefs, suspicion, filter state."""
        self._believed_up.pop(name, None)
        self._missed.pop(name, None)
        self._suspected.pop(name, None)
        self._detectors.pop(name, None)
        self._last_forwarded.pop(name, None)

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
        self._failover_pending = False
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.MANAGER_CRASH, source=f"gm:{self.name}",
                role="group_manager",
            )
        if self.spans.enabled:
            # manager-scoped span (no owning application): the window
            # from crash to restart during which the group is headless
            self._crash_span = self.spans.open(
                SpanKind.FAILOVER, "", source=f"gm:{self.name}",
                group=self.name,
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
            self._missed[host_name] = 0
            self._suspected[host_name] = False
            if host_name in self._detectors:
                self._detectors[host_name].reset()
        self._last_forwarded.clear()
        if kind == EventKind.FAILOVER:
            self.failovers += 1
            self.stats.failovers += 1
            metrics = self.sim.metrics
            if metrics.enabled:
                metrics.counter(
                    "vdce_failovers_total",
                    "manager failovers completed (deputy promotions)",
                ).inc(group=self.name)
        if self.tracer.enabled:
            self.tracer.emit(
                kind, source=f"gm:{self.name}", role="group_manager",
                deputy=deputy,
            )
        if self._crash_span is not None:
            self.spans.close(
                self._crash_span, source=f"gm:{self.name}",
                status="failover" if kind == EventKind.FAILOVER else "recover",
                deputy=deputy,
            )
            self._crash_span = None
        if self._echo_process is not None:
            # monitoring was running before the crash: resume the echo
            # protocol under the new generation
            self._echo_process = self.sim.process(
                self._echo_loop(self._generation), name=f"echo:{self.name}"
            )

    # -- workload path ----------------------------------------------------

    def receive_measurement(self, measurement: Measurement) -> None:
        """Monitor daemon delivery; forward only significant changes.

        The first measurement for a host is always significant (the
        Site Manager has nothing yet).
        """
        if not self.alive:
            return  # a dead manager drops reports on the floor
        if measurement.host not in self._believed_up:
            return  # in-flight report from a host retired meanwhile
        metrics = self.sim.metrics
        last = self._last_forwarded.get(measurement.host)
        if last is not None and abs(measurement.load - last) < self.change_threshold:
            self.stats.workload_suppressed += 1
            if metrics.enabled:
                child = self._suppressed_child
                if child is None:
                    child = self._suppressed_child = metrics.counter(
                        "vdce_workload_suppressed_by_group_total",
                        "measurements filtered by the significant-change test",
                    ).child(group=self.name)
                child.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.WORKLOAD_SUPPRESS, source=f"gm:{self.name}",
                    host=measurement.host, load=measurement.load, last=last,
                )
            return
        self._last_forwarded[measurement.host] = measurement.load
        self.stats.workload_forwards += 1
        if metrics.enabled:
            child = self._forwards_child
            if child is None:
                child = self._forwards_child = metrics.counter(
                    "vdce_workload_forwards_by_group_total",
                    "significant measurements forwarded to the Site Manager",
                ).child(group=self.name)
            child.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.WORKLOAD_FORWARD, source=f"gm:{self.name}",
                host=measurement.host, load=measurement.load,
            )
        self.sim.call_after(
            self.lan_latency_s,
            lambda: self.site_manager.receive_workload(measurement),
        )

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
        echo_child = None
        while True:
            yield Timeout(self.echo_period_s)
            if generation != self._generation:
                return  # crashed (or failed over) since our last tick
            metrics = self.sim.metrics
            # one aggregate bump per round, not one per host: counters
            # are untimestamped, so the end-of-run snapshot is the same
            n = len(self.group)
            if n:
                self.stats.echo_packets += n
                if metrics.enabled:
                    if echo_child is None:
                        echo_child = metrics.counter(
                            "vdce_echo_packets_by_group_total",
                            "echo round trips attempted, per group",
                        ).child(group=self.name)
                    echo_child.inc(n)
            for host in self.group:
                # an echo round trip on the LAN; the response reflects the
                # host's state when the packet arrives, and may be lost
                responded = host.is_up()
                if responded and self.echo_loss_prob > 0.0:
                    if rng is None:
                        rng = self.sim.rng(f"echo:{self.name}")
                    if float(rng.uniform()) < self.echo_loss_prob:
                        responded = False  # packet lost, host fine
                if self.detector == "phi":
                    self._phi_round(host, responded)
                    continue
                if responded and self.echo_timeout_s is not None:
                    # count mode with a response deadline: a slowed
                    # host's stretched round trip counts as a miss —
                    # exactly the false positive the phi detector avoids
                    if self._echo_rtt(host) > self.echo_timeout_s:
                        responded = False
                if self.tracer.enabled:
                    self.tracer.emit(
                        EventKind.ECHO, source=f"gm:{self.name}",
                        host=host.name, responded=responded,
                    )
                believed = self._believed_up[host.name]
                if not responded:
                    self._missed[host.name] += 1
                else:
                    self._missed[host.name] = 0
                if believed and self._missed[host.name] >= self.suspicion_threshold:
                    self._believed_up[host.name] = False
                    if host.is_up():
                        self.false_positives += 1
                    self.stats.failure_notifications += 1
                    self.stats.record_detection(self.sim.now, host.name, "down")
                    if self.tracer.enabled:
                        self.tracer.emit(
                            EventKind.FAILURE_NOTIFICATION,
                            source=f"gm:{self.name}", host=host.name,
                            false_positive=host.is_up(),
                        )
                    self._send_report(
                        lambda h=host.name: self.site_manager.receive_failure(h)
                    )
                elif not believed and responded:
                    self._believed_up[host.name] = True
                    self.stats.recovery_notifications += 1
                    self.stats.record_detection(self.sim.now, host.name, "up")
                    if self.tracer.enabled:
                        self.tracer.emit(
                            EventKind.RECOVERY_NOTIFICATION,
                            source=f"gm:{self.name}", host=host.name,
                        )
                    self._send_report(
                        lambda h=host.name: self.site_manager.receive_recovery(h)
                    )
            brownout = self.site_manager.brownout
            if brownout is not None and self.alive:
                # backpressure input: this round's believed-up run-queue
                # lengths, normalised by the saturation threshold.  Rides
                # the echo bookkeeping — no messages, no RNG draws.
                loads = [
                    h.load_average() for h in self.group
                    if self._believed_up[h.name]
                ]
                occupancy = (
                    (sum(loads) / len(loads)) / brownout.policy.saturation_load
                    if loads else 0.0
                )
                self.site_manager.receive_occupancy(self.name, occupancy)

    def _echo_rtt(self, host) -> float:
        """Echo round-trip time: two LAN hops, stretched by slowdown.

        A degraded host still answers — late.  This is the observable
        that distinguishes slow from dead, and what a too-tight
        ``echo_timeout_s`` turns into a false positive.
        """
        return 2.0 * self.lan_latency_s * max(1.0, host.slowdown)

    def _phi_round(self, host, responded: bool) -> None:
        """One echo round under the phi-accrual discipline.

        Suspicion ``phi`` is evaluated against the arrival history
        *before* this round's arrival is recorded, then transitions:

        * TRUST -> SUSPECT at ``phi >= phi_suspect``;
        * SUSPECT -> declared down at ``phi >= phi_down`` (the usual
          failure-notification path);
        * SUSPECT -> TRUST when arrivals resume and phi falls back
          below ``phi_suspect``;
        * believed-down + any arrival -> recovery notification, with
          the detector history reset.
        """
        now = self.sim.now
        det = self._detectors[host.name]
        phi = det.phi(now)
        rtt = self._echo_rtt(host) if responded else None
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.ECHO, source=f"gm:{self.name}",
                host=host.name, responded=responded, rtt_s=rtt, phi=phi,
            )
        if not self._believed_up[host.name]:
            if responded:
                det.reset()
                det.heartbeat(now + rtt)
                self._suspected[host.name] = False
                self._believed_up[host.name] = True
                self.stats.recovery_notifications += 1
                self.stats.record_detection(now, host.name, "up")
                if self.tracer.enabled:
                    self.tracer.emit(
                        EventKind.RECOVERY_NOTIFICATION,
                        source=f"gm:{self.name}", host=host.name,
                    )
                self._send_report(
                    lambda h=host.name: self.site_manager.receive_recovery(h)
                )
            return
        if responded:
            det.heartbeat(now + rtt)
        if self._suspected[host.name]:
            if phi >= self.phi_down:
                self._suspected[host.name] = False
                self._believed_up[host.name] = False
                det.reset()
                if host.is_up():
                    self.false_positives += 1
                self.stats.failure_notifications += 1
                self.stats.record_detection(now, host.name, "down")
                if self.tracer.enabled:
                    self.tracer.emit(
                        EventKind.FAILURE_NOTIFICATION,
                        source=f"gm:{self.name}", host=host.name,
                        false_positive=host.is_up(), phi=phi,
                    )
                self._send_report(
                    lambda h=host.name: self.site_manager.receive_failure(h)
                )
                if self.health is not None:
                    self.health.penalize(
                        host.name, self.health.policy.failure_penalty,
                        "declared_down", origin=f"gm:{self.name}",
                    )
            elif phi < self.phi_suspect:
                self._suspected[host.name] = False
                if self.tracer.enabled:
                    self.tracer.emit(
                        EventKind.TRUST, source=f"gm:{self.name}",
                        host=host.name, phi=phi,
                    )
        elif phi >= self.phi_suspect:
            self._suspected[host.name] = True
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.SUSPECT, source=f"gm:{self.name}",
                    host=host.name, phi=phi,
                )
            if self.health is not None:
                self.health.penalize(
                    host.name, self.health.policy.suspect_penalty, "suspect",
                    origin=f"gm:{self.name}",
                )

    def is_suspected(self, host_name: str) -> bool:
        """Is the host under (phi) suspicion — slow, but not declared dead?"""
        return self._suspected.get(host_name, False)

    def _send_report(self, deliver) -> None:
        """Failure/recovery report to the Site Manager over the LAN.

        Retrying (and so loss-tolerant) when a control plane is wired
        in; otherwise the original single delayed delivery.  Either way
        a lossless, healthy LAN delivers after exactly one latency.
        """
        if self._control is not None:
            self._control.notify_lan(
                self._lan_link, deliver, self.lan_latency_s,
                label=f"report:{self.name}",
            )
        else:
            self.sim.call_after(self.lan_latency_s, deliver)

    def believes_up(self, host_name: str) -> bool:
        # a host this manager does not track (departed, or never a
        # member) is simply not believed *down* — membership checks,
        # not liveness beliefs, keep placements off such hosts
        return self._believed_up.get(host_name, True)
