"""Failure injection: hosts, links, sites and WAN partitions.

Paper §4.1: "the Group Manager ... periodically check[s] all hosts in
the group by sending echo packets ... When a failure of a host is
detected, the Group Manager passes this information to the Site
Manager.  The host is then marked as 'down' at the site's
resource-performance database."

This module provides the ground truth that machinery must detect:
scheduled or stochastic crash/recover events on hosts, link outages,
WAN partitions, and *performance faults* — slowdown intervals and
stochastic flapping during which a host answers echoes but computes at
a fraction of its nominal speed (the straggler model the phi-accrual
detector and speculative re-execution defend against).  Detection
latency experiments (E6) and the chaos harness (:mod:`repro.sim.chaos`)
compare the injection log against the runtime's repository updates.

Every stochastic process draws from its own named RNG stream
(``fail:<target>``), so adding an injector to one target never perturbs
another target's fate and campaigns stay deterministic and composable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.sim.host import Host
from repro.sim.kernel import Process, Simulator, Timeout
from repro.sim.network import Link, Network

__all__ = ["FailureEvent", "FailureInjector", "Interval", "inside", "intervals"]

#: ``(opened_at, closed_at)``; ``closed_at`` is ``None`` while still open
Interval = Tuple[float, Optional[float]]


def intervals(
    events: Iterable[Tuple[float, Hashable, str]],
    opens: Sequence[str],
    closes: Sequence[str],
) -> Dict[Hashable, List[Interval]]:
    """Pair open/close events into per-target intervals.

    ``events`` is a time-ordered stream of ``(time, target, kind)``;
    a kind in ``opens`` opens the target's interval, one in ``closes``
    closes it, anything else is skipped.  A repeated open (or close)
    for a target already in that state changes nothing — overlapping
    scripted and stochastic injectors, a drain followed by its depart
    — so each interval keeps its *earliest* open.  Intervals still open
    at the end of the stream close at ``None``.
    """
    paired: Dict[Hashable, List[Interval]] = {}
    open_at: Dict[Hashable, float] = {}
    for time, target, kind in events:
        if kind in opens:
            open_at.setdefault(target, time)
        elif kind in closes and target in open_at:
            paired.setdefault(target, []).append((open_at.pop(target), time))
    for target, time in open_at.items():
        paired.setdefault(target, []).append((time, None))
    return paired


def inside(spans: Iterable[Interval], t: float) -> Optional[Interval]:
    """The interval of ``spans`` holding ``t`` (``opened <= t < closed``),
    or ``None`` — one target's intervals are disjoint, so at most one."""
    for opened, closed in spans:
        if opened <= t and (closed is None or t < closed):
            return (opened, closed)
    return None


@dataclass(frozen=True)
class FailureEvent:
    """Ground-truth record of one state change.

    ``host`` carries the target's name: a host name, a link name
    (``lan:<site>`` / ``wan:<a>-<b>``), a manager label (``gm:<name>`` /
    ``sm:<name>``), or ``partition:<groups>`` for partition markers.
    """

    time: float
    host: str
    # "down" | "up" | "partition" | "heal" | "slow" | "normal"
    # | "corrupt-armed" | "artifact-loss" | "journal-corrupt"
    # | "join" | "drain" | "decommission" | "rejoin"
    kind: str
    #: slowdown factor for "slow" events (1.0 otherwise)
    factor: float = 1.0


class FailureInjector:
    """Schedules crash/recovery events against topology resources.

    Two modes, for every fault class:

    * scripted — explicit ``(time, target, kind)`` events for
      deterministic tests and campaigns (:meth:`schedule`,
      :meth:`schedule_partition`, the manager crashes, slowdowns and
      corruption);
    * stochastic — exponential time-to-failure / time-to-repair
      (:meth:`start_random`, :meth:`start_random_link`).

    Only *effective* state changes are logged: crashing a host that is
    already down records nothing, so :meth:`downtime_intervals` pairs
    cleanly even when scripted and stochastic injectors overlap (and
    :func:`intervals` tolerates a raw duplicate in the log regardless).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.log: List[FailureEvent] = []

    # -- host faults ---------------------------------------------------------

    def _apply_host(self, host: Host, kind: str) -> None:
        if kind == "down":
            if not host.is_up():
                return  # already down: nothing changes, nothing logged
            host.fail()
        else:
            if host.is_up():
                return
            host.recover()
        self.log.append(FailureEvent(self.sim.now, host.name, kind))

    # -- scripted performance faults (stragglers) ------------------------------

    def schedule_host_slowdown(
        self, host: Host, start: float, duration: float, factor: float
    ) -> None:
        """Degrade ``host`` by ``factor`` at ``start``, restoring it
        ``duration`` later.

        While degraded every resident execution progresses ``factor``
        times slower (compute *and* the IO the host mediates), so the
        host looks alive to echo packets but genuinely straggles.
        """
        if duration <= 0:
            raise ValueError("slowdown duration must be positive")
        if factor <= 1.0:
            raise ValueError(f"slowdown factor must exceed 1, got {factor}")
        if start < self.sim.now:
            raise ValueError(
                f"cannot schedule a slowdown event in the past "
                f"(time={start}, now={self.sim.now})"
            )
        self.sim.call_at(start, lambda: self._apply_slowdown(host, factor))
        self.sim.call_at(start + duration, lambda: self._apply_slowdown(host, 1.0))

    def _apply_slowdown(self, host: Host, factor: float) -> None:
        if factor > 1.0:
            if host.slowdown > 1.0:
                return  # already degraded: nothing changes, nothing logged
            host.set_slowdown(factor)
            self.log.append(FailureEvent(self.sim.now, host.name, "slow", factor))
        else:
            if host.slowdown <= 1.0:
                return
            host.set_slowdown(1.0)
            self.log.append(FailureEvent(self.sim.now, host.name, "normal"))

    def start_flapping(
        self,
        host: Host,
        mean_normal_s: float,
        mean_slow_s: float,
        factor: float,
    ) -> Process:
        """Stochastic performance flapping for ``host``.

        Alternates exponentially distributed nominal and degraded
        phases; draws come from the stream ``fail:<host>`` like the
        crash injector, so one host's fate never perturbs another's.
        """
        if mean_normal_s <= 0 or mean_slow_s <= 0:
            raise ValueError("mean_normal_s and mean_slow_s must be positive")
        if factor <= 1.0:
            raise ValueError(f"slowdown factor must exceed 1, got {factor}")

        def run():
            rng = self.sim.rng(f"fail:{host.name}")
            while True:
                yield Timeout(rng.exponential(mean_normal_s))
                self._apply_slowdown(host, factor)
                yield Timeout(rng.exponential(mean_slow_s))
                self._apply_slowdown(host, 1.0)

        return self.sim.process(run(), name=f"flapinj:{host.name}")

    # -- link faults -----------------------------------------------------------

    def _apply_link(self, link: Link, kind: str) -> None:
        if kind == "down":
            if not link.up:
                return
            link.fail()
        else:
            if link.up:
                return
            link.recover()
        self.log.append(FailureEvent(self.sim.now, link.spec.name, kind))

    # -- scripted WAN partitions ----------------------------------------------

    def schedule_partition(
        self,
        network: Network,
        groups: Sequence[Sequence[str]],
        start: float,
        duration: float,
    ) -> None:
        """Partition the WAN into site ``groups`` for ``duration`` seconds."""
        if duration <= 0:
            raise ValueError("partition duration must be positive")
        if start < self.sim.now:
            raise ValueError("cannot schedule a partition in the past")
        label = " | ".join(",".join(sorted(g)) for g in groups)

        def begin() -> None:
            downed = network.partition(groups)
            self.log.append(FailureEvent(self.sim.now, f"partition:{label}", "partition"))
            for key in downed:
                self.log.append(
                    FailureEvent(self.sim.now, network.wan_link(*key).spec.name, "down")
                )

        def end() -> None:
            healed = network.heal_partition()
            for key in healed:
                self.log.append(
                    FailureEvent(self.sim.now, network.wan_link(*key).spec.name, "up")
                )
            self.log.append(FailureEvent(self.sim.now, f"partition:{label}", "heal"))

        self.sim.call_at(start, begin)
        self.sim.call_at(start + duration, end)

    # -- scripted manager crashes (control-plane faults) -----------------------

    def schedule_group_manager_crash(
        self, gm, time: float, duration: Optional[float] = None
    ) -> None:
        """Crash a Group Manager process at ``time``.

        With ``duration`` the original manager recovers that much later;
        without it the crash is permanent and the group's Monitor
        daemons elect a deputy (``gm.request_failover``).  ``gm`` is
        duck-typed (``alive`` / ``crash()`` / ``recover()``) so this
        module keeps its no-runtime-imports layering.
        """
        self._schedule_manager(gm, f"gm:{gm.name}", time, duration)

    def schedule_site_manager_crash(
        self, sm, time: float, duration: Optional[float] = None
    ) -> None:
        """Crash a Site Manager (the VDCE Server process) at ``time``.

        While crashed the site answers no bids, takes no allocations and
        buffers monitoring reports; with ``duration`` a replacement
        server re-registers that much later and replays them.
        """
        self._schedule_manager(sm, f"sm:{sm.name}", time, duration)

    def _schedule_manager(
        self, manager, label: str, time: float, duration: Optional[float]
    ) -> None:
        if time < self.sim.now:
            raise ValueError("cannot schedule a manager crash in the past")
        if duration is not None and duration <= 0:
            raise ValueError("crash duration must be positive")

        def crash() -> None:
            if not manager.alive:
                return  # already crashed: nothing changes, nothing logged
            manager.crash()
            self.log.append(FailureEvent(self.sim.now, label, "down"))

        def recover() -> None:
            if manager.alive:
                return  # a failover beat the scripted recovery
            manager.recover()
            self.log.append(FailureEvent(self.sim.now, label, "up"))

        self.sim.call_at(time, crash)
        if duration is not None:
            self.sim.call_at(time + duration, recover)

    # -- data-plane corruption faults ------------------------------------------

    def schedule_link_corruption(
        self,
        link: Link,
        time: float,
        corrupt_prob: float,
        truncate_prob: float = 0.0,
        duration: Optional[float] = None,
    ) -> None:
        """Arm payload bit-flip/truncation on ``link`` at ``time``.

        With ``duration`` the link is disarmed that much later.  The
        per-transfer draws come from the link's own ``corrupt:<name>``
        stream (see :meth:`Link._maybe_corrupt`), so arming one link
        never perturbs another's fate and unarmed runs draw nothing.
        """
        if time < self.sim.now:
            raise ValueError("cannot schedule link corruption in the past")
        if duration is not None and duration <= 0:
            raise ValueError("corruption duration must be positive")
        if (corrupt_prob < 0 or truncate_prob < 0
                or corrupt_prob + truncate_prob >= 1.0):
            raise ValueError(
                "corruption probabilities must be non-negative and sum below 1"
            )

        def arm() -> None:
            link.corrupt_prob = corrupt_prob
            link.truncate_prob = truncate_prob
            self.log.append(
                FailureEvent(self.sim.now, link.spec.name, "corrupt-armed")
            )

        def disarm() -> None:
            link.corrupt_prob = 0.0
            link.truncate_prob = 0.0
            self.log.append(FailureEvent(self.sim.now, link.spec.name, "normal"))

        self.sim.call_at(time, arm)
        if duration is not None:
            self.sim.call_at(time + duration, disarm)

    def schedule_artifact_loss(self, store, host_name: str, time: float) -> None:
        """Vanish every staged artifact held on ``host_name`` at ``time``.

        ``store`` is duck-typed (``drop_host(host_name) -> int``, the
        :class:`~repro.runtime.integrity.IntegrityManager`'s artifact
        index) to keep this module's no-runtime-imports layering, like
        the manager-crash hooks above.  Only an *effective* loss — one
        that actually dropped artifacts — is logged.
        """
        if time < self.sim.now:
            raise ValueError("cannot schedule artifact loss in the past")

        def lose() -> None:
            dropped = store.drop_host(host_name)
            if dropped:
                self.log.append(
                    FailureEvent(
                        self.sim.now, f"artifacts:{host_name}", "artifact-loss"
                    )
                )

        self.sim.call_at(time, lose)

    def schedule_journal_corruption(self, journal, time: float, label: str) -> None:
        """Damage one checkpoint-journal record at ``time``.

        ``journal`` is duck-typed (``inject_corruption(rng)``); the byte
        or record to damage is drawn from the stream
        ``corrupt:journal:<label>`` so journal faults compose with every
        other injector without perturbing their draws.
        """
        if time < self.sim.now:
            raise ValueError("cannot schedule journal corruption in the past")

        def corrupt() -> None:
            rng = self.sim.rng(f"corrupt:journal:{label}")
            detail = journal.inject_corruption(rng)
            if detail.get("offset") is not None or detail.get("index") is not None:
                self.log.append(
                    FailureEvent(
                        self.sim.now, f"journal:{label}", "journal-corrupt"
                    )
                )

        self.sim.call_at(time, corrupt)

    # -- elastic membership (churn) --------------------------------------------

    def schedule_host_decommission(
        self,
        manager,
        host_name: str,
        time: float,
        drain_deadline_s: Optional[float] = None,
    ) -> None:
        """Decommission ``host_name`` at ``time``.

        With ``drain_deadline_s`` the removal is a *graceful drain*: new
        placements stop immediately, running attempts get that long to
        finish, and the host retires at the deadline.  Without it the
        host is retired on the spot (hard decommission).  ``manager`` is
        duck-typed (``alive`` / ``drain_host`` / ``retire_host``).
        """
        if time < self.sim.now:
            raise ValueError("cannot schedule a decommission in the past")
        if drain_deadline_s is not None and drain_deadline_s <= 0:
            raise ValueError("drain deadline must be positive")

        def decommission() -> None:
            if not getattr(manager, "alive", True):
                return
            if drain_deadline_s is None:
                manager.retire_host(host_name)
                self.log.append(
                    FailureEvent(self.sim.now, host_name, "decommission")
                )
            else:
                manager.drain_host(host_name, drain_deadline_s)
                self.log.append(FailureEvent(self.sim.now, host_name, "drain"))

        self.sim.call_at(time, decommission)

    def schedule_host_rejoin(self, manager, host_name: str, time: float) -> None:
        """Bring a previously departed host back at ``time``.

        ``manager`` is duck-typed (``alive`` / ``rejoin_host(name)``);
        the host comes back under a fresh membership epoch with its old
        task-performance calibration intact.
        """
        if time < self.sim.now:
            raise ValueError("cannot schedule a host rejoin in the past")

        def rejoin() -> None:
            if not getattr(manager, "alive", True):
                return
            manager.rejoin_host(host_name)
            self.log.append(FailureEvent(self.sim.now, host_name, "rejoin"))

        self.sim.call_at(time, rejoin)

    def schedule_churn(
        self,
        manager,
        host_names: Sequence[str],
        start: float,
        window_s: float,
        drain_deadline_s: Optional[float] = 6.0,
        rejoin_after_s: Optional[float] = None,
    ) -> None:
        """Membership churn: each host departs (and optionally rejoins).

        Each target's departure time is drawn uniformly inside
        ``[start, start + window_s)`` from its own ``churn:<name>``
        stream, so churning one host never perturbs another target's
        fate and an unarmed run (empty ``host_names``) draws nothing.
        With ``rejoin_after_s`` the host rejoins that long after it
        fully departed, jittered ±25% from the same stream.
        """
        if window_s <= 0:
            raise ValueError("churn window must be positive")
        if start < self.sim.now:
            raise ValueError("cannot schedule churn in the past")
        if rejoin_after_s is not None and rejoin_after_s <= 0:
            raise ValueError("rejoin_after_s must be positive")
        for host_name in host_names:
            rng = self.sim.rng(f"churn:{host_name}")
            depart_at = start + rng.uniform(0.0, window_s)
            self.schedule_host_decommission(
                manager, host_name, depart_at,
                drain_deadline_s=drain_deadline_s,
            )
            if rejoin_after_s is not None:
                departed_at = depart_at + (drain_deadline_s or 0.0)
                delay = rejoin_after_s * rng.uniform(0.75, 1.25)
                self.schedule_host_rejoin(
                    manager, host_name, departed_at + delay
                )

    # -- stochastic ------------------------------------------------------------

    def start_random(
        self,
        host: Host,
        mtbf_s: float,
        mttr_s: float,
    ) -> Process:
        """Exponential failure/repair process for ``host``.

        ``mtbf_s``: mean time between failures; ``mttr_s``: mean time to
        repair.  Draws come from the stream ``fail:<host>`` so adding an
        injector to one host never perturbs another host's fate.
        """
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be positive")

        def run():
            rng = self.sim.rng(f"fail:{host.name}")
            while True:
                yield Timeout(rng.exponential(mtbf_s))
                self._apply_host(host, "down")
                yield Timeout(rng.exponential(mttr_s))
                self._apply_host(host, "up")

        return self.sim.process(run(), name=f"failinj:{host.name}")

    def start_random_link(
        self,
        link: Link,
        mtbf_s: float,
        mttr_s: float,
    ) -> Process:
        """Exponential outage/repair process for a link.

        Draws come from the stream ``fail:<link-name>``, independent of
        every other injector.
        """
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be positive")

        def run():
            rng = self.sim.rng(f"fail:{link.spec.name}")
            while True:
                yield Timeout(rng.exponential(mtbf_s))
                self._apply_link(link, "down")
                yield Timeout(rng.exponential(mttr_s))
                self._apply_link(link, "up")

        return self.sim.process(run(), name=f"failinj:{link.spec.name}")

    # -- queries --------------------------------------------------------------

    def downtime_intervals(self, name: str) -> List[Interval]:
        """``(down_at, up_at)`` pairs for a host or link; ``up_at`` is
        ``None`` while still down."""
        return self._intervals(name, ("down",), ("up",))

    def slowdown_intervals(self, name: str) -> List[Interval]:
        """``(slow_at, normal_at)`` pairs for a host; ``normal_at`` is
        ``None`` while still degraded."""
        return self._intervals(name, ("slow",), ("normal",))

    def _intervals(
        self, name: str, opens: Sequence[str], closes: Sequence[str]
    ) -> List[Interval]:
        events = ((e.time, e.host, e.kind) for e in self.log if e.host == name)
        return intervals(events, opens, closes).get(name, [])
