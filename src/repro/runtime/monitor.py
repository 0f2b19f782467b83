"""Monitor daemons — one per VDCE resource (paper §4.1, Fig. 4).

"The Monitor daemon periodically measures the up-to-date resource
parameters, i.e., CPU load and memory availability and sends the values
to the Group Manager."

A monitor is attached to exactly one host; it reads the host's ground
truth (run-queue length, available memory) every ``period_s`` and sends
a measurement message to its Group Manager.  Delivery rides the site
LAN (latency charged); measurements from a down host simply stop, which
is what the Group Manager's echo protocol exists to notice.

Daemons started together tick together (:class:`MonitorRound`; DESIGN §5
decision 10, §13.9), and a report the Group Manager would suppress
anyway is counted, not built (§13.9).  Nor is a *clean* host read: after
an elided report, while the host's ``epoch`` and its filter mark at the
manager hold, the next report repeats and is counted without a reading;
a repeat whose mark held until delivery is suppressed in bulk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.sim.host import Host
from repro.sim.kernel import Simulator
from repro.runtime.stats import RuntimeStats
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.group_manager import GroupManager

__all__ = ["MonitorDaemon", "MonitorRound", "Measurement"]


class Measurement(NamedTuple):
    """One workload report."""

    host: str
    load: float
    available_memory_mb: int


class MonitorDaemon:
    """Periodic load/memory reporter for one host."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        group_manager: "GroupManager",
        stats: RuntimeStats,
        period_s: float = 2.0,
        lan_latency_s: float = 0.0005,
        tracer: Tracer = NULL_TRACER,
    ):
        if period_s <= 0:
            raise ValueError("monitor period must be positive")
        self.sim = sim
        self.host = host
        self.group_manager = group_manager
        self.stats = stats
        self.period_s = float(period_s)
        self.lan_latency_s = float(lan_latency_s)
        self.tracer = tracer
        #: the round this daemon ticks in; None while not running
        self._round: Optional[MonitorRound] = None
        self._stopped = False
        #: (load, available memory) of the last report built
        self.reported: Optional[Tuple[float, int]] = None
        #: this host's report count: its manager's cell, kept across rejoins
        self._tally = group_manager.reports.setdefault(host.name, [0])
        #: this host's filter mark at its manager (a shared cell too)
        self._mark = group_manager.filter_marks.setdefault(host.name, [0])
        #: the last report's delivery item: (mark cell, mark, report, host
        #: name, host epoch), mark and epoch read if it was elided, else -1
        self._item: Tuple = (self._mark, -1, None, host.name, -1)
        #: LAN delay of the last report read
        self._delay = 0.0

    def start(self) -> "MonitorRound":
        """Start alone, as a round of one ticking from now (a host that
        joins a federation whose monitoring is already running)."""
        return MonitorRound(self.sim, [self])

    def stop(self) -> None:
        """Retire this monitor: it leaves its round at the next tick.

        Used when the host leaves the federation (graceful drain or
        decommission); no further measurements are taken or sent.
        """
        self._stopped = True

    def _report(self) -> Union[Measurement, Tuple[float, int]]:
        """Count this period's report; build and emit it, unless it
        repeats the last one and the manager would suppress it anyway —
        then it is elided and only its bare reading travels."""
        host, gm = self.host, self.group_manager
        self.stats.monitor_reports += 1
        self._tally[0] += 1
        reading = (host.load_average(), host.available_memory_mb())
        if reading == self.reported and gm.suppresses(host.name, reading[0]):
            self._item = (
                self._mark, self._mark[0], reading, host.name, host.epoch)
            return reading
        self.reported = reading
        measurement = Measurement(host.name, *reading)
        self._item = (self._mark, -1, measurement, host.name, -1)
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.MONITOR_REPORT,
                source=f"monitor:{host.name}",
                host=measurement.host,
                load=measurement.load,
                available_memory_mb=measurement.available_memory_mb,
            )
        return measurement


def _deliver(gm: "GroupManager", items: List[Tuple]) -> None:
    # a repeat whose filter mark held since it was read: the manager is
    # alive, the host tracked and its load within the threshold
    repeats = 0
    for cell, mark, report, host, _ in items:
        if cell[0] == mark:
            repeats += 1
        elif isinstance(report, Measurement):
            gm.receive_measurement(report)
        else:
            gm.receive_repeat(host, report)
    gm.stats.workload_suppressed += repeats
    gm.suppressed += repeats


class MonitorRound:
    """Daemons started together: one calendar entry per period for all.

    Each tick runs the live members' reports in start order — the order
    their own timers, armed back to back, would have fired in — and
    consecutive reports for one Group Manager after one LAN delay share
    a delivery entry, an elided report as a bare reading.  A member's
    ``process_spawn`` / ``process_finish`` events (source
    ``monitor:<host>``) are emitted when it joins and at the first tick
    after its ``stop()``.
    """

    def __init__(self, sim: Simulator, daemons: Iterable[MonitorDaemon]):
        self.sim = sim
        self._members = list(daemons)
        # check every member before attaching any
        for daemon in self._members:
            if daemon._round is not None:
                raise RuntimeError(
                    f"monitor for {daemon.host.name} already running"
                )
            if daemon.period_s != self._members[0].period_s:
                raise ValueError("daemons of one round share one period")
        for daemon in self._members:
            daemon._round = self
            daemon._stopped = False
            sim.tracer.emit(
                EventKind.PROCESS_SPAWN, source=f"monitor:{daemon.host.name}",
            )
        if self._members:
            sim.call_at(sim.now, self._tick)

    def _tick(self) -> None:
        sim = self.sim
        retired = False
        batch_gm = batch_delay = items = None
        for daemon in self._members:
            host = daemon.host
            if daemon._stopped:
                daemon._round = None
                retired = True
                sim.tracer.emit(
                    EventKind.PROCESS_FINISH, source=f"monitor:{host.name}"
                )
                continue
            gm, item = daemon.group_manager, daemon._item
            if host.epoch == item[4] and item[0][0] == item[1]:
                # clean: up, manager alive, same reading, same verdict
                daemon.stats.monitor_reports += 1
                daemon._tally[0] += 1
                delay = daemon._delay
            elif not host.is_up():
                continue
            elif not gm.alive:
                # the manager stopped answering: this monitor's report
                # would vanish anyway, so instead it votes to promote a
                # deputy (first caller wins the election)
                gm.request_failover(host)
                continue
            else:
                # delivery after LAN latency; a monitor on a host that
                # dies in flight still delivers (packet already sent).
                # A degraded host's daemon is itself slowed, so its
                # report leaves late by the same factor.
                delay = daemon._delay = (
                    daemon.lan_latency_s * max(1.0, host.slowdown))
                daemon._report()
                item = daemon._item
            if gm is not batch_gm or delay != batch_delay:
                # on the calendar here, where its first report is: an
                # election a later member calls must land after it
                batch_gm, batch_delay, items = gm, delay, []
                sim.call_after(delay, lambda g=gm, i=items: _deliver(g, i))
            items.append(item)
        if retired:
            self._members = [d for d in self._members if d._round is self]
        if self._members:
            sim.call_after(self._members[0].period_s, self._tick)
