"""Monitor daemons — one per VDCE resource (paper §4.1, Fig. 4).

"The Monitor daemon periodically measures the up-to-date resource
parameters, i.e., CPU load and memory availability and sends the values
to the Group Manager."

A monitor is attached to exactly one host; it reads the host's ground
truth (run-queue length, available memory) every ``period_s`` and sends
a measurement message to its Group Manager.  Delivery rides the site
LAN (latency charged); measurements from a down host simply stop, which
is what the Group Manager's echo protocol exists to notice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.host import Host
from repro.sim.kernel import Process, Simulator, Timeout
from repro.runtime.stats import RuntimeStats
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.group_manager import GroupManager

__all__ = ["MonitorDaemon", "Measurement"]


@dataclass(frozen=True)
class Measurement:
    """One workload report."""

    host: str
    load: float
    available_memory_mb: int
    measured_at: float


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
        self._process: Optional[Process] = None
        self._stopped = False

    def start(self) -> Process:
        if self._process is not None and self._process.alive:
            raise RuntimeError(f"monitor for {self.host.name} already running")
        self._stopped = False
        self._process = self.sim.process(
            self._run(), name=f"monitor:{self.host.name}"
        )
        return self._process

    def stop(self) -> None:
        """Retire this monitor: the loop exits at its next tick.

        Used when the host leaves the federation (graceful drain or
        decommission); no further measurements are taken or sent.
        """
        self._stopped = True

    def measure(self) -> Measurement:
        """Take one measurement of the host's current state."""
        return Measurement(
            host=self.host.name,
            load=self.host.load_average(),
            available_memory_mb=self.host.available_memory_mb(),
            measured_at=self.sim.now,
        )

    def _run(self):
        # Pre-labelled instrument handles, resolved at the first report
        # (when the families are registered, which fixes their snapshot
        # order) and reused every period thereafter — not three family
        # lookups plus three label-key builds per host per period.
        reports_child = load_child = mem_child = None
        while True:
            if self._stopped:
                return
            if self.host.is_up():
                if not self.group_manager.alive:
                    # the manager stopped answering: this monitor's next
                    # report would vanish anyway, so instead it votes to
                    # promote a deputy (first caller wins the election)
                    self.group_manager.request_failover(self.host)
                    yield Timeout(self.period_s)
                    continue
                measurement = self.measure()
                self.stats.monitor_reports += 1
                metrics = self.sim.metrics
                if metrics.enabled:
                    if reports_child is None:
                        reports_child = metrics.counter(
                            "vdce_monitor_reports_by_host_total",
                            "monitor measurements taken, per host",
                        ).child(host=self.host.name)
                        load_child = metrics.series(
                            "vdce_host_load",
                            "run-queue length sampled by the monitor daemon",
                        ).child(host=self.host.name)
                        mem_child = metrics.series(
                            "vdce_host_available_memory_mb",
                            "available memory sampled by the monitor daemon",
                        ).child(host=self.host.name)
                    reports_child.inc()
                    load_child.observe(measurement.load)
                    mem_child.observe(measurement.available_memory_mb)
                if self.tracer.enabled:
                    self.tracer.emit(
                        EventKind.MONITOR_REPORT,
                        source=f"monitor:{self.host.name}",
                        host=measurement.host,
                        load=measurement.load,
                        available_memory_mb=measurement.available_memory_mb,
                    )
                # delivery after LAN latency; a monitor on a host that
                # dies in flight still delivers (packet already sent).
                # A degraded host's daemon is itself slowed, so its
                # report leaves late by the same factor.
                self.sim.call_after(
                    self.lan_latency_s * max(1.0, self.host.slowdown),
                    lambda m=measurement: self.group_manager.receive_measurement(m),
                )
            yield Timeout(self.period_s)
