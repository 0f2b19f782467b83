"""Reference monitor daemon: one kernel process per host.

``MonitorDaemon`` used to own a generator (``_run``) that the kernel
resumed once per period, and put one delivery callback on the calendar
per report.  That loop lives on here as the oracle the ``MonitorRound``
in ``src/`` is compared against (``test_monitor_round_equivalence.py``):
under :func:`per_daemon_processes` every daemon that would join a round
is started as its own process instead, whichever way it is started
(``VDCERuntime.start_monitoring`` or a lone ``MonitorDaemon.start()``
from the membership layer).  It builds, emits and delivers every report
— no repeat is elided — and counts it where the round does: in
``RuntimeStats`` and in its Group Manager's per-host tally.
"""

from contextlib import contextmanager

from repro.runtime.monitor import Measurement, MonitorRound
from repro.sim.kernel import Timeout
from repro.trace.events import EventKind


def _run(self):
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
            measurement = Measurement(
                self.host.name,
                self.host.load_average(),
                self.host.available_memory_mb(),
            )
            self.stats.monitor_reports += 1
            self._tally[0] += 1
            # the report's metrics are folds of this event
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


def _start(self):
    process = getattr(self, "_process", None)
    if process is not None and process.alive:
        raise RuntimeError(f"monitor for {self.host.name} already running")
    self._stopped = False
    self._process = self.sim.process(
        _run(self), name=f"monitor:{self.host.name}"
    )


def _round_of_processes(self, sim, daemons):
    for daemon in daemons:
        _start(daemon)


@contextmanager
def per_daemon_processes():
    """Within the body, starting a round starts one process per daemon."""
    original = MonitorRound.__init__
    MonitorRound.__init__ = _round_of_processes
    try:
        yield
    finally:
        MonitorRound.__init__ = original
