"""What an idle federation costs: periodic daemons, counted not timed.

With nothing submitted, the only calendar traffic is the Monitor daemons
and the Group Managers' echo rounds.  Daemons started together tick
together (``runtime/monitor.py``), so that traffic is a few entries per
*group* per period — it must not depend on how many hosts a group has —
and one report must not walk the host's resident executions.  (One
kernel process and one delivery callback per daemon: 65 736 events here;
32 064 reports either way.)

Nor does an idle host's trace grow with time: every report after the
first repeats it and would be suppressed, so it is counted and elided —
one ``monitor_report`` per host, no ``workload_suppress`` (DESIGN §13.9).
Nor is an idle host read: once a repeat was elided and neither the
host's epoch nor its filter mark has moved, the next is counted without
entering ``MonitorDaemon._report`` — two reads per host (the first
report, and the repeat after its forward) over the whole horizon.
Nor is an idle host's echo news after its first answer: every later one
is quiet, counted and not traced (DESIGN §13.13).
"""

import pytest

from repro.core import DeploymentSpec
from repro.core.scenario import Scenario, run
from repro.metrics import event_counts
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.runtime.monitor import MonitorDaemon
from repro.sim import TopologyBuilder
from repro.trace import EventKind, Tracer
from repro.trace.tracer import NULL_TRACER
from repro.workloads import bag_of_tasks

pytestmark = pytest.mark.gate

HORIZON_VS = 1000.0
#: measured 6 173 on 8 sites x 8 hosts
CEILING = 8000


def idle_federation(hosts_per_site: int, tracer=NULL_TRACER) -> VDCERuntime:
    """8 sites, one group each, stock config, monitoring on, no work."""
    builder = (
        TopologyBuilder(seed=0)
        .lan_defaults(0.0005, 10.0)
        .wan_defaults(0.03, 2.0)
    )
    for s in range(8):
        builder.site(f"site-{s}", n_hosts=hosts_per_site)
    rt = VDCERuntime(builder.build(), config=RuntimeConfig(), tracer=tracer)
    rt.start_monitoring()
    rt.sim.run(until=HORIZON_VS)
    return rt


@pytest.fixture
def reads(monkeypatch):
    """Entries into ``MonitorDaemon._report``: reports read off a host."""
    count = [0]
    original = MonitorDaemon._report

    def report(self):
        count[0] += 1
        return original(self)

    monkeypatch.setattr(MonitorDaemon, "_report", report)
    return count


def test_idle_federation_under_the_ceiling(reads):
    rt = idle_federation(8)
    # every daemon reported every period: t = 0, 2, ..., 1000
    assert rt.stats.monitor_reports == 64 * 501
    assert rt.sim.events_processed < CEILING
    # ... but read its host twice (64 x 501 when every report was read)
    assert reads[0] <= 2 * 64


def test_a_bag_reads_few_of_the_reports_it_counts(reads):
    """``bag_2k``'s input: 2 048 equal tasks from site-0 over 8 x 8.
    Hosts stay busy at a constant load for most of the run, so at most
    5 % of the reports counted are read (all 9 536 when every report
    was).  A shorter bag ticks too few times for the bound: the two
    reads every change costs are a third of a 512-task bag's reports."""
    rt, result = run(Scenario(
        DeploymentSpec.grid(8, 8), bag_of_tasks,
        (("n", 2048), ("cost", 4.0), ("heterogeneity", 0.0), ("seed", 0)),
        k=7))
    assert len(result.records) == 2048
    # about 150 ticks of 64 daemons: the bound is not met by a short run
    assert rt.stats.monitor_reports >= 100 * 64
    assert reads[0] <= 0.05 * rt.stats.monitor_reports


def test_an_idle_trace_holds_one_report_per_host():
    untraced, rt = idle_federation(8), idle_federation(8, Tracer())
    assert rt.stats.monitor_reports == 64 * 501
    counts = event_counts(rt.tracer)
    assert counts[EventKind.MONITOR_REPORT] == 64
    assert counts.get(EventKind.WORKLOAD_SUPPRESS, 0) == 0
    assert counts[EventKind.WORKLOAD_FORWARD] == 64
    reports = [e for e in rt.tracer.events()
               if e.kind == EventKind.MONITOR_REPORT]
    assert {e.time for e in reports} == {0.0}
    assert len({e.data["host"] for e in reports}) == 64
    # counted all the same (the reports of t = 1000 are still in flight);
    # an elided report rides its batch's delivery entry, so the calendar
    # holds what it held when every report was built
    assert rt.stats.workload_suppressed == 64 * 499
    assert rt.sim.events_processed == untraced.sim.events_processed == 6173


def test_an_idle_trace_holds_one_echo_per_host():
    rt = idle_federation(8, Tracer())
    # every group echoed every host at t = 5, 10, ..., 1000
    assert rt.stats.echo_packets == 64 * 200
    echoes = [e for e in rt.tracer if e.kind == EventKind.ECHO]
    assert len(echoes) <= 64
    assert sorted(e.data["host"] for e in echoes) == sorted(
        h.name for h in rt.topology.all_hosts)
    assert sum(gm.quiet_echoes for gm in rt.group_managers.values()) \
        == 64 * 199
    assert rt.sim.events_processed == 6173


def test_idle_events_do_not_grow_with_the_group():
    small, large = idle_federation(8), idle_federation(16)
    assert large.stats.monitor_reports == 2 * small.stats.monitor_reports

    def periodic_events(rt):
        # a forward is a message, one calendar entry each: on an idle
        # federation exactly the first report of every host
        assert rt.stats.workload_forwards == len(rt.monitors)
        return rt.sim.events_processed - rt.stats.workload_forwards

    assert periodic_events(large) == periodic_events(small)


class _CountingList(list):
    """A resident list that counts how often it is walked."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_a_report_does_not_walk_the_residents():
    builder = TopologyBuilder(seed=0).site(
        "site-0", n_hosts=1, memory_mb=2048)
    rt = VDCERuntime(builder.build(), config=RuntimeConfig())
    (monitor,) = rt.monitors.values()
    host = monitor.host
    for _ in range(1024):
        host.execute(work=1e6, memory_mb=1)
    host._running = residents = _CountingList(host._running)
    measurement = monitor._report()
    assert (measurement.load, measurement.available_memory_mb) == (1024.0, 1024)
    assert residents.iterations == 0
