"""The monitor round against the one-process-per-daemon loop it replaced.

Every scenario runs once under the reference (``_reference_monitor``:
each daemon its own kernel process, one delivery callback per report,
every report built and emitted) and once under the ``MonitorRound`` in
``src/`` (one tick entry per period, one delivery entry per run of
reports sharing a Group Manager and a LAN delay, and a report that
repeats the daemon's last one elided when the manager would suppress it
anyway).  Everything the VDCE can observe must come out equal, or differ
by exactly the declared move:

* the trace is the reference's with
  :func:`~repro.metrics.analysis.elide_repeated_reports` applied and
  ``seq`` renumbered (lifecycle events of ``monitor:<host>`` included);
* every ``RuntimeStats`` counter, and what each site repository
  believes about each host, are equal;
* the metrics snapshot is equal once the three families that measure
  the *simulator* — ``sim_events_total``, ``sim_events_per_sim_second``,
  ``sim_queue_depth`` — are dropped, and once the two monitor series,
  ``vdce_host_load`` and ``vdce_host_available_memory_mb``, are set
  aside: each run's series are exactly its own trace's reports, so the
  round's lose only the elided repeats.

The scripted Group Manager crash, the chaos campaigns and the Hypothesis
timelines are the cases with a same-instant tie (a failover election one
LAN latency after the tick, between two groups' deliveries): they fail
if a delivery entry is put on the calendar at the end of the tick
instead of where its first report is, or if one entry carries reports
for more than one Group Manager.  The LAN-window cases put a crash, a
restart or a retirement between a repeated report's tick and its
delivery, or on the tick instant itself.  The clean-host cases make
each edit that must end a clean daemon's run — one that moves the
host's epoch or its filter mark — on an otherwise idle federation,
where no stock run makes it; each fails when the bumps it exercises
are taken out.
"""

import dataclasses
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.analysis import elide_repeated_reports, structural_diff
from repro.metrics.export import registry_snapshot
from repro.metrics.registry import MetricsRegistry
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.runtime.monitor import Measurement, MonitorDaemon, MonitorRound
from repro.net.rpc import RpcError
from repro.runtime.execution import ExecutionError
from repro.scheduler import SiteScheduler
from repro.scheduler.site_scheduler import SchedulingError
from repro.sim import FailureInjector, TopologyBuilder
from repro.sim.chaos import run_campaign, smoke_config
from repro.sim.host import HostDownError
from repro.trace.events import EventKind
from repro.trace.tracer import Tracer
from repro.workloads import RandomDAGConfig, bag_of_tasks, random_dag

from tests.runtime._reference_monitor import per_daemon_processes

pytestmark = pytest.mark.gate

#: families that count calendar entries, not VDCE behaviour
KERNEL_FAMILIES = (
    "sim_events_total", "sim_events_per_sim_second", "sim_queue_depth",
)
#: the monitor series, one point per report in the trace
SERIES = {"vdce_host_load": "load",
          "vdce_host_available_memory_mb": "available_memory_mb"}
LAN_LATENCY_S = 0.0005


def both(scenario):
    """``scenario()`` — which returns its runtime and whatever else it
    wants compared — under the reference, then under the round."""
    with per_daemon_processes():
        reference = scenario()
    return reference, scenario()


def federation(n_sites, hosts_per_site, seed=0, **config):
    """A traced, metered deployment under ``RuntimeConfig(**config)``;
    every site on the same LAN latency, so deliveries of different
    groups land on the same instant.  The hosts are ``s{s}-h{h}``, which
    the tests here and in ``test_echo_round_equivalence`` name, so this
    is not ``DeploymentSpec.grid`` (``s{s}-h{h:02d}``)."""
    speeds = (1.0, 1.5, 2.0, 2.5)
    builder = (
        TopologyBuilder(seed=seed)
        .lan_defaults(LAN_LATENCY_S, 10.0)
        .wan_defaults(0.03, 2.0)
    )
    for s in range(n_sites):
        builder.site(f"site-{s}", hosts=[
            (f"s{s}-h{h}", speeds[(s + h) % len(speeds)], 256)
            for h in range(hosts_per_site)
        ])
    return VDCERuntime(builder.build(), config=RuntimeConfig(**config),
                       tracer=Tracer(), metrics=MetricsRegistry())


def submit(rt, afg, k=2, at=0.0):
    """Schedule and execute ``afg`` from ``site-0``; a typed death under
    injected faults is an outcome to compare, not an error."""
    def pipeline():
        if at:
            yield rt.sim.timeout(at)
        try:
            result = yield from rt.run_process(
                afg, SiteScheduler(k=k, model=rt.model), "site-0",
                execute_payloads=False)
        except (ExecutionError, SchedulingError, RpcError, HostDownError) as exc:
            return type(exc).__name__
        return sorted(
            (task, r.hosts, r.started_at, r.finished_at)
            for task, r in result.records.items()
        )

    return rt.sim.process(pipeline(), name=f"submit:{afg.name}")


def filtered_snapshot(rt):
    """The metrics snapshot without the kernel families; the monitor
    series checked against the run's own reports and set aside."""
    snapshot = registry_snapshot(rt.metrics)
    for section in ("counters", "gauges", "histograms", "series"):
        for family in KERNEL_FAMILIES:
            snapshot[section].pop(family, None)
    reports = [e for e in rt.tracer.events()
               if e.kind == EventKind.MONITOR_REPORT]
    for family, field in SERIES.items():
        points = {}
        for e in reports:
            points.setdefault(f"host={e.data['host']}", []).append(
                [e.time, float(e.data[field])])
        values = snapshot["series"].pop(family, {"values": {}})["values"]
        assert values == points, family
    return snapshot


def observed(rt, extra=None):
    """Everything that must be equal."""
    rt.export_metrics()
    return {
        "stats": dataclasses.asdict(rt.stats),
        "workloads": {
            site: [
                (r.name, r.up, r.load, r.available_memory_mb, r.updated_at,
                 r.state, r.epoch)
                for r in repo.resources.all_hosts()
            ]
            for site, repo in rt.repositories.items()
        },
        "metrics": filtered_snapshot(rt),
        "now": rt.sim.now,
        "extra": extra,
    }


def assert_equivalent(scenario):
    """Returns the round run's runtime and facts."""
    (reference_rt, reference_extra), (rt, extra) = both(scenario)
    facts = observed(rt, extra)
    assert facts == observed(reference_rt, reference_extra)
    diff = structural_diff(reference_rt.tracer, rt.tracer,
                           modulo=elide_repeated_reports)
    assert diff["identical"], diff["first_divergence"]
    # the oracle really ran as processes, the round really as a round
    assert rt.sim.events_processed < reference_rt.sim.events_processed
    return rt, facts


def events_at(rt, time):
    return [e for e in rt.tracer.events() if e.time == time]


# -- (a) stock runs -------------------------------------------------------------

APPLICATIONS = {
    "bag": lambda n: bag_of_tasks(n=n, cost=4.0, heterogeneity=0.0, seed=0),
    "dag": lambda n: random_dag(RandomDAGConfig(
        n_tasks=n, width=6, mean_cost=3.0, ccr=0.3, seed=7)),
}


@pytest.mark.parametrize("shape", sorted(APPLICATIONS))
@pytest.mark.parametrize("n_sites,hosts_per_site,n_tasks,k",
                         [(2, 4, 48, 1), (8, 8, 96, 7)])
def test_stock_runs(shape, n_sites, hosts_per_site, n_tasks, k):
    def scenario():
        rt = federation(n_sites, hosts_per_site)
        rt.start_monitoring()
        app = submit(rt, APPLICATIONS[shape](n_tasks), k=k)
        records = rt.sim.run_until_complete(app)
        assert len(records) == n_tasks
        return rt, records

    rt, _ = assert_equivalent(scenario)
    assert rt.stats.monitor_reports > 0


# -- (b) a failover election between two groups' deliveries ----------------------

def test_failover_election_ties_with_deliveries():
    """The middle site's Group Manager dies between ticks.  At the next
    tick site-0's daemons report, site-1's call the election (due one LAN
    latency later), site-2's report: all three land on t + latency and
    must run in that order."""
    def scenario():
        rt = federation(3, 3)
        rt.start_monitoring()
        injector = FailureInjector(rt.sim)
        injector.schedule_group_manager_crash(
            rt.group_managers["site-1-g0"], time=3.0)
        # a load change per site so the tie instant carries forwards too
        for s in range(3):
            host = rt.topology.host(f"s{s}-h1")
            rt.sim.call_at(3.5, lambda host=host: host.set_bg_load(2.0))
        app = submit(rt, APPLICATIONS["dag"](24), at=1.0)
        rt.sim.run(until=12.0)
        return rt, app.value

    rt, _ = assert_equivalent(scenario)
    assert rt.stats.failovers == 1
    tie = events_at(rt, 4.0 + LAN_LATENCY_S)
    sources = [e.source for e in tie if e.source.startswith("gm:")]
    election = sources.index("gm:site-1-g0")
    assert tie[[e.source for e in tie].index("gm:site-1-g0")].kind \
        == EventKind.FAILOVER
    assert set(sources[:election]) == {"gm:site-0-g0"}
    assert set(sources[election + 1:]) == {"gm:site-2-g0"}


# -- (c) a slowed host, and a host down -> up across ticks -----------------------

def test_slowed_host_and_outage():
    """``slowdown`` 3.0 stretches that daemon's LAN delay: its report is
    its own delivery instant, in the middle of its group (at 8.0 it
    carries the load change of 6.5, so it is built, not elided)."""
    def scenario():
        rt = federation(2, 4)
        rt.start_monitoring()
        injector = FailureInjector(rt.sim)
        injector.schedule_host_slowdown(
            rt.topology.host("s0-h1"), start=3.0, duration=6.0, factor=3.0)
        injector.schedule(rt.topology.host("s1-h2"), 5.0, "down")
        injector.schedule(rt.topology.host("s1-h2"), 9.5, "up")
        rt.sim.call_at(
            6.5, lambda: rt.topology.host("s0-h1").set_bg_load(1.5))
        app = submit(rt, APPLICATIONS["bag"](24), at=1.0)
        rt.sim.run(until=16.0)
        return rt, app.value

    rt, _ = assert_equivalent(scenario)
    late = [e for e in events_at(rt, 8.0 + 3.0 * LAN_LATENCY_S)
            if e.kind in (EventKind.WORKLOAD_SUPPRESS,
                          EventKind.WORKLOAD_FORWARD)]
    assert [e.data["host"] for e in late] == ["s0-h1"]
    # down at 5.0, up at 9.5: silent on the ticks at 6 and 8 of 0 .. 16
    assert rt.group_managers["site-1-g0"].reports == {
        "s1-h0": [9], "s1-h1": [9], "s1-h2": [7], "s1-h3": [9]}


# -- (d) drain -> retire -> rejoin inside one period ------------------------------

@pytest.mark.parametrize("rejoin_at", [3.8, 4.7])
def test_drain_retire_rejoin(rejoin_at):
    """Retired at 3.5: ``process_finish`` at the tick at 4.0 and nothing
    delivered after.  The rejoined host's daemon is a round of one,
    ticking off-phase from ``rejoin_at`` — before (3.8) or after (4.7)
    the old daemon has left its round."""
    olds = []

    def scenario():
        rt = federation(2, 4)
        rt.start_monitoring()
        olds.append(rt.monitors["s0-h2"])
        rt.sim.call_at(2.5, lambda: rt.membership.drain_host("s0-h2", 1.0))
        rt.sim.call_at(rejoin_at, lambda: rt.membership.rejoin_host("s0-h2"))
        app = submit(rt, APPLICATIONS["bag"](24), at=1.0)
        rt.sim.run(until=12.0)
        return rt, app.value

    rt, _ = assert_equivalent(scenario)
    old = olds[-1]
    lifecycle = [
        (e.time, e.kind) for e in rt.tracer.events()
        if e.source == "monitor:s0-h2"
        and e.kind in (EventKind.PROCESS_SPAWN, EventKind.PROCESS_FINISH)
    ]
    assert lifecycle == sorted([
        (0.0, EventKind.PROCESS_SPAWN), (4.0, EventKind.PROCESS_FINISH),
        (rejoin_at, EventKind.PROCESS_SPAWN),
    ])
    reports = [e.time for e in rt.tracer.events()
               if e.kind == EventKind.MONITOR_REPORT
               and e.data["host"] == "s0-h2"]
    assert reports[:2] == [0.0, 2.0]
    # the new daemon builds its first report; the per-host tally of
    # reports taken, elided ones included, outlives the daemon replaced
    assert reports[2] == pytest.approx(rejoin_at)
    ticks = len([t for t in range(5) if rejoin_at + 2.0 * t <= 12.0])
    assert rt.group_managers["site-0-g0"].reports["s0-h2"] == [2 + ticks]
    # the retired daemon's slot is gone; the new one ticks on its own
    new = rt.monitors["s0-h2"]
    assert new is not old and old._round is None
    assert new._tally is old._tally
    assert new._round is not rt.monitors["s0-h1"]._round
    assert old not in rt.monitors["s0-h1"]._round._members


# -- (e) chaos campaigns -----------------------------------------------------------

@contextmanager
def captured_runtimes():
    """``run_campaign`` keeps its deployment to itself; hold on to it."""
    seen = []
    original = VDCERuntime.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        seen.append(self)

    VDCERuntime.__init__ = init
    try:
        yield seen
    finally:
        VDCERuntime.__init__ = original


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_chaos_campaign(seed):
    def scenario():
        with captured_runtimes() as seen:
            report = run_campaign(smoke_config(seed))
        document = report.to_dict()
        # hashes the kernel families and the series too, and the trace
        # before the move; the filtered snapshot and the diff stand in
        del document["metrics_hash"], document["trace_hash"]
        return seen[0], document

    _, facts = assert_equivalent(scenario)
    assert facts["extra"]["violations"] == []


# -- (f) seeds x fault timelines -----------------------------------------------------

#: instants on a half-second grid: some land exactly on a tick (period 2)
instants = st.integers(1, 36).map(lambda i: i * 0.5)
durations = st.integers(1, 12).map(lambda i: i * 0.5)
faults = st.lists(
    st.tuples(
        st.sampled_from(
            ["outage", "slowdown", "gm_crash", "gm_outage", "sm_outage",
             "churn", "load"]),
        st.integers(0, 2), st.integers(0, 2), instants, durations,
    ),
    max_size=6,
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5), timeline=faults)
def test_fault_timelines(seed, timeline):
    def scenario():
        rt = federation(3, 3, seed=seed)
        rt.start_monitoring()
        injector = FailureInjector(rt.sim)
        churned = set()
        for kind, s, h, at, duration in timeline:
            site = f"site-{s}"
            name = f"s{s}-h{h}"
            gm = rt.group_managers[f"{site}-g0"]
            if kind == "outage":
                injector.schedule(rt.topology.host(name), at, "down")
                injector.schedule(rt.topology.host(name), at + duration, "up")
            elif kind == "slowdown":
                injector.schedule_host_slowdown(
                    rt.topology.host(name), at, duration, factor=2.0 + h)
            elif kind == "gm_crash":
                injector.schedule_group_manager_crash(gm, at)
            elif kind == "gm_outage":
                injector.schedule_group_manager_crash(gm, at, duration)
            elif kind == "sm_outage":
                injector.schedule_site_manager_crash(
                    rt.site_managers[site], at, duration)
            elif kind == "churn" and h and name not in churned:
                # never the group leader, and one departure per host
                churned.add(name)
                rt.sim.call_at(at, lambda name=name:
                               rt.membership.drain_host(name, 1.0))
                rt.sim.call_at(at + 1.0 + duration, lambda name=name:
                               rt.membership.rejoin_host(name))
            elif kind == "load":
                host = rt.topology.host(name)
                rt.sim.call_at(at, lambda host=host, load=duration:
                               host.set_bg_load(load))
        app = submit(rt, APPLICATIONS["dag"](18), at=1.0)
        rt.sim.run(until=30.0)
        return rt, app.value

    assert_equivalent(scenario)


# -- (g) the LAN window of an elided report ---------------------------------------

TICK = 4.0
#: strictly between the tick at 4.0 and its deliveries at 4.0005
WINDOW = TICK + LAN_LATENCY_S / 2
EARLY = TICK + LAN_LATENCY_S / 4

#: name -> ([(time, behind the tick entry?, action)], reports built at
#: the tick, reports forwarded at its delivery)
LAN_WINDOW_CASES = {
    "crash": ([(WINDOW, False, "crash")], 0, 0),
    "crash_on_tick": ([(TICK, True, "crash")], 0, 0),
    "crash_before_tick": ([(TICK, False, "crash")], 0, 0),
    "retire": ([(WINDOW, False, "retire")], 0, 0),
    "retire_on_tick": ([(TICK, True, "retire")], 0, 0),
    "retire_before_tick": ([(TICK, False, "retire")], 0, 0),
    # the filter is reset between tick and delivery: the full path, for
    # each of the group's four elided reports
    "restart": ([(EARLY, False, "crash"), (WINDOW, False, "recover")], 0, 4),
    "restart_on_tick": (
        [(TICK, True, "crash"), (TICK, True, "recover")], 0, 4),
    # dead at the tick (the daemons vote), back on the tick instant
    "recover_on_tick": (
        [(3.0, False, "crash"), (TICK, True, "recover")], 0, 0),
    # reset before the tick: its repeats are built, then nobody answers
    "restart_then_crash": ([(2.5, False, "crash"), (3.0, False, "recover"),
                            (WINDOW, False, "crash")], 4, 0),
}


@pytest.mark.parametrize("case", sorted(LAN_WINDOW_CASES))
def test_lan_window_of_an_elided_report(case):
    """An idle federation: from t = 2 every report repeats the host's
    first and is elided.  A Group Manager crash, ``_restart`` or
    ``retire_host`` lands between the tick at 4.0 and its deliveries,
    or on the tick instant — behind the tick entry when armed from an
    earlier instant, as the tick's own entry was, ahead of it when armed
    at set-up.  Stats, beliefs and metrics match the reference, and the
    trace matches it modulo the move, including a report forwarded by
    the fallback and a repeat built after a reset that nobody answers."""
    timeline, built, forwarded = LAN_WINDOW_CASES[case]

    def scenario():
        rt = federation(2, 4)
        rt.start_monitoring()
        gm = rt.group_managers["site-0-g0"]
        actions = {"crash": gm.crash, "recover": gm.recover,
                   "retire": lambda: rt.membership.retire_host("s0-h1")}
        for time, behind, action in timeline:
            action = actions[action]
            if behind:
                rt.sim.call_at(time - 1.0, lambda time=time, action=action:
                               rt.sim.call_at(time, action))
            else:
                rt.sim.call_at(time, action)
        rt.sim.run(until=12.0)
        return rt, None

    rt, _ = assert_equivalent(scenario)
    reports = [e for e in rt.tracer.events()
               if e.kind == EventKind.MONITOR_REPORT]
    assert len(reports) < rt.stats.monitor_reports
    # a fallback is forwarded at delivery without a report at the tick
    assert built == len([e for e in events_at(rt, TICK)
                         if e.kind == EventKind.MONITOR_REPORT])
    assert forwarded == len([e for e in events_at(rt, TICK + LAN_LATENCY_S)
                             if e.kind == EventKind.WORKLOAD_FORWARD])


# -- (h) a clean host is not read -------------------------------------------------

@pytest.fixture
def reads(monkeypatch):
    """``(time, host)`` of every report the round reads — every entry
    into ``MonitorDaemon._report``; the reference never enters it."""
    seen = []
    original = MonitorDaemon._report

    def report(self):
        seen.append((self.sim.now, self.host.name))
        return original(self)

    monkeypatch.setattr(MonitorDaemon, "_report", report)
    return seen


def idle(*actions, until=12.0):
    """An idle federation (2 x 4, ticks at 0, 2, 4, ...): every host's
    report from t = 2 repeats and is elided, and from t = 4 its daemon
    is clean.  ``actions`` are ``(time, f(rt))`` pairs."""
    def scenario():
        rt = federation(2, 4)
        rt.start_monitoring()
        for time, action in actions:
            rt.sim.call_at(time, lambda action=action: action(rt))
        rt.sim.run(until=until)
        return rt, None

    return scenario


def host(rt, name="s0-h1"):
    return rt.topology.host(name)


def read_at(reads, name):
    return [time for time, host_name in reads if host_name == name]


def verdicts(rt, time, name):
    return [e.kind for e in events_at(rt, time + LAN_LATENCY_S)
            if e.data.get("host") == name
            and e.kind in (EventKind.WORKLOAD_SUPPRESS,
                           EventKind.WORKLOAD_FORWARD)]


def reported(rt, time, name):
    return [(e.data["load"], e.data["available_memory_mb"])
            for e in events_at(rt, time)
            if e.kind == EventKind.MONITOR_REPORT and e.data["host"] == name]


def test_a_memory_only_change_at_constant_load(reads):
    """A slice retires at 4.5 and one with more memory starts on the same
    instant: the load stays 1.0, only the memory moves.  The clean host
    (its repeat at 4.0 elided) must be read at 6.0 — the epoch bumps of
    the retirement and the start — and its report built and suppressed."""
    def slices(rt):
        def run():
            first = host(rt).execute(6.0, memory_mb=10)  # 4 s at speed 1.5
            yield first.done
            host(rt).execute(1e6, memory_mb=30)
        rt.sim.process(run(), name="slices")

    rt, _ = assert_equivalent(idle((0.5, slices)))
    assert reported(rt, 2.0, "s0-h1") == [(1.0, 246)]
    assert reported(rt, 6.0, "s0-h1") == [(1.0, 226)]
    assert verdicts(rt, 6.0, "s0-h1") == [EventKind.WORKLOAD_SUPPRESS]
    assert read_at(reads, "s0-h1") == [0.0, 2.0, 4.0, 6.0, 8.0]


def test_a_slice_cancelled_on_a_clean_host(reads):
    """A slice running since 0.5 is preempted at 4.5 (``cancel``): the
    load drops back to 0.0, so the clean host is read at 6.0 and its
    report built and forwarded."""
    rt, _ = assert_equivalent(idle(
        (0.5, lambda rt: host(rt).execute(1e6, memory_mb=10)),
        (4.5, lambda rt: host(rt).preempt_all("drain")),
    ))
    assert reported(rt, 2.0, "s0-h1") == [(1.0, 246)]
    assert reported(rt, 6.0, "s0-h1") == [(0.0, 256)]
    assert verdicts(rt, 6.0, "s0-h1") == [EventKind.WORKLOAD_FORWARD]


def test_a_background_load_set_to_its_own_value(reads):
    """1.0 at 2.5, 1.0 again at 6.5 (the reading does not move, but the
    host is read once more), 1.1 at 8.5: a change under the threshold,
    built at 10.0 and suppressed."""
    rt, _ = assert_equivalent(idle(
        (2.5, lambda rt: host(rt).set_bg_load(1.0)),
        (6.5, lambda rt: host(rt).set_bg_load(1.0)),
        (8.5, lambda rt: host(rt).set_bg_load(1.1)),
    ))
    assert reported(rt, 10.0, "s0-h1") == [(1.1, 256)]
    assert verdicts(rt, 10.0, "s0-h1") == [EventKind.WORKLOAD_SUPPRESS]
    assert read_at(reads, "s0-h1") == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]


def test_a_slowdown_on_a_clean_host_moves_its_delivery(reads):
    """``slowdown`` 3.0 at 5.0 leaves the reading alone but stretches
    the LAN delay: at 6.0 the host's repeat is its own delivery entry
    between its group-mates' two, at 6.0 + 3 x latency — after the crash
    at 6.001, which drops it instead of suppressing it."""
    rt, _ = assert_equivalent(idle(
        (5.0, lambda rt: host(rt).set_slowdown(3.0)),
        (6.0 + 2 * LAN_LATENCY_S,
         lambda rt: rt.group_managers["site-0-g0"].crash()),
    ))
    assert (6.0, "s0-h1") in reads
    # the repeats of 2.0 and 4.0, and three of the four of 6.0
    assert rt.group_managers["site-0-g0"].suppressed == 2 * 4 + 3


@pytest.mark.parametrize("down,up", [(3.5, 4.5), (4.2, 4.8)])
def test_a_host_fails_and_recovers_with_its_reading_unchanged(reads, down, up):
    """Across the tick at 4.0 (silent there: the epoch bump of ``fail``)
    or between two ticks; either way the reading at 6.0 repeats."""
    rt, _ = assert_equivalent(idle(
        (down, lambda rt: host(rt, "s0-h2").fail()),
        (up, lambda rt: host(rt, "s0-h2").recover()),
    ))
    assert reported(rt, 6.0, "s0-h2") == []
    assert rt.group_managers["site-0-g0"].reports["s0-h2"] == [
        6 if down < 4.0 < up else 7]
    assert (6.0, "s0-h2") in reads


def test_a_manager_crashes_and_recovers_between_two_ticks(reads):
    """The restart at 4.6 resets the filter: at 6.0 every repeat of
    the group must be built and forwarded, none counted as clean."""
    gm = lambda rt: rt.group_managers["site-0-g0"]
    rt, _ = assert_equivalent(idle(
        (4.2, lambda rt: gm(rt).crash()),
        (4.6, lambda rt: gm(rt).recover()),
    ))
    for h in range(4):
        name = f"s0-h{h}"
        assert reported(rt, 6.0, name) == [(0.0, 256)]
        assert verdicts(rt, 6.0, name) == [EventKind.WORKLOAD_FORWARD]
        assert (6.0, name) in reads


def test_a_forward_of_one_host_leaves_its_group_mates_clean(reads):
    """A measurement of s0-h1 (load 3.0) delivered out of band inside the
    LAN window of the tick at 6.0, and forwarded: the filter mark it
    bumps sends s0-h1's repeat, read clean at the tick, through
    ``receive_repeat`` — no longer suppressed, it is forwarded — and its
    next report is read.  s0-h2's repeat in the same delivery entry is
    counted with the batch, and s0-h2 stays clean and unread."""
    rt, _ = assert_equivalent(idle(
        (6.0 + LAN_LATENCY_S / 2,
         lambda rt: rt.group_managers["site-0-g0"].receive_measurement(
             Measurement("s0-h1", 3.0, 256))),
    ))
    assert verdicts(rt, 6.0, "s0-h1") == [EventKind.WORKLOAD_FORWARD]
    assert verdicts(rt, 6.0, "s0-h2") == []
    assert read_at(reads, "s0-h1") == [0.0, 2.0, 8.0]
    assert read_at(reads, "s0-h2") == [0.0, 2.0]


# -- (i) a rejected round attaches no daemon ----------------------------------------

@pytest.mark.parametrize("reject", ["period", "running"])
def test_a_rejected_round_attaches_no_daemon(reject):
    """Every member is checked before any is attached: a second daemon
    with another period, or one already running, rejects the round and
    leaves the first free to start."""
    rt = federation(1, 3)
    first, second, third = (rt.monitors[f"s0-h{h}"] for h in range(3))
    if reject == "period":
        second = MonitorDaemon(rt.sim, second.host, second.group_manager,
                               rt.stats, period_s=3.0)
        error = ValueError
    else:
        second.start()
        error = RuntimeError
    with pytest.raises(error):
        MonitorRound(rt.sim, [first, second, third])
    assert first._round is None and third._round is None
    spawned = [e.source for e in rt.tracer.events()
               if e.kind == EventKind.PROCESS_SPAWN]
    assert spawned == (["monitor:s0-h1"] if reject == "running" else [])
    assert first.start() is first._round
