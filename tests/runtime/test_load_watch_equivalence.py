"""The event-driven load watch against the polling loop it replaced.

``AppController`` used to spawn one ``watch:<host>:<task>`` process per
running slice that woke every ``check_period_s`` to read ``bg_load``.
That loop lives on here, verbatim, as the reference: every scenario runs
once under it and once under the conditional-event watch in ``src/``,
and everything observable must come out equal — task records,
``LOAD_CANCEL`` sequence, and the whole trace once the ``watch:*``
process lifecycle events (which no longer exist) and ``seq`` are
dropped.  The one place the two are *allowed* to differ, a load change
landing on exactly a check boundary (DESIGN §5), is pinned at the end.
"""

import dataclasses
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scenario import SCENARIOS, run
from repro.metrics.registry import NULL_METRICS
from repro.runtime.app_controller import AppController, LoadCheckCalendar
from repro.runtime.execution import ExecutionError
from repro.runtime.stats import RuntimeStats
from repro.runtime.straggler import SpeculationPolicy
from repro.scheduler import SiteScheduler
from repro.sim.host import Host, HostSpec
from repro.sim.kernel import Simulator, Timeout
from repro.sim.workload import SpikeLoad, attach_generators
from repro.trace.events import EventKind
from repro.trace.serialize import event_to_json
from repro.trace.tracer import Tracer
from repro.workloads import bag_of_tasks
from repro.workloads.random_dag import RandomDAGConfig, random_dag

from tests.runtime.conftest import build_runtime, chain_afg
from tests.sim._loads import RandomWalkLoad, TraceLoad


# -- the reference: the polling loop as it stood in app_controller.py --------

def polling_watch(self, execution, task_id, on_reschedule):
    """Spawn the load watchdog for a running slice.

    Checks the host's load every ``check_period_s`` while the slice
    runs.  The *background* load is what triggers rescheduling — a
    busy VDCE task itself must not count against its own host, so
    the controller subtracts resident VDCE slices from the measured
    run-queue length.
    """

    def loop():
        while not execution.done.triggered:
            yield Timeout(self.check_period_s)
            if execution.done.triggered:
                return
            background = self.host.bg_load
            if background > self.load_threshold:
                if self.tracer.enabled:
                    self.tracer.emit(
                        EventKind.LOAD_CANCEL, source=f"ac:{self.host.name}",
                        task=task_id, host=self.host.name, load=background,
                        threshold=self.load_threshold,
                    )
                self.host.cancel(execution, cause=f"load>{self.load_threshold}")
                on_reschedule(task_id, self.host.name,
                              f"load {background:.2f} over threshold")
                return

    return self.sim.process(loop(), name=f"watch:{self.host.name}:{task_id}")


def polling_start_slice(self, work, memory_mb, label, task_id):
    """``start_slice`` + ``watch`` as the two call sites used to pair them."""
    execution = self.host.execute(work=work, memory_mb=memory_mb, label=label)
    polling_watch(self, execution, task_id, lambda *args: None)
    return execution


@contextmanager
def implementation(polling):
    """Run the body under the reference loop or under ``src/`` as it is."""
    if not polling:
        yield
        return
    original = AppController.start_slice
    AppController.start_slice = polling_start_slice
    try:
        yield
    finally:
        AppController.start_slice = original


def both(scenario):
    """``scenario()`` under the reference, then under the event watch."""
    outcomes = []
    for polling in (True, False):
        with implementation(polling):
            outcomes.append(scenario())
    return outcomes


# -- what must be equal --------------------------------------------------------

def filtered_trace(tracer):
    """Canonical event lines minus ``seq`` and the watchdog lifecycle."""
    lines = []
    for event in tracer.events():
        if event.source.startswith("watch:"):
            continue
        lines.append(event_to_json(dataclasses.replace(event, seq=0)))
    return lines


def load_cancels(tracer):
    return [
        (e.time, e.data["task"], e.data["host"], e.data["load"])
        for e in tracer.events() if e.kind == EventKind.LOAD_CANCEL
    ]


def record_facts(result):
    return {
        task: (r.hosts, r.started_at, r.finished_at, r.attempts,
               tuple(r.reschedule_reasons))
        for task, r in sorted(result.records.items())
    }


#: three sites of six hosts: room to reschedule away from a loaded host
SITES = {
    site: [(f"{site[0]}{h}", speed, 256)
           for h, speed in enumerate((1.0, 1.5, 2.0, 2.5, 1.0, 3.0))]
    for site in ("alpha", "beta", "gamma")
}


def run_application(afg, make_load, seed, before_submit=None, **config):
    """One application on a fresh deployment, a generator on every host."""
    rt = build_runtime(site_hosts=SITES, seed=seed, tracer=Tracer(), **config)
    attach_generators(rt.sim, rt.topology.all_hosts, make_load)
    rt.start_monitoring()
    if before_submit is not None:
        before_submit(rt)
    result = rt.submit(afg, SiteScheduler(k=1), execute_payloads=False)
    return {
        "records": record_facts(result),
        "cancels": load_cancels(rt.tracer),
        "trace": filtered_trace(rt.tracer),
        "finished_at": result.finished_at,
        "events": rt.sim.events_processed,
        "rt": rt,
    }


def assert_equivalent(polled, evented, min_cancels=1):
    assert len(polled["cancels"]) >= min_cancels, "scenario never cancels"
    assert evented["cancels"] == polled["cancels"]
    assert evented["records"] == polled["records"]
    assert evented["finished_at"] == polled["finished_at"]
    assert evented["trace"] == polled["trace"]
    assert evented["events"] < polled["events"]


# -- seeded applications under generators that cross the threshold ------------

def walk():
    return RandomWalkLoad(lo=0.0, hi=5.0, step=0.8)


def spikes():
    return SpikeLoad(base=0.2, spike_level=7.0, spike_prob=0.03,
                     spike_duration_periods=3)


def bag(seed):
    return bag_of_tasks(n=36, cost=6.0, heterogeneity=0.5, seed=seed)


def dag(seed):
    return random_dag(RandomDAGConfig(n_tasks=36, width=6, mean_cost=4.0,
                                      ccr=0.3, seed=seed))


#: 0.3 and 0.7 are not representable: their boundaries are only right
#: when advanced by repeated addition, as the timer's were
PERIODS = (2.0, 0.3, 0.7, 1.0)


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("seed", [1, 4])
def test_bag_under_random_walk_load(seed, period):
    polled, evented = both(lambda: run_application(
        bag(seed), walk, seed, check_period_s=period))
    assert_equivalent(polled, evented, min_cancels=10)


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("seed", [0, 3])
def test_dag_under_spike_load(seed, period):
    polled, evented = both(lambda: run_application(
        dag(seed), spikes, seed, check_period_s=period))
    assert_equivalent(polled, evented, min_cancels=5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    period=st.sampled_from(PERIODS),
    shape=st.sampled_from(((bag, walk), (bag, spikes), (dag, walk),
                           (dag, spikes))),
)
def test_any_seed_is_equivalent(seed, period, shape):
    make_afg, make_load = shape

    def scenario():
        try:
            return run_application(make_afg(seed), make_load, seed,
                                   check_period_s=period)
        except ExecutionError as exc:  # ran out of replacement hosts
            return {"error": str(exc)}

    polled, evented = both(scenario)
    if "error" in polled:
        assert evented == polled
    else:
        assert_equivalent(polled, evented, min_cancels=0)


@pytest.mark.parametrize("name", ["end_to_end", "scalability"])
def test_committed_bench_scenarios_differ_only_by_the_watchdogs(name):
    """What the scenario pins' hash refresh covered: with the ``watch:*``
    lifecycle events dropped the two traces are the same events."""
    def scenario():
        tracer = Tracer()
        record = run(SCENARIOS[name], tracer, NULL_METRICS)
        return filtered_trace(tracer), record.runtime.sim.events_processed

    (polled_trace, polled_events), (trace, events) = both(scenario)
    assert trace == polled_trace
    assert events < polled_events


def test_speculation_backup_slice_is_guarded():
    """A backup copy is a slice like any other: overloading its host
    cancels it at its own boundary and the primary races on alone."""
    policy = SpeculationPolicy(trigger_multiple=1.5, check_period_s=0.5)

    def arrange(rt):
        # every site's fastest host straggles, so a backup launches on
        # a3 at t≈1.04; a3 is overloaded while that backup runs
        for name in ("a5", "b5", "g5"):
            rt.topology.host(name).set_slowdown(10.0)
        a3 = rt.topology.host("a3")
        rt.sim.call_at(1.2, lambda: a3.set_bg_load(6.0))
        rt.sim.call_at(2.0, lambda: a3.set_bg_load(0.0))

    polled, evented = both(lambda: run_application(
        chain_afg(n=3, scale=2.0, name="straggled"),
        lambda: TraceLoad([0.0], period_s=60.0), 0, before_submit=arrange,
        speculation=policy, check_period_s=0.3,
    ))
    assert_equivalent(polled, evented)
    assert [(task, host) for _, task, host, _ in evented["cancels"]] \
        == [("t0", "a3")]
    assert evented["rt"].stats.speculative_launches >= 1


# -- hand-written timelines on bare hosts ---------------------------------------

class Rig:
    """Hosts with controllers on one calendar and a script of timed
    slice starts and load changes; no coordinator, no rescheduling."""

    def __init__(self, period=2.0, threshold=4.0, hosts=("h0", "h1")):
        self.sim = Simulator(seed=0)
        #: (time, "start" | "done" | "cancel", label) per slice
        self.log = []
        self.tracer = self.sim.attach_tracer(Tracer())
        self.checks = LoadCheckCalendar(self.sim)
        self.hosts = {n: Host(self.sim, HostSpec(name=n)) for n in hosts}
        self.controllers = {
            n: AppController(self.sim, host, RuntimeStats(),
                             load_threshold=threshold, check_period_s=period,
                             tracer=self.tracer, checks=self.checks)
            for n, host in self.hosts.items()
        }

    def start(self, at, host, task, work=100.0):
        def begin():
            execution = self.controllers[host].start_slice(
                work, 0, label=task, task_id=task)
            self.log.append((self.sim.now, "start", task))
            execution.done._subscribe(self.sim, lambda done: self.log.append(
                (self.sim.now, "cancel" if done.failed else "done", task)))

        self.sim.call_at(at, begin)

    def load(self, at, host, value):
        self.sim.call_at(at, lambda: self.hosts[host].set_bg_load(value))

    def generate(self, host, values, period_s):
        TraceLoad(values, period_s=period_s).start(self.sim, self.hosts[host])

    def run(self, until=50.0):
        self.sim.run(until=until)
        return {
            "cancels": [(t, task) for t, task, _, _ in load_cancels(self.tracer)],
            "log": self.log,
            "events": self.sim.events_processed,
            "armed": len(self.checks),
        }


def scripted(script, **rig):
    """Both implementations through the same script; logs must agree."""
    def scenario():
        bench = Rig(**rig)
        script(bench)
        return bench.run()

    polled, evented = both(scenario)
    assert evented["cancels"] == polled["cancels"]
    assert evented["log"] == polled["log"]
    return polled, evented


def test_same_instant_checks_fire_oldest_slice_first_across_hosts():
    """h1 crosses its threshold before h0, yet the four checks due at
    t=2 cancel in slice order, h0 and h1 interleaved, as the four timers
    did — per-host calendars would cancel h1's slices first."""
    def script(rig):
        for task, host in (("t1", "h0"), ("t2", "h1"), ("t3", "h0"),
                           ("t4", "h1")):
            rig.start(0.0, host, task)
        rig.load(0.5, "h1", 6.0)
        rig.load(1.0, "h0", 6.0)

    _, evented = scripted(script)
    assert evented["cancels"] == [(2.0, "t1"), (2.0, "t2"), (2.0, "t3"),
                                  (2.0, "t4")]
    # one calendar entry served all four checks
    assert evented["events"] == 4 + 2 + 1


def test_load_dropping_back_before_the_boundary_cancels_nothing():
    def script(rig):
        rig.start(0.0, "h0", "t1", work=5.0)
        rig.load(0.5, "h0", 6.0)
        rig.load(1.5, "h0", 1.0)

    _, evented = scripted(script)
    assert evented["cancels"] == []
    assert evented["log"][-1][1:] == ("done", "t1")
    assert evented["armed"] == 0


def test_slice_finishing_before_its_armed_boundary_takes_the_check_along():
    def script(rig):
        rig.start(0.0, "h0", "t1", work=0.6)
        rig.load(0.5, "h0", 6.0)   # arms t=2.0; 0.1 work left at rate 1/7

    _, evented = scripted(script)
    assert evented["cancels"] == []
    # start, load change, completion — the armed check never fires
    assert evented["events"] == 3
    assert evented["armed"] == 0


def test_slice_started_on_an_overloaded_host_is_checked_one_period_later():
    def script(rig):
        rig.load(0.0, "h0", 6.0)
        rig.start(0.7, "h0", "t1")
        rig.start(0.9, "h1", "t2")    # an idle host: never checked

    _, evented = scripted(script, period=0.3)
    assert evented["cancels"] == [(0.7 + 0.3, "t1")]


def test_unrepresentable_period_hits_the_timer_s_floats():
    """After 40 periods of 0.3 the boundary is the repeated sum, not
    ``t0 + k * p``; the cancel time must be the former."""
    def script(rig):
        rig.start(0.1, "h0", "t1")
        rig.load(12.0, "h0", 6.0)

    _, evented = scripted(script, period=0.3)
    boundary = 0.1
    while boundary <= 12.0:
        boundary += 0.3
    assert evented["cancels"] == [(boundary, "t1")]
    assert boundary != 0.1 + 40 * 0.3


def test_second_overload_after_a_quiet_check_is_caught():
    """Armed, found quiet, disarmed, armed again: one check per episode."""
    def script(rig):
        rig.start(0.0, "h0", "t1")
        rig.load(0.5, "h0", 6.0)
        rig.load(1.5, "h0", 0.0)   # the check at 2.0 finds it quiet
        rig.load(6.5, "h0", 6.0)   # boundaries 4.0, 6.0 skipped unarmed

    _, evented = scripted(script)
    assert evented["cancels"] == [(8.0, "t1")]
    assert evented["events"] == 1 + 3 + 2


def test_completion_landing_exactly_on_the_boundary_loses_to_the_check():
    """0.375 work left at rate 1/4 from t=0.5 completes at exactly 2.0,
    the boundary.  The timer was on the calendar first and cancelled the
    slice; the check is armed before the completion is re-timed
    (``Host.set_bg_load``), so it still is."""
    def script(rig):
        rig.start(0.0, "h0", "t1", work=0.875)
        rig.load(0.5, "h0", 3.0)

    _, evented = scripted(script, threshold=2.0)
    assert evented["cancels"] == [(2.0, "t1")]


# -- the tie the event form does not replay (DESIGN §5) ------------------------

def test_load_change_exactly_on_a_boundary_is_seen_by_the_next_check():
    """The rule: arming looks strictly ahead, so a rise at t=2.0, on the
    boundary, is acted on at 4.0.  With the stock one-second generators
    and two-second checks that is also what the timer did: its calendar
    entry for 2.0 dated from 0.0, the generator's from 1.0."""
    def script(rig):
        rig.start(0.0, "h0", "t1")
        rig.generate("h0", [0.0, 0.0, 6.0], period_s=1.0)

    _, evented = scripted(script)
    assert evented["cancels"] == [(4.0, "t1")]


def test_the_timer_saw_a_boundary_rise_from_a_slower_generator():
    """The divergence, pinned: a generator slower than the check period
    put its t=4.0 change on the calendar (at 0.0) before the timer
    re-armed for 4.0 (at 2.0), so the poll read the new load at 4.0.
    The event form has no entry dating from a period earlier; its rule
    above gives 6.0."""
    def scenario():
        rig = Rig()
        rig.start(0.0, "h0", "t1")
        rig.generate("h0", [0.0, 6.0], period_s=4.0)
        return rig.run()["cancels"]

    polled, evented = both(scenario)
    assert polled == [(4.0, "t1")]
    assert evented == [(6.0, "t1")]
