"""Every checker in INVARIANTS fires on the fact it guards — and only it.

A campaign test can only ever assert ``report.ok``: reaching an audit
means running a whole campaign, and no committed campaign violates
anything.  Here each checker is handed a passing run with exactly one
fact doctored (a copy — :func:`dataclasses.replace` on the record, an
:class:`Overlay` on live objects — so the module-scoped runs stay
clean) and must report it, while the fifteen others stay silent.

The property at the bottom pins ``intervals`` / ``inside`` (and I4's
"was the outage detected" overlap test) to the hand-written loops they
replaced, kept verbatim here as the oracle.
"""

from copy import copy
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.repository.resources import MembershipState
from repro.sim.chaos import (
    STORM_MAX_QUEUED,
    _play,
    preset,
    run_campaign,
    smoke_config,
)
from repro.sim.failures import FailureEvent, inside, intervals
from repro.sim.invariants import (
    INVARIANTS,
    CampaignRun,
    no_orphaned_group,
    no_phantom_partition,
)
from repro.trace.events import EventKind, TraceEvent
from repro.trace.tracer import Tracer


class Overlay:
    """``base`` with some attributes replaced: a doctored view of a live
    object that leaves the object itself alone."""

    def __init__(self, base, **changes):
        self._base = base
        self.__dict__.update(changes)

    def __getattr__(self, name):
        return getattr(self._base, name)


def firing(run):
    """The ids of the invariants that report on ``run``."""
    fired = set()
    for check in INVARIANTS:
        problems = check(run)
        invariant_id = check.__doc__.split(" ", 1)[0]
        assert all(p.startswith(f"{invariant_id}: ") for p in problems)
        if problems:
            fired.add(invariant_id)
    return fired


def played(config):
    _vdce, run = _play(config)
    return run


@pytest.fixture(scope="module")
def smoke():
    return played(replace(smoke_config(0), causal_spans=True))


@pytest.fixture(scope="module")
def slowdown():
    return played(preset("slowdown-smoke", 0))


@pytest.fixture(scope="module")
def storm():
    return played(preset("storm", 0))


@pytest.fixture(scope="module")
def corruption():
    return played(preset("corruption", 0))


@pytest.fixture(scope="module")
def churn():
    return played(preset("churn", 0))


@pytest.fixture(scope="module")
def calm():
    return played(preset("calm", 0))


def with_record(run, pick, **changes):
    """``run`` with the first task record satisfying ``pick`` changed."""
    for i, coordinator in enumerate(run.coordinators):
        for task_id, record in coordinator.records.items():
            if pick(coordinator, record):
                records = {**coordinator.records,
                           task_id: replace(record, **changes)}
                coordinators = list(run.coordinators)
                coordinators[i] = Overlay(coordinator, records=records)
                return replace(run, coordinators=coordinators), record
    raise AssertionError("no task record to doctor")


def ran(_coordinator, record):
    return record.measured_time > 0 and record.finished_at > record.started_at


def with_speculation(run, doctor):
    """``run`` with its first speculation log rewritten by ``doctor``."""
    for i, coordinator in enumerate(run.coordinators):
        if coordinator.speculation_log:
            log = doctor([dict(e) for e in coordinator.speculation_log])
            coordinators = list(run.coordinators)
            coordinators[i] = Overlay(coordinator, speculation_log=log)
            return replace(run, coordinators=coordinators)
    raise AssertionError("no speculation log to doctor")


def with_wrong_output(run, name):
    afg, result = run.completed_runs[name]
    task_id = sorted(result.outputs)[0]
    outputs = {**result.outputs, task_id: ["not what the task computes"]}
    return replace(run, completed_runs={
        **run.completed_runs, name: (afg, replace(result, outputs=outputs)),
    })


def test_the_undoctored_runs_report_nothing(
        smoke, slowdown, storm, corruption, churn, calm):
    for run in (smoke, slowdown, storm, corruption, churn, calm):
        assert firing(run) == set()


# -- I1 ------------------------------------------------------------------------

def test_i1_fires_on_a_crashed_outcome(smoke):
    name = sorted(smoke.outcomes)[0]
    crashed = {**smoke.outcomes[name], "status": "crashed",
               "error": "KeyError", "detail": "'x'"}
    doctored = replace(smoke, outcomes={**smoke.outcomes, name: crashed})
    assert firing(doctored) == {"I1"}


def test_i1_fires_on_an_application_that_never_settled(smoke):
    stuck = Overlay(smoke.procs[0], triggered=False)
    assert firing(replace(smoke, procs=[stuck, *smoke.procs[1:]])) == {"I1"}


# -- I2 ------------------------------------------------------------------------

def test_i2_fires_on_a_start_inside_a_believed_down_interval(churn):
    # churn has no crash faults: the detection log is empty, so the one
    # doctored entry is the only believed-down interval there is
    _, record = with_record(churn, ran)
    start = record.finished_at - record.measured_time
    stats = Overlay(churn.runtime.stats,
                    detection_log=[(start - 5.0, record.hosts[0], "down")])
    doctored = replace(churn, runtime=Overlay(churn.runtime, stats=stats))
    # the detection is also a false positive no Group Manager counted
    assert firing(doctored) == {"I2", "I4"}
    # ... but inside the report-delivery slack it is not yet a violation
    stats.detection_log = [(start - 0.25, record.hosts[0], "down"),
                           (start + 0.1, record.hosts[0], "up")]
    assert firing(doctored) == {"I4"}


# -- I4 ------------------------------------------------------------------------

def test_i4_fires_on_an_unreconciled_false_positive(smoke):
    gms = dict(smoke.runtime.group_managers)
    name = sorted(gms)[0]
    gms[name] = Overlay(gms[name], false_positives=gms[name].false_positives + 1)
    doctored = replace(smoke, runtime=Overlay(smoke.runtime, group_managers=gms))
    assert firing(doctored) == {"I4"}


def test_i4_fires_on_an_outage_nobody_detected(churn):
    host = churn.hosts[0]
    log = [*churn.injector.log,
           FailureEvent(100.0, host, "down"), FailureEvent(200.0, host, "up")]
    injector = copy(churn.injector)
    injector.log = log
    assert firing(replace(churn, injector=injector)) == {"I4"}


# -- I5 / I7 -------------------------------------------------------------------

def test_i5_fires_on_a_mismatching_output_hash(smoke):
    name = sorted(smoke.completed_runs)[0]
    assert firing(with_wrong_output(smoke, name)) == {"I5"}


def test_i7_fires_too_when_a_backup_won_a_race_in_that_application(slowdown):
    won = next(
        c.afg.name for c in slowdown.coordinators
        if any(e["outcome"] == "backup_win" for e in c.speculation_log)
    )
    lost = next(
        c.afg.name for c in slowdown.coordinators
        if c.speculation_log
        and all(e["outcome"] != "backup_win" for e in c.speculation_log)
    )
    assert firing(with_wrong_output(slowdown, won)) == {"I5", "I7"}
    assert firing(with_wrong_output(slowdown, lost)) == {"I5"}


# -- I6 ------------------------------------------------------------------------

def orphan_check(owned, roster, alive=True):
    """no_orphaned_group over a hand-built control plane."""
    runtime = SimpleNamespace(
        site_managers={"s": SimpleNamespace(alive=True)},
        group_managers={
            name: SimpleNamespace(alive=alive, host_names=frozenset(hosts))
            for name, hosts in owned.items()
        },
        repositories={"s": SimpleNamespace(
            resources=SimpleNamespace(host_names=lambda: list(roster)))},
    )
    return no_orphaned_group(CampaignRun(None, runtime, None))


def test_i6_counts_owners_of_the_hosts_on_the_roster():
    assert orphan_check({"g0": ["a", "b"]}, roster=["a", "b"]) == []
    (problem,) = orphan_check({"g0": ["a"]}, roster=["a", "b"])
    assert "host 'b' is owned by 0 live group managers" in problem
    (problem,) = orphan_check({"g0": ["a", "b"], "g1": ["b"]}, roster=["a", "b"])
    assert "host 'b' is owned by 2 live group managers" in problem
    (problem,) = orphan_check({"g0": ["a", "b"]}, roster=["a"])
    assert "departed host 'b' is owned by 1 live group managers" in problem
    problems = orphan_check({"g0": ["a"]}, roster=["a"], alive=False)
    assert len(problems) == 2 and "no live manager" in problems[0]


def test_i6_fires_on_a_live_host_nobody_owns(smoke):
    gms = dict(smoke.runtime.group_managers)
    name = sorted(gms)[0]
    orphan = sorted(gms[name].host_names)[-1]
    gms[name] = Overlay(gms[name], host_names=gms[name].host_names - {orphan})
    doctored = replace(smoke, runtime=Overlay(smoke.runtime, group_managers=gms))
    assert firing(doctored) == {"I6"}


@pytest.mark.parametrize("victims", (9, 2))
def test_i6_holds_when_departed_hosts_stay_gone(victims):
    """The documented "they stay gone" configuration: a tombstoned host
    is owned by nobody, and that is not an orphan."""
    config = replace(preset("churn", 0), n_churn_hosts=victims,
                     churn_rejoin_after_s=None)
    report = run_campaign(config)
    assert report.ok, report.violations
    departed = [t for t in report.membership["transitions"]
                if t["transition"] == "depart"]
    assert len(departed) == victims


# -- I8 ------------------------------------------------------------------------

def test_i8_fires_on_a_second_backup_for_one_race(slowdown):
    doctored = with_speculation(slowdown, lambda log: [*log, dict(log[0])])
    assert firing(doctored) == {"I8"}


def test_i8_fires_on_a_race_a_completed_application_never_resolved(slowdown):
    def leak(log):
        log[0].update(outcome=None, resolved_at=None)
        return log

    assert firing(with_speculation(slowdown, leak)) == {"I8"}


def test_i8_fires_on_a_backup_launched_after_its_race_was_decided(slowdown):
    def late(log):
        log[0]["resolved_at"] = log[0]["launched_at"] - 1.0
        return log

    assert firing(with_speculation(slowdown, late)) == {"I8"}


# -- I9 ------------------------------------------------------------------------

def test_i9_fires_on_a_span_that_never_closed(smoke):
    closes = [i for i, e in enumerate(smoke.events)
              if e.kind == EventKind.SPAN_CLOSE]
    events = [e for i, e in enumerate(smoke.events) if i != closes[-1]]
    assert firing(replace(smoke, events=events)) == {"I9"}
    unarmed = replace(smoke.config, causal_spans=False)
    assert firing(replace(smoke, events=events, config=unarmed)) == set()


# -- I10 -----------------------------------------------------------------------

def test_i10_fires_on_a_storm_application_without_a_terminal_outcome(storm):
    name = storm.storm_names[0]
    waiting = {**storm.outcomes[name], "status": "queued"}
    doctored = replace(storm, outcomes={**storm.outcomes, name: waiting})
    assert firing(doctored) == {"I10"}
    outcomes = {k: v for k, v in storm.outcomes.items() if k != name}
    assert firing(replace(storm, outcomes=outcomes)) == {"I10"}


def test_i10_fires_on_a_queue_deeper_than_its_bound(storm):
    queue = Overlay(storm.storm_queue,
                    peak_queued=STORM_MAX_QUEUED + 1)
    assert firing(replace(storm, storm_queue=queue)) == {"I10"}


# -- I11 -----------------------------------------------------------------------

def test_i11_fires_on_a_send_over_an_open_circuit(storm):
    breakers = storm.runtime.breakers
    (src, dst), windows = sorted(breakers.open_intervals(1e9).items())[0]
    start, end = windows[0]
    doctored = copy(breakers)
    doctored.send_log = [*breakers.send_log, ((start + end) / 2, src, dst)]
    runtime = Overlay(storm.runtime, breakers=doctored)
    assert firing(replace(storm, runtime=runtime)) == {"I11"}


# -- I12 / I13 -----------------------------------------------------------------

def test_i12_fires_on_a_dirty_consumption(corruption):
    ledger = corruption.runtime.integrity
    log = [dict(c) for c in ledger.consumption_log]
    log[0]["clean"] = False
    runtime = Overlay(corruption.runtime,
                      integrity=Overlay(ledger, consumption_log=log))
    assert firing(replace(corruption, runtime=runtime)) == {"I12"}


@pytest.mark.parametrize("resolution", ("poisoned", None))
def test_i13_fires_on_a_completed_application_past_an_open_incident(
        corruption, resolution):
    ledger = corruption.runtime.integrity
    incidents = [dict(i) for i in ledger.incidents]
    assert corruption.outcomes[incidents[0]["application"]]["status"] == "completed"
    incidents[0]["resolution"] = resolution
    runtime = Overlay(corruption.runtime,
                      integrity=Overlay(ledger, incidents=incidents))
    assert firing(replace(corruption, runtime=runtime)) == {"I13"}
    # the same incident under an application that died typed is fine
    app = incidents[0]["application"]
    died = {**corruption.outcomes[app], "status": "failed"}
    doctored = replace(corruption, runtime=runtime,
                       outcomes={**corruption.outcomes, app: died},
                       completed_runs={k: v for k, v in
                                       corruption.completed_runs.items()
                                       if k != app})
    assert firing(doctored) == set()


# -- I14 / I15 / I16 -----------------------------------------------------------

def drained_windows(run):
    return intervals(
        ((e["time"], e["host"], e["transition"])
         for e in run.runtime.membership.transitions),
        ("drain", "depart"), ("rejoin",),
    )


def test_i14_fires_on_an_attempt_started_on_a_drained_host(churn):
    host, windows = sorted(drained_windows(churn).items())[0]
    opened, closed = windows[0]
    doctored, _ = with_record(
        churn, ran, hosts=(host,),
        started_at=opened + 1.0, finished_at=opened + 2.0, measured_time=0.5,
    )
    assert firing(doctored) == {"I14"}
    # an attempt already running when the drain began may finish
    doctored, _ = with_record(
        churn, ran, hosts=(host,),
        started_at=opened - 1.0, finished_at=opened + 1.0, measured_time=2.0,
    )
    assert firing(doctored) == set()


def test_i15_fires_on_an_evicted_task_that_never_ran(churn):
    doctored, _ = with_record(
        churn, lambda _c, record: any(
            "drained" in r or "membership change" in r or "decommissioned" in r
            for r in record.reschedule_reasons),
        measured_time=0.0,
    )
    assert firing(doctored) == {"I15"}


def test_i16_fires_on_a_rejoined_host_left_draining(churn):
    host = sorted(churn.churn_targets)[0]
    site = next(e["site"] for e in churn.runtime.membership.transitions
                if e["host"] == host)
    repo = churn.runtime.repositories[site]
    resources = Overlay(repo.resources)
    resources.membership_state = lambda name: (
        MembershipState.DRAINING if name == host
        else repo.resources.membership_state(name))
    repositories = {**churn.runtime.repositories,
                    site: Overlay(repo, resources=resources)}
    runtime = Overlay(churn.runtime, repositories=repositories)
    assert firing(replace(churn, runtime=runtime)) == {"I16"}


# -- I17 -----------------------------------------------------------------------

def test_i17_fires_on_a_timeout_nothing_armed_explains(calm):
    stats = Overlay(calm.runtime.stats, rpc_timeouts=1)
    doctored = replace(calm, runtime=Overlay(calm.runtime, stats=stats))
    assert firing(doctored) == {"I17"}


def test_i17_fires_on_a_site_declared_unreachable(calm):
    app = sorted(calm.outcomes)[0]
    event = TraceEvent(
        12.0, len(calm.events), EventKind.SITE_UNREACHABLE, "sm:site-0",
        {"application": app, "remote": "site-1", "phase": "scheduling"})
    assert firing(replace(calm, events=[*calm.events, event])) == {"I17"}


def test_i17_fires_on_a_round_missing_a_bid(calm):
    sites_bid = dict(calm.runtime.stats.sites_bid)
    app = sorted(sites_bid)[0]
    assert sites_bid[app] == 1 + calm.config.k == 3
    sites_bid[app] -= 1
    stats = Overlay(calm.runtime.stats, sites_bid=sites_bid)
    doctored = replace(calm, runtime=Overlay(calm.runtime, stats=stats))
    assert firing(doctored) == {"I17"}


def test_i17_only_speaks_when_nothing_that_silences_a_site_is_armed(smoke):
    # the smoke campaign's partition and message loss time RPCs out and
    # leave sites unbid: specified behaviour, not a phantom
    assert smoke.runtime.stats.rpc_timeouts
    assert no_phantom_partition(smoke) == []
    unarmed = replace(smoke, config=preset("calm", 0))
    assert no_phantom_partition(unarmed)


def test_i17_is_silent_on_a_fault_free_4096_task_exchange():
    """The live case: at the parent of the bid-sheet exchange a 4 096-task
    AFG took 1.05 s on the bench WAN against a flat 1 s timeout, so on a
    fault-free federation every attempt timed out and both remotes were
    declared unreachable — which this checker reports line by line."""
    from repro.scheduler import SiteScheduler
    from repro.sim.failures import FailureInjector
    from repro.workloads import bag_of_tasks
    from tests.runtime.conftest import build_runtime

    rt = build_runtime(
        site_hosts={f"site-{s}": [(f"s{s}-h{h}", 1.0 + h, 256)
                                  for h in range(2)] for s in range(3)},
        wan_latency_s=0.03, tracer=Tracer(),
    )
    afg = bag_of_tasks(n=4096, cost=4.0, heterogeneity=0.0, seed=0)

    def run():
        return (yield from rt.schedule_process(afg, SiteScheduler(k=2)))

    table, _ = rt.sim.run_until_complete(rt.sim.process(run()))
    assert len(table) == 4096
    run = CampaignRun(
        preset("calm", 0), rt, FailureInjector(rt.sim),
        events=rt.tracer.events(),
    )
    assert no_phantom_partition(run) == []


# -- intervals / inside against the loops they replaced -----------------------

def oracle_downtime_intervals(log, name):
    """FailureInjector.downtime_intervals before ``intervals`` (verbatim;
    slowdown_intervals was the same loop over "slow" / "normal")."""
    intervals = []
    down_at = None
    for event in log:
        if event.host != name:
            continue
        if event.kind == "down" and down_at is None:
            down_at = event.time
        elif event.kind == "up" and down_at is not None:
            intervals.append((down_at, event.time))
            down_at = None
    if down_at is not None:
        intervals.append((down_at, None))
    return intervals


def oracle_believed_down_intervals(detection_log):
    """chaos._believed_down_intervals (verbatim)."""
    intervals = {}
    open_at = {}
    for t, host, kind in detection_log:
        if kind == "down" and host not in open_at:
            open_at[host] = t
        elif kind == "up" and host in open_at:
            intervals.setdefault(host, []).append((open_at.pop(host), t))
    for host, t in open_at.items():
        intervals.setdefault(host, []).append((t, None))
    return intervals


def oracle_inactive(transitions):
    """I14's inline builder (verbatim; drain/depart open, rejoin closes)."""
    inactive = {}
    for entry in transitions:
        if entry["transition"] in ("drain", "depart"):
            spans_ = inactive.setdefault(entry["host"], [])
            if not spans_ or spans_[-1][1] is not None:
                spans_.append([entry["time"], None])
        elif entry["transition"] == "rejoin":
            spans_ = inactive.get(entry["host"], [])
            if spans_ and spans_[-1][1] is None:
                spans_[-1][1] = entry["time"]
    return inactive


def oracle_actually_down(down_intervals, host, t):
    """I4's membership test (verbatim)."""
    return any(
        d <= t and (u is None or t < u)
        for d, u in down_intervals.get(host, [])
    )


def oracle_was_detected(detections, host, start, deadline):
    """chaos._was_detected (verbatim)."""
    state_down = False
    for t, h, kind in detections:
        if h != host:
            continue
        if t < start:
            state_down = kind == "down"
        elif t <= deadline and kind == "down":
            return True
        elif t > deadline:
            break
    return state_down


#: time-ordered (time, host, open?) logs with duplicate opens and closes
event_logs = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from("abc"), st.booleans()),
    max_size=30,
).map(lambda log: sorted(log, key=lambda e: e[0]))


@given(event_logs, st.integers(0, 40), st.integers(0, 10))
def test_intervals_and_inside_equal_the_loops_they_replaced(log, t, window):
    log = [(float(time), host, up) for time, host, up in log]
    detections = [(t_, h, "down" if o else "up") for t_, h, o in log]
    paired = intervals(detections, ("down",), ("up",))
    assert paired == oracle_believed_down_intervals(detections)

    failure_log = [FailureEvent(t_, h, kind) for t_, h, kind in detections]
    slow_log = [(t_, h, "slow" if o else "normal") for t_, h, o in log]
    churn_log = [
        {"time": t_, "host": h,
         "transition": ("drain", "depart")[i % 2] if o else "rejoin"}
        for i, (t_, h, o) in enumerate(log)
    ]
    inactive = intervals(
        ((e["time"], e["host"], e["transition"]) for e in churn_log),
        ("drain", "depart"), ("rejoin",),
    )
    assert inactive == {
        h: [tuple(w) for w in ws] for h, ws in oracle_inactive(churn_log).items()
    }
    for host in "abc":
        spans = paired.get(host, [])
        assert spans == oracle_downtime_intervals(failure_log, host)
        assert intervals(slow_log, ("slow",), ("normal",)).get(host, []) == spans
        assert bool(inside(spans, t)) == oracle_actually_down(paired, host, t)
        hit = inside(spans, t)
        assert hit is None or (hit in spans and hit[0] <= t)
        # I4's overlap form of "believed down at some point of the window"
        assert any(
            d <= t + window and (u is None or u >= t) for d, u in spans
        ) == oracle_was_detected(detections, host, t, t + window)
