"""The echo loop against the every-echo-traced loop it replaced.

Every scenario runs once under the reference (``_reference_echo``: each
member's echo read through ``_echo_round`` and emitted) and once under
the loop in ``src/`` (a quiet echo — answered in time, after an answer
in the same detector epoch — counted without a round).  Everything the
VDCE can observe must come out equal, or differ by exactly the declared
move:

* the trace is the reference's with
  :func:`~repro.metrics.analysis.elide_quiet_echoes` applied and ``seq``
  renumbered;
* every ``RuntimeStats`` field, every belief and the whole metrics
  snapshot (the calendar included: the kernel families) are equal, and
  the reference's ``echo`` events per Group Manager are the per-group
  total ``VDCERuntime.export_metrics`` writes.

The scripted cases make the edits stock campaigns rarely reach: loss
under a threshold of two, a deadline a slowed host misses, a host
believed down that answers and stays up, a fault healed between rounds,
a manager restart (recover or failover: beliefs re-read from the site
repository, which the trace does not show), and each membership edit.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.analysis import elide_quiet_echoes, structural_diff
from repro.metrics.export import registry_snapshot
from repro.sim import FailureInjector
from repro.trace.events import EventKind

from tests.runtime._reference_echo import every_echo_traced
from tests.runtime.test_monitor_round_equivalence import (
    APPLICATIONS, federation as monitor_federation, submit)

pytestmark = pytest.mark.gate


def federation(n_sites=2, hosts_per_site=4, seed=0, **config):
    """The monitor-round tests' deployment, monitoring on."""
    rt = monitor_federation(n_sites, hosts_per_site, seed, **config)
    rt.start_monitoring()
    return rt


def observed(rt):
    rt.export_metrics()
    return {
        "stats": dataclasses.asdict(rt.stats),
        "beliefs": {name: dict(gm._believed_up)
                    for name, gm in rt.group_managers.items()},
        "metrics": registry_snapshot(rt.metrics),
        "events": rt.sim.events_processed,
        "now": rt.sim.now,
    }


def echoes_by_manager(rt):
    counts = {}
    for event in rt.tracer:
        if event.kind == EventKind.ECHO:
            counts[event.source] = counts.get(event.source, 0) + 1
    return counts


def assert_equivalent(scenario):
    """``scenario()`` builds, scripts and runs a deployment; returns the
    loop's runtime."""
    with every_echo_traced():
        reference = scenario()
    rt = scenario()
    assert observed(rt) == observed(reference)
    assert echoes_by_manager(reference) == {
        f"gm:{name}": gm.echoes
        for name, gm in reference.group_managers.items() if gm.echoes}
    diff = structural_diff(reference.tracer, rt.tracer,
                           modulo=elide_quiet_echoes)
    assert diff["identical"], diff["first_divergence"]
    # what the loop left out it counted
    quiet = sum(gm.quiet_echoes for gm in rt.group_managers.values())
    assert sum(echoes_by_manager(rt).values()) + quiet \
        == rt.stats.echo_packets
    return reference, rt


def echoes_of(rt, host):
    return [(e.time, e.data["responded"]) for e in rt.tracer
            if e.kind == EventKind.ECHO and e.data["host"] == host]


def test_loss_under_a_threshold_of_two():
    """A lossy LAN: each lost echo breaks a run of answers, the next
    answer is news; two in a row declare the host down."""
    def scenario():
        rt = federation(echo_loss_prob=0.3, suspicion_threshold=2)
        rt.sim.run(until=200.0)
        return rt

    reference, rt = assert_equivalent(scenario)
    assert rt.stats.failure_notifications > 0
    assert rt.stats.recovery_notifications > 0
    assert 0 < len(echoes_of(rt, "s0-h0")) < len(echoes_of(reference, "s0-h0"))


def test_a_deadline_a_slowed_host_misses():
    """``echo_timeout_s`` 0.002: at slowdown 3 the round trip takes
    0.003, a miss; the host is declared down, and back when it speeds
    up.  Its answers in time while slowed by 1.5 are quiet."""
    def scenario():
        rt = federation(echo_timeout_s=0.002)
        injector = FailureInjector(rt.sim)
        host = rt.topology.host("s0-h1")
        injector.schedule_host_slowdown(host, start=12.0, duration=20.0,
                                        factor=1.5)
        injector.schedule_host_slowdown(host, start=42.0, duration=20.0,
                                        factor=3.0)
        rt.sim.run(until=90.0)
        return rt

    _, rt = assert_equivalent(scenario)
    assert rt.stats.failure_notifications == 1
    assert rt.stats.recovery_notifications == 1
    assert echoes_of(rt, "s0-h1") == [
        (5.0, True), (45.0, False), (50.0, False), (55.0, False),
        (60.0, False), (65.0, True)]


def test_a_host_believed_down_answers_and_stays_up():
    def scenario():
        rt = federation()
        FailureInjector(rt.sim).schedule_outage(
            rt.topology.host("s1-h2"), start=7.0, duration=10.0)
        rt.sim.run(until=60.0)
        return rt

    _, rt = assert_equivalent(scenario)
    # news only: the first answer, the miss, the answer that brings it
    # back; then quiet
    assert echoes_of(rt, "s1-h2") == [
        (5.0, True), (10.0, False), (15.0, False), (20.0, True)]


def test_a_fault_healed_between_rounds_is_never_seen():
    def scenario():
        rt = federation()
        FailureInjector(rt.sim).schedule_outage(
            rt.topology.host("s0-h3"), start=6.0, duration=2.0)
        app = submit(rt, APPLICATIONS["bag"](16), at=1.0)
        rt.sim.run(until=30.0)
        assert app.triggered
        return rt

    _, rt = assert_equivalent(scenario)
    assert echoes_of(rt, "s0-h3") == [(5.0, True)]


@pytest.mark.parametrize("restart", ["recover", "failover"])
def test_a_manager_restart_starts_every_epoch_over(restart):
    """Crashed at 12.5: a recovery at 13.5, before the group's daemons
    notice, or an election at their tick at 14.  Beliefs are re-read
    from the site repository, so the first echo of each member after
    the restart is news — here a host that went down while the manager
    was away."""
    def scenario():
        rt = federation()
        gm = rt.group_managers["site-0-g0"]
        injector = FailureInjector(rt.sim)
        if restart == "recover":
            injector.schedule_group_manager_crash(gm, 12.5, duration=1.0)
        else:
            injector.schedule_group_manager_crash(gm, 12.5)
        injector.schedule_outage(rt.topology.host("s0-h2"), start=13.0,
                                 duration=30.0)
        rt.sim.run(until=60.0)
        return rt

    _, rt = assert_equivalent(scenario)
    kind = (EventKind.MANAGER_RECOVER if restart == "recover"
            else EventKind.FAILOVER)
    (restarted,) = [e.time for e in rt.tracer if e.kind == kind]
    first = [e for e in rt.tracer if e.kind == EventKind.ECHO
             and e.source == "gm:site-0-g0" and e.time > restarted]
    # every member's first echo after the restart is traced
    assert {e.data["host"] for e in first if e.time == first[0].time} \
        == {f"s0-h{h}" for h in range(4)}


def test_join_drain_depart_rejoin():
    """A host joins at 11, another drains at 17, departs at 21 and
    rejoins at 33: each one's first echo after the edit is traced."""
    def scenario():
        rt = federation()
        site = rt.site_managers["site-0"]
        spec = rt.topology.host("s0-h1").spec
        rt.sim.call_at(11.0, lambda: site.admit_host(
            dataclasses.replace(spec, name="s0-new"), "site-0-g0"))
        rt.sim.call_at(17.0, lambda: rt.membership.drain_host("s0-h2", 4.0))
        rt.sim.call_at(33.0, lambda: rt.membership.rejoin_host("s0-h2"))
        rt.sim.run(until=60.0)
        return rt

    _, rt = assert_equivalent(scenario)
    assert echoes_of(rt, "s0-new") == [(15.0, True)]
    assert echoes_of(rt, "s0-h2") == [(5.0, True), (35.0, True)]


#: instants on a half-second grid: some land exactly on an echo round
instants = st.integers(1, 100).map(lambda i: i * 0.5)
durations = st.integers(1, 40).map(lambda i: i * 0.5)
faults = st.lists(
    st.tuples(
        st.sampled_from(["outage", "slowdown", "gm_crash", "gm_outage",
                         "churn"]),
        st.integers(0, 1), st.integers(1, 3), instants, durations,
    ),
    max_size=5,
)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 3), timeline=faults,
       loss=st.sampled_from([0.0, 0.2]), threshold=st.integers(1, 2),
       timeout=st.sampled_from([None, 0.0025]))
def test_fault_timelines(seed, timeline, loss, threshold, timeout):
    def scenario():
        rt = federation(seed=seed, echo_loss_prob=loss,
                        suspicion_threshold=threshold, echo_timeout_s=timeout)
        injector = FailureInjector(rt.sim)
        churned = set()
        for kind, s, h, at, duration in timeline:
            name = f"s{s}-h{h}"
            gm = rt.group_managers[f"site-{s}-g0"]
            if kind == "outage":
                injector.schedule_outage(rt.topology.host(name), at, duration)
            elif kind == "slowdown":
                injector.schedule_host_slowdown(
                    rt.topology.host(name), at, duration, factor=1.0 + h)
            elif kind == "gm_crash":
                injector.schedule_group_manager_crash(gm, at)
            elif kind == "gm_outage":
                injector.schedule_group_manager_crash(gm, at, duration)
            elif name not in churned:
                churned.add(name)
                rt.sim.call_at(at, lambda name=name:
                               rt.membership.drain_host(name, 1.0))
                rt.sim.call_at(at + 1.0 + duration, lambda name=name:
                               rt.membership.rejoin_host(name))
        rt.sim.run(until=80.0)
        return rt

    assert_equivalent(scenario)
