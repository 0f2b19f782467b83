"""Echo-based failure detection when echo packets themselves are lost.

The guard the suspicion threshold provides: losing an echo to a healthy
host must not mark it down until ``suspicion_threshold`` *consecutive*
misses, and a single good echo afterwards clears the mark (recovery).
"""

from tests.runtime.conftest import build_runtime


def _gm_of(rt, host_name):
    for gm in rt.group_managers.values():
        if host_name in gm._believed_up:
            return gm
    raise AssertionError(f"no group manager covers {host_name}")


def test_lost_echoes_below_threshold_keep_host_up():
    rt = build_runtime(echo_period_s=1.0, suspicion_threshold=3)
    rt.start_monitoring()
    gm = _gm_of(rt, "a1")
    # all echoes start being lost just before the first round
    rt.sim.call_at(0.5, lambda: setattr(gm, "echo_loss_prob", 0.999999))
    # two rounds of misses: below the threshold, still believed up
    rt.sim.run(until=2.5)
    assert gm.believes_up("a1")
    assert gm._detector.missed["a1"] == 2
    assert rt.stats.failure_notifications == 0
    assert rt.repositories["alpha"].resources.get("a1").up


def test_threshold_consecutive_misses_mark_down_then_recovery_clears():
    rt = build_runtime(echo_period_s=1.0, suspicion_threshold=3)
    rt.start_monitoring()
    gm = _gm_of(rt, "a1")
    rt.sim.call_at(0.5, lambda: setattr(gm, "echo_loss_prob", 0.999999))
    # third consecutive miss at t=3 declares the (healthy) host down
    rt.sim.run(until=3.5)
    assert not gm.believes_up("a1")
    assert gm.false_positives >= 1  # a1 (and any group sibling) was healthy
    assert rt.stats.failure_notifications >= 1
    assert not rt.repositories["alpha"].resources.get("a1").up
    # the LAN heals; the next good echo clears the mark
    gm.echo_loss_prob = 0.0
    rt.sim.run(until=4.5)
    assert gm.believes_up("a1")
    assert gm._detector.missed["a1"] == 0
    assert rt.stats.recovery_notifications >= 1
    assert rt.repositories["alpha"].resources.get("a1").up


def test_interleaved_misses_never_trip_the_threshold():
    """A good echo between misses resets the consecutive count."""
    rt = build_runtime(echo_period_s=1.0, suspicion_threshold=2)
    rt.start_monitoring()
    gm = _gm_of(rt, "a1")

    # alternate: lose every echo in odd rounds, deliver in even rounds
    def set_loss(p):
        return lambda: setattr(gm, "echo_loss_prob", p)

    for t in range(1, 10, 2):
        rt.sim.call_at(t - 0.5, set_loss(0.999999))
        rt.sim.call_at(t + 0.5, set_loss(0.0))
    rt.sim.run(until=10.0)
    assert gm.believes_up("a1")
    assert gm.false_positives == 0
    assert rt.stats.failure_notifications == 0
