"""Control-plane RPC: timeouts, retries, backoff, fail-fast, notify."""

import pytest

from repro.net import rpc
from repro.net.rpc import ControlPlane, RetryPolicy, RpcTimeout
from repro.runtime.stats import RuntimeStats
from repro.sim import TopologyBuilder


def _topo(seed=0):
    builder = TopologyBuilder(seed=seed).wan_defaults(0.02, 2.0)
    builder.site("alpha", hosts=[("a1", 1.0, 256)])
    builder.site("beta", hosts=[("b1", 1.0, 256)])
    return builder.build()


def _drive(sim, gen):
    """Run an RPC generator to completion, returning (value, error)."""
    box = {}

    def proc():
        try:
            box["value"] = yield from gen
        except RpcTimeout as exc:
            box["error"] = exc

    p = sim.process(proc())
    sim.run_until_complete(p, limit=1e6)
    return box.get("value"), box.get("error")


def test_clean_request_returns_handler_value_and_draws_no_rng():
    topo = _topo()
    control = ControlPlane(topo.sim, topo.network, stats=RuntimeStats())
    value, error = _drive(
        topo.sim,
        control.request("a1", "b1", lambda: 42, payload_mb=0.01, reply_mb=0.01),
    )
    assert error is None and value == 42
    # fault-free runs must not consume randomness (determinism of the
    # fault-free timing across configs that add fault streams): the
    # per-peer stream is undrawn: its next draws, 32-bit ones included
    # (which would read a buffered half), are a fresh stream's first
    import numpy as np

    fresh = np.random.default_rng(np.random.SeedSequence(
        entropy=topo.sim.seed, spawn_key=tuple(b"rpc:alpha->beta")
    ))
    stream = topo.sim.rng("rpc:alpha->beta")
    for _ in range(3):
        assert stream.integers(2**31) == fresh.integers(2**31)
        assert stream.random() == fresh.random()


def test_request_to_downed_link_raises_typed_timeout_fast():
    topo = _topo()
    stats = RuntimeStats()
    control = ControlPlane(topo.sim, topo.network, stats=stats)
    topo.network.wan_link("alpha", "beta").fail()
    value, error = _drive(
        topo.sim, control.request("a1", "b1", lambda: 1, label="x")
    )
    assert isinstance(error, RpcTimeout)
    assert error.attempts == 4
    assert stats.rpc_timeouts == 1
    assert stats.rpc_retries == 4  # every attempt failed
    # fail-fast: only backoff pauses elapsed, never the full timeouts
    assert topo.sim.now < RetryPolicy().timeout_s


def test_message_loss_burns_timeout_then_retry_succeeds():
    topo = _topo()
    stats = RuntimeStats()
    control = ControlPlane(topo.sim, topo.network, stats=stats)
    # certain loss... then heal the loss after the first attempt began
    topo.network.set_message_loss(0.9, site_a="alpha", site_b="beta")
    link = topo.network.wan_link("alpha", "beta")
    topo.sim.call_at(0.5, lambda: setattr(link, "loss_prob", 0.0))
    value, error = _drive(
        topo.sim,
        control.request("a1", "b1", lambda: "ok",
                        policy=RetryPolicy(timeout_s=1.0, max_attempts=10)),
    )
    assert error is None and value == "ok"
    assert stats.rpc_retries >= 1
    # the lost attempt burned (close to) its full timeout
    assert topo.sim.now > 1.0


def test_handler_generator_is_driven_inside_rpc():
    from repro.sim.kernel import Timeout

    topo = _topo()
    control = ControlPlane(topo.sim, topo.network, RuntimeStats())

    def handler():
        def work():
            yield Timeout(2.0)
            return "served"

        return work()

    value, error = _drive(
        topo.sim,
        control.request("a1", "b1", handler,
                        policy=RetryPolicy(timeout_s=10.0)),
    )
    assert error is None and value == "served"
    assert topo.sim.now > 2.0


def test_backoff_is_exponential_with_bounded_jitter():
    policy = RetryPolicy(backoff_base_s=0.1)
    assert policy.backoff(1, 0.0) == pytest.approx(0.1)
    assert policy.backoff(2, 0.0) == pytest.approx(0.2)
    assert policy.backoff(3, 0.0) == pytest.approx(0.4)
    assert policy.backoff(1, 1.0) == pytest.approx(0.12)
    with pytest.raises(ValueError):
        policy.backoff(0, 0.5)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(timeout_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base_s=-0.1)


def test_notify_lan_clean_is_one_latency():
    topo = _topo()
    control = ControlPlane(topo.sim, topo.network, RuntimeStats())
    link = topo.network.lan_link("alpha")
    got = {}
    control.notify_lan(link, lambda: got.setdefault("at", topo.sim.now), 0.001)
    topo.sim.run()
    assert got["at"] == pytest.approx(0.001)


def test_notify_lan_retries_through_loss(monkeypatch):
    monkeypatch.setattr(rpc, "_BACKOFF_FACTOR", 1.0)
    topo = _topo()
    stats = RuntimeStats()
    control = ControlPlane(topo.sim, topo.network, stats=stats)
    link = topo.network.lan_link("alpha")
    link.loss_prob = 0.99  # first draws will almost surely lose
    got = {}
    control.notify_lan(
        link, lambda: got.setdefault("at", topo.sim.now), 0.001,
        label="test-report",
        policy=RetryPolicy(max_attempts=200, backoff_base_s=0.01),
    )
    topo.sim.run()
    assert "at" in got  # eventually delivered
    assert stats.rpc_retries >= 1


def test_notify_lan_gives_up_silently_on_down_link():
    topo = _topo()
    stats = RuntimeStats()
    control = ControlPlane(topo.sim, topo.network, stats=stats)
    link = topo.network.lan_link("alpha")
    link.fail()
    got = {}
    control.notify_lan(link, lambda: got.setdefault("at", topo.sim.now), 0.001)
    topo.sim.run()
    assert not got
    assert stats.rpc_timeouts == 1
