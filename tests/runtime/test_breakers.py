"""WAN circuit breakers: trip, fast-fail, half-open probe, audit log."""

from repro.net import rpc
from repro.net.rpc import (
    BreakerRegistry,
    CircuitBreaker,
    CircuitOpenError,
    ControlPlane,
    RpcTimeout,
)
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


def _breaker_setup(seed=0):
    topo = _topo(seed)
    registry = BreakerRegistry(topo.sim)
    control = ControlPlane(
        topo.sim, topo.network, stats=RuntimeStats(), breakers=registry
    )
    return topo, registry, control


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        """The constants the breaker reads are a state machine that can
        open and close again."""
        assert 1 <= rpc._BREAKER_MIN_SAMPLES <= rpc._BREAKER_WINDOW
        assert 0.0 < rpc._BREAKER_FAILURE_THRESHOLD <= 1.0
        assert rpc._BREAKER_OPEN_S > 0


class TestTripAndFastFail:
    def test_repeated_failures_open_the_breaker(self):
        topo, registry, control = _breaker_setup()
        topo.network.wan_link("alpha", "beta").fail()
        # one request = 4 failed attempts under the default RetryPolicy,
        # exactly _BREAKER_MIN_SAMPLES failures at 100% failure rate
        value, error = _drive(
            topo.sim, control.request("a1", "b1", lambda: 1, label="x")
        )
        assert isinstance(error, RpcTimeout)
        assert registry.of("alpha", "beta").state == "open"
        assert [s for _, _, _, s in registry.transitions] == ["open"]

    def test_open_circuit_fast_fails_without_burning_time(self):
        topo, registry, control = _breaker_setup()
        topo.network.wan_link("alpha", "beta").fail()
        _drive(topo.sim, control.request("a1", "b1", lambda: 1, label="x"))
        before = topo.sim.now
        value, error = _drive(
            topo.sim, control.request("a1", "b1", lambda: 2, label="y")
        )
        assert isinstance(error, CircuitOpenError)
        assert error.attempts == 0
        assert topo.sim.now == before  # nothing went on the wire
        assert registry.fast_fails >= 1

    def test_healthy_link_never_trips(self):
        topo, registry, control = _breaker_setup()
        for i in range(6):
            value, error = _drive(
                topo.sim,
                control.request("a1", "b1", lambda: i,
                                payload_mb=0.01, reply_mb=0.01),
            )
            assert error is None
        assert registry.of("alpha", "beta").state == "closed"
        assert registry.transitions == []
        assert registry.fast_fails == 0


class TestHalfOpenProbe:
    def _trip(self, topo, control):
        topo.network.wan_link("alpha", "beta").fail()
        _drive(topo.sim, control.request("a1", "b1", lambda: 1, label="t"))

    def test_probe_success_closes_the_circuit(self):
        topo, registry, control = _breaker_setup()
        self._trip(topo, control)
        topo.network.wan_link("alpha", "beta").recover()
        topo.sim.run(until=topo.sim.now + 10.0)
        value, error = _drive(
            topo.sim,
            control.request("a1", "b1", lambda: "ok",
                            payload_mb=0.01, reply_mb=0.01),
        )
        assert error is None and value == "ok"
        assert registry.of("alpha", "beta").state == "closed"
        states = [s for _, _, _, s in registry.transitions]
        assert states == ["open", "half_open", "closed"]

    def test_probe_failure_reopens(self):
        topo, registry, control = _breaker_setup()
        self._trip(topo, control)
        topo.sim.run(until=topo.sim.now + 10.0)  # link still down
        value, error = _drive(
            topo.sim, control.request("a1", "b1", lambda: 1, label="p")
        )
        # the probe attempt fails and re-opens; the retry loop's next
        # attempt then fast-fails on the freshly opened circuit
        assert isinstance(error, RpcTimeout)
        assert registry.of("alpha", "beta").state == "open"
        states = [s for _, _, _, s in registry.transitions]
        assert states == ["open", "half_open", "open"]

    def test_before_open_duration_requests_still_fast_fail(self, monkeypatch):
        monkeypatch.setattr(rpc, "_BREAKER_OPEN_S", 50.0)
        topo, registry, control = _breaker_setup()
        self._trip(topo, control)
        topo.network.wan_link("alpha", "beta").recover()
        topo.sim.run(until=topo.sim.now + 10.0)  # < _BREAKER_OPEN_S
        value, error = _drive(
            topo.sim, control.request("a1", "b1", lambda: 1, label="e")
        )
        assert isinstance(error, CircuitOpenError)


class TestRegistryBookkeeping:
    def test_of_is_lazy_and_per_directed_link(self):
        topo = _topo()
        registry = BreakerRegistry(topo.sim)
        assert registry._breakers == {}
        ab = registry.of("alpha", "beta")
        ba = registry.of("beta", "alpha")
        assert ab is not ba
        assert registry.of("alpha", "beta") is ab

    def test_send_log_records_every_wire_message(self):
        topo, registry, control = _breaker_setup()
        _drive(
            topo.sim,
            control.request("a1", "b1", lambda: 1,
                            payload_mb=0.01, reply_mb=0.01),
        )
        assert registry.send_log == [(0.0, "alpha", "beta")]

    def test_open_violations_empty_in_correct_operation(self):
        topo, registry, control = _breaker_setup()
        topo.network.wan_link("alpha", "beta").fail()
        _drive(topo.sim, control.request("a1", "b1", lambda: 1, label="a"))
        _drive(topo.sim, control.request("a1", "b1", lambda: 2, label="b"))
        topo.network.wan_link("alpha", "beta").recover()
        topo.sim.run(until=topo.sim.now + 10.0)
        _drive(
            topo.sim,
            control.request("a1", "b1", lambda: 3,
                            payload_mb=0.01, reply_mb=0.01),
        )
        # sends happened while closed and as the half-open probe; the
        # open window itself stayed silent
        assert registry.open_violations(topo.sim.now) == []
        intervals = registry.open_intervals(topo.sim.now)
        assert len(intervals[("alpha", "beta")]) == 1

    def test_unfinished_open_window_extends_to_end_time(self):
        topo, registry, control = _breaker_setup()
        topo.network.wan_link("alpha", "beta").fail()
        _drive(topo.sim, control.request("a1", "b1", lambda: 1, label="a"))
        (start, end), = registry.open_intervals(topo.sim.now + 100.0)[
            ("alpha", "beta")
        ]
        assert end == topo.sim.now + 100.0


class TestStateMachineUnit:
    def test_window_slides_and_mixed_results_count(self, monkeypatch):
        monkeypatch.setattr(rpc, "_BREAKER_WINDOW", 4)
        breaker = CircuitBreaker()
        for _ in range(3):
            breaker.record_closed_success()
        assert breaker.record_failure(1.0) is False  # 1/4 failures
        assert breaker.state == "closed"
        assert breaker.record_failure(2.0) is True  # 2/4 = threshold
        assert breaker.state == "open"
        assert breaker.opened_at == 2.0

    def test_same_site_requests_bypass_the_breaker(self):
        builder = TopologyBuilder(seed=0).wan_defaults(0.02, 2.0)
        builder.site("alpha", hosts=[("a1", 1.0, 256), ("a2", 1.0, 256)])
        builder.site("beta", hosts=[("b1", 1.0, 256)])
        topo = builder.build()
        registry = BreakerRegistry(topo.sim)
        control = ControlPlane(
            topo.sim, topo.network, stats=RuntimeStats(), breakers=registry
        )
        value, error = _drive(
            topo.sim,
            control.request("a1", "a2", lambda: 7,
                            payload_mb=0.01, reply_mb=0.01),
        )
        assert error is None and value == 7
        assert registry.send_log == []  # LAN traffic is not breaker-gated
