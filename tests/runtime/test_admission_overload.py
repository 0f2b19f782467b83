"""Overload protection: bounded admission, shedding, TTLs, brownout.

Exercises the :class:`~repro.runtime.admission.AdmissionPolicy` ladder
(queue bound with deterministic victim choice, per-user rate limits,
deadline/TTL expiry) and the brownout hooks that shrink
concurrency and refuse work under federation overload.
"""

import pytest

from repro.repository.users import UnknownUserError
from repro.runtime.admission import (
    AdmissionExpired,
    AdmissionPolicy,
    AdmissionQueue,
    AdmissionRejected,
)
from repro.net.rpc import NULL_BREAKERS
from repro.runtime.overload import NULL_BROWNOUT, BrownoutController
from repro.runtime.straggler import NULL_HEALTH

from tests.runtime.conftest import build_runtime, chain_afg


def wait_all(rt, signals):
    """Drive every signal to a terminal state; return name -> outcome."""
    outcomes = {}

    def waiter():
        for signal in signals:
            try:
                result = yield signal
                outcomes[result.application] = "completed"
            except AdmissionRejected as exc:
                outcomes[exc.application] = f"rejected:{exc.reason}"
            except AdmissionExpired as exc:
                outcomes[exc.application] = "expired"

    rt.sim.run_until_complete(rt.sim.process(waiter()))
    return outcomes


class TestBoundedQueue:
    def test_overflow_rejects_newcomer_on_equal_priority(self):
        rt = build_runtime()
        queue = AdmissionQueue(
            rt, max_concurrent=1, policy=AdmissionPolicy(max_queued=2)
        )
        # all four land before the dispatcher runs: two queue, the rest
        # (same priority, latest arrival = worst badness) are rejected
        signals = [
            queue.submit(chain_afg(n=1, name=f"b{i}"), "admin")
            for i in range(4)
        ]
        outcomes = wait_all(rt, signals)
        assert outcomes["b0"] == outcomes["b1"] == "completed"
        assert outcomes["b2"] == "rejected:queue_full"
        assert outcomes["b3"] == "rejected:queue_full"
        assert queue.peak_queued <= 2

    def test_overflow_sheds_lowest_priority_victim(self):
        rt = build_runtime()
        repo = rt.repositories["alpha"]
        repo.users.add_user("low", "x", priority=1)
        repo.users.add_user("high", "x", priority=9)
        queue = AdmissionQueue(
            rt, max_concurrent=1, policy=AdmissionPolicy(max_queued=1)
        )
        s_running = queue.submit(chain_afg(n=2, scale=5.0, name="first"),
                                 "admin")
        rt.sim.run(until=0.001)  # let the dispatcher start "first"
        assert queue.running == 1 and queue.queued == 0
        s_low = queue.submit(chain_afg(n=1, name="victim"), "low")
        s_high = queue.submit(chain_afg(n=1, name="vip"), "high")
        outcomes = wait_all(rt, [s_running, s_low, s_high])
        # the high-priority arrival displaced the queued low one
        assert outcomes["victim"] == "rejected:queue_full"
        assert outcomes["vip"] == "completed"
        assert outcomes["first"] == "completed"
        assert [e["application"] for e in queue.shed_log] == ["victim"]

    def test_shed_log_and_counts(self):
        rt = build_runtime()
        queue = AdmissionQueue(
            rt, max_concurrent=1, policy=AdmissionPolicy(max_queued=1)
        )
        signals = [
            queue.submit(chain_afg(n=1, name=f"s{i}"), "admin")
            for i in range(3)
        ]
        wait_all(rt, signals)
        assert [e["application"] for e in queue.shed_log] == ["s1", "s2"]
        for entry in queue.shed_log:
            assert entry["reason"] == "queue_full"
            assert entry["user"] == "admin"

    def test_ttl_expires_queued_entry(self):
        rt = build_runtime()
        queue = AdmissionQueue(
            rt, max_concurrent=1,
            policy=AdmissionPolicy(default_ttl_s=0.001),
        )
        # the first admits instantly; the second sits queued past its TTL
        s0 = queue.submit(chain_afg(n=2, scale=5.0, name="runs"), "admin")
        s1 = queue.submit(chain_afg(n=1, name="stale"), "admin")
        outcomes = wait_all(rt, [s0, s1])
        assert outcomes["runs"] == "completed"
        assert outcomes["stale"] == "expired"
        assert queue.shed_log[0]["reason"] == "expired"

    def test_deadline_expires_queued_entry(self):
        rt = build_runtime()
        queue = AdmissionQueue(
            rt, max_concurrent=1, policy=AdmissionPolicy()
        )
        s0 = queue.submit(chain_afg(n=2, scale=5.0, name="runs"), "admin")
        s1 = queue.submit(chain_afg(n=1, name="late"), "admin",
                          deadline_s=0.001)
        outcomes = wait_all(rt, [s0, s1])
        assert outcomes["late"] == "expired"

    def test_no_policy_is_the_legacy_unbounded_queue(self):
        rt = build_runtime()
        queue = AdmissionQueue(rt, max_concurrent=1)
        signals = [
            queue.submit(chain_afg(n=1, name=f"p{i}"), "admin")
            for i in range(3)
        ]
        outcomes = wait_all(rt, signals)
        assert set(outcomes.values()) == {"completed"}
        assert queue.shed_log == []


class TestUserLimits:
    def test_rate_limit_rejects_burst_overflow(self):
        rt = build_runtime()
        queue = AdmissionQueue(
            rt, max_concurrent=4,
            policy=AdmissionPolicy(user_rate_per_s=0.1),
        )
        signals = [
            queue.submit(chain_afg(n=1, name=f"r{i}"), "admin")
            for i in range(4)
        ]
        outcomes = wait_all(rt, signals)
        assert outcomes["r0"] == "completed"
        assert outcomes["r1"] == "completed"
        assert outcomes["r2"] == "rejected:rate"
        assert outcomes["r3"] == "rejected:rate"

    def test_unknown_user_raises_typed_error(self):
        rt = build_runtime()
        queue = AdmissionQueue(rt)
        with pytest.raises(UnknownUserError) as excinfo:
            queue.submit(chain_afg(n=1), "ghost")
        assert excinfo.value.user_name == "ghost"
        # regression: UnknownUserError still is a KeyError for callers
        # that pinned the old contract
        assert isinstance(excinfo.value, KeyError)


class TestBrownoutLadder:
    def make_controller(self, level_occupancy):
        rt = build_runtime()
        controller = BrownoutController(rt.sim)
        controller.update("alpha", "g0", level_occupancy)
        return rt, controller

    def test_levels(self):
        _, c = self.make_controller(0.5)
        assert c.level == 0 and c.speculation_allowed()
        c.update("alpha", "g0", 0.75)
        assert c.level == 1 and not c.speculation_allowed()
        c.update("alpha", "g0", 0.9)
        assert c.level == 2
        assert c.concurrency_limit(4) == 2
        assert c.concurrency_limit(1) == 1  # never below 1
        c.update("alpha", "g0", 0.99)
        assert c.level == 3 and c.refuse_new_work()
        assert len(c.shifts) == 3

    def test_federation_mean(self):
        _, c = self.make_controller(1.0)
        c.update("beta", "g1", 0.0)
        assert c.federation_occupancy() == pytest.approx(0.5)

    def test_brownout_refuses_admission(self):
        rt = build_runtime(overload=True)
        rt.brownout.update("alpha", "g0", 1.0)  # critical
        assert rt.brownout.refuse_new_work()
        queue = AdmissionQueue(rt, policy=AdmissionPolicy())
        outcomes = wait_all(
            rt, [queue.submit(chain_afg(n=1, name="no"), "admin")]
        )
        assert outcomes["no"] == "rejected:brownout"

    @pytest.mark.gate
    def test_brownout_refuses_admission_without_a_policy(self):
        """A queue built without a policy is the all-off policy's queue:
        a critical brownout refuses its submissions too."""
        rt = build_runtime(overload=True)
        rt.brownout.update("alpha", "g0", 1.0)  # critical
        queue = AdmissionQueue(rt)
        outcomes = wait_all(
            rt, [queue.submit(chain_afg(n=1, name="no"), "admin")]
        )
        assert outcomes["no"] == "rejected:brownout"

    def test_brownout_shrinks_concurrency(self):
        rt = build_runtime(overload=True)
        rt.brownout.update("alpha", "g0", 0.9)  # severe
        queue = AdmissionQueue(rt, max_concurrent=4)
        assert queue._concurrency_limit() == 2

    def test_unarmed_runtime_has_no_brownout(self):
        """Off is the shared null object, chosen where the runtime is
        wired: level 0 for good, no breaker, no health score."""
        rt = build_runtime()
        assert rt.brownout is NULL_BROWNOUT
        assert rt.breakers is NULL_BREAKERS
        assert rt.health is NULL_HEALTH
        assert rt.brownout.concurrency_limit(4) == 4
        assert rt.brownout.speculation_allowed()
        assert not rt.brownout.refuse_new_work()


class TestShedAttribution:
    def test_explain_reports_shed_wait_time(self):
        from repro.obs.attribution import ATTRIBUTION_SCHEMA_VERSION, explain
        from repro.runtime.vdce_runtime import RuntimeConfig, VDCERuntime
        from repro.sim import TopologyBuilder
        from repro.trace.tracer import Tracer

        builder = TopologyBuilder(seed=0).wan_defaults(0.02, 2.0)
        builder.site("alpha", hosts=[("a1", 1.0, 256)])
        rt = VDCERuntime(
            builder.build(),
            config=RuntimeConfig(causal_spans=True),
            tracer=Tracer(),
        )
        queue = AdmissionQueue(
            rt, max_concurrent=1,
            policy=AdmissionPolicy(default_ttl_s=0.5),
        )
        s0 = queue.submit(chain_afg(n=2, scale=5.0, name="runs"), "admin")
        s1 = queue.submit(chain_afg(n=1, name="starved"), "admin")
        outcomes = wait_all(rt, [s0, s1])
        assert outcomes["starved"] == "expired"
        report = explain(rt.tracer.events())
        assert report["schema_version"] == ATTRIBUTION_SCHEMA_VERSION
        breakdown = report["apps"]["starved"]["breakdown"]
        # the whole wait (submit -> TTL expiry) is attributed to "shed"
        assert breakdown["shed"] == pytest.approx(0.5)
        assert breakdown["execution"] == 0.0


class TestDeterminism:
    def run_once(self):
        rt = build_runtime()
        queue = AdmissionQueue(
            rt, max_concurrent=1,
            policy=AdmissionPolicy(max_queued=2, default_ttl_s=1.0),
        )
        signals = [
            queue.submit(chain_afg(n=2, scale=2.0, name=f"d{i}"), "admin")
            for i in range(6)
        ]
        outcomes = wait_all(rt, signals)
        return outcomes, list(queue.admitted_order), list(queue.shed_log)

    def test_same_config_same_outcome(self):
        assert self.run_once() == self.run_once()
