"""Tests for the DSM extension and the priority admission queue."""

import pytest

from repro.runtime.admission import AdmissionQueue
from repro.runtime.dsm import DSM, DSMError
from repro.sim.kernel import Timeout

from tests.runtime.conftest import build_runtime, chain_afg


def make_dsm():
    rt = build_runtime()
    dsm = DSM(rt.sim, rt.topology.network)
    return rt, dsm


def run(sim, gen):
    return sim.run_until_complete(sim.process(gen))


class TestDSM:
    def test_allocate_and_home_read_is_free(self):
        rt, dsm = make_dsm()
        dsm.allocate("x", "a1", initial=41)

        def reader():
            value = yield from dsm.read("x", "a1")
            return (value, rt.sim.now)

        value, t = run(rt.sim, reader())
        assert value == 41
        assert t == 0.0  # home read costs nothing
        assert dsm.stats.read_hits == 1

    def test_remote_read_fetches_then_caches(self):
        rt, dsm = make_dsm()
        dsm.allocate("x", "a1", initial=7)

        def reader():
            v1 = yield from dsm.read("x", "b1")  # miss: cross-site fetch
            t1 = rt.sim.now
            v2 = yield from dsm.read("x", "b1")  # hit: free
            return (v1, v2, t1, rt.sim.now)

        v1, v2, t1, t2 = run(rt.sim, reader())
        assert v1 == v2 == 7
        assert t1 > 0.0
        assert t2 == t1  # second read free
        assert dsm.stats.read_misses == 1
        assert dsm.stats.read_hits == 1

    def test_write_invalidates_cached_copies(self):
        rt, dsm = make_dsm()
        dsm.allocate("x", "a1", initial=1)

        def scenario():
            yield from dsm.read("x", "b1")  # b1 caches version 0
            yield from dsm.write("x", 2, "a2")  # a2 writes via home
            value = yield from dsm.read("x", "b1")  # must re-fetch
            return value

        assert run(rt.sim, scenario()) == 2
        assert dsm.stats.invalidations == 1
        assert dsm.stats.read_misses == 2

    def test_sequential_consistency_no_stale_read_after_write(self):
        rt, dsm = make_dsm()
        dsm.allocate("flag", "a1", initial=0)
        observed = []

        def writer():
            yield from dsm.write("flag", 1, "b1")
            observed.append(("written", rt.sim.now))

        def reader():
            # wait until after the write completes, then read from a third host
            writer_proc = rt.sim.process(writer())
            yield writer_proc
            value = yield from dsm.read("flag", "a2")
            observed.append(("read", value))

        run(rt.sim, reader())
        assert ("read", 1) in observed

    def test_fetch_add_is_atomic_across_hosts(self):
        rt, dsm = make_dsm()
        dsm.allocate("counter", "a1", initial=0)

        def incrementer(host, times):
            for _ in range(times):
                yield from dsm.fetch_add("counter", 1, host)

        procs = [
            rt.sim.process(incrementer(h, 5))
            for h in ("a1", "a2", "b1", "b2")
        ]

        def waiter():
            for p in procs:
                yield p
            value = yield from dsm.read("counter", "a1")
            return value

        assert run(rt.sim, waiter()) == 20

    def test_errors(self):
        rt, dsm = make_dsm()
        dsm.allocate("x", "a1")
        with pytest.raises(DSMError):
            dsm.allocate("x", "a1")
        with pytest.raises(DSMError):
            run(rt.sim, dsm.read("ghost", "a1"))
        with pytest.raises(Exception):
            dsm.allocate("y", "no-such-host")

    def test_hit_rate(self):
        rt, dsm = make_dsm()
        dsm.allocate("x", "a1", initial=0)

        def reads():
            for _ in range(4):
                yield from dsm.read("x", "b1")

        run(rt.sim, reads())
        assert dsm.stats.hit_rate() == pytest.approx(0.75)


class TestAdmissionQueue:
    def test_priority_order_respected(self):
        rt = build_runtime()
        repo = rt.repositories["alpha"]
        repo.users.add_user("low", "x", priority=1)
        repo.users.add_user("high", "x", priority=9)
        queue = AdmissionQueue(rt, max_concurrent=1)
        # all three enqueue before the dispatcher first runs, so pure
        # priority order applies (FIFO within equal priorities)
        s_first = queue.submit(chain_afg(n=2, name="low-a"), "low")
        s_low = queue.submit(chain_afg(n=2, name="low-b"), "low")
        s_high = queue.submit(chain_afg(n=2, name="high-c"), "high")
        done = []

        def waiter():
            for s in (s_first, s_low, s_high):
                result = yield s
                done.append(result.application)

        rt.sim.run_until_complete(rt.sim.process(waiter()))
        assert queue.admitted_order == ["high-c", "low-a", "low-b"]
        assert len(done) == 3

    def test_fifo_within_priority(self):
        rt = build_runtime()
        queue = AdmissionQueue(rt, max_concurrent=1)
        signals = [
            queue.submit(chain_afg(n=1, name=f"app{i}"), "admin")
            for i in range(3)
        ]

        def waiter():
            for s in signals:
                yield s

        rt.sim.run_until_complete(rt.sim.process(waiter()))
        assert queue.admitted_order == ["app0", "app1", "app2"]

    def test_concurrency_limit(self):
        rt = build_runtime()
        queue = AdmissionQueue(rt, max_concurrent=2)
        signals = [
            queue.submit(chain_afg(n=2, scale=5.0, name=f"c{i}"), "admin")
            for i in range(3)
        ]
        max_running = []

        def prober():
            while not all(s.triggered for s in signals):
                max_running.append(queue.running)
                yield Timeout(0.5)

        rt.sim.process(prober())

        def waiter():
            for s in signals:
                yield s

        rt.sim.run_until_complete(rt.sim.process(waiter()))
        assert max(max_running) == 2

    def test_failure_propagates_and_frees_slot(self):
        rt = build_runtime()
        queue = AdmissionQueue(rt, max_concurrent=1)
        from repro.afg import ApplicationFlowGraph, TaskNode, TaskProperties

        bad = ApplicationFlowGraph("bad")
        bad.add_task(TaskNode(id="t", task_type="generic.source", n_out_ports=1,
                              properties=TaskProperties(
                                  preferred_machine="nowhere")))
        s_bad = queue.submit(bad, "admin")
        s_ok = queue.submit(chain_afg(n=1, name="ok"), "admin")
        outcome = {}

        def waiter():
            try:
                yield s_bad
            except Exception as exc:
                outcome["bad"] = str(exc)
            result = yield s_ok
            outcome["ok"] = result.application

        rt.sim.run_until_complete(rt.sim.process(waiter()))
        assert "no site can run" in outcome["bad"]
        assert outcome["ok"] == "ok"

    def test_queue_wait_recorded_in_stats(self):
        # pins the CLI-facing contract: per-application queue waits land
        # in RuntimeStats.queue_waits and sum into queue_wait_s
        rt = build_runtime()
        queue = AdmissionQueue(rt, max_concurrent=1)
        signals = [
            queue.submit(chain_afg(n=2, scale=2.0, name=f"w{i}"), "admin")
            for i in range(3)
        ]

        def waiter():
            for s in signals:
                yield s

        rt.sim.run_until_complete(rt.sim.process(waiter()))
        waits = rt.stats.queue_waits
        assert set(waits) == {"w0", "w1", "w2"}
        assert waits["w0"] == 0.0  # an idle queue admits immediately
        assert waits["w1"] > 0.0
        assert waits["w2"] > waits["w1"]  # FIFO: later copies wait longer
        assert rt.stats.queue_wait_s == pytest.approx(sum(waits.values()))
        assert rt.stats.as_dict()["queue_wait_s"] == pytest.approx(
            rt.stats.queue_wait_s
        )

    def test_unknown_user_rejected(self):
        rt = build_runtime()
        queue = AdmissionQueue(rt)
        with pytest.raises(KeyError):
            queue.submit(chain_afg(n=1), "ghost")

    def test_validation(self):
        rt = build_runtime()
        with pytest.raises(ValueError):
            AdmissionQueue(rt, max_concurrent=0)
