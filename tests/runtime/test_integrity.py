"""Data-plane integrity (DESIGN §16): hashes, repair ladder, quarantine.

Simulated corruption is a *marker* on the transfer (the pure-evaluation
oracle stays intact: values are never mangled), so every repaired run
must still reproduce ``expected_output_hashes`` byte-for-byte — and a
run whose repair budget is exhausted must fail typed, never deliver.
"""

import itertools

import pytest

from repro.errors import (
    CorruptPayloadError,
    DataIntegrityError,
    PoisonedArtifactError,
)
from repro.runtime import ExecutionError
from repro.runtime.checkpoint import expected_output_hashes, final_output_hashes
from repro.runtime.integrity import (
    NULL_INTEGRITY,
    IntegrityManager,
    IntegrityPolicy,
)
from repro.scheduler import AllocationTable, TaskAssignment

from tests.runtime.conftest import build_runtime, chain_afg


def cross_site_table(afg, pattern, predicted=0.5):
    """Manual allocation alternating through ``pattern`` of (site, host)."""
    table = AllocationTable(afg.name, scheduler="manual")
    for task, (site, host) in zip(afg.topological_order(),
                                  itertools.cycle(pattern)):
        table.assign(TaskAssignment(task, site, (host,), predicted))
    return table


def integrity_runtime(policy=None, **kwargs):
    return build_runtime(
        data_integrity=policy or IntegrityPolicy(), **kwargs
    )


class TestIntegrityManagerLedger:
    def test_record_artifact_returns_canonical_hash(self):
        rt = integrity_runtime()
        h1 = rt.integrity.record_artifact("app", "t0", 0, [1, 2, 3], "a1")
        h2 = rt.integrity.record_artifact("other", "t0", 0, [1, 2, 3], "b1")
        assert h1 == h2  # content-based, not identity/location-based
        assert rt.integrity.recorded_hash("app", "t0", 0) == h1

    def test_rerecording_restores_a_lost_artifact(self):
        rt = integrity_runtime()
        rt.integrity.record_artifact("app", "t0", 0, "v", "a1")
        assert rt.integrity.drop_host("a1") == 1
        assert rt.integrity.artifact("app", "t0", 0).lost
        rt.integrity.record_artifact("app", "t0", 0, "v", "b1")
        artifact = rt.integrity.artifact("app", "t0", 0)
        assert not artifact.lost
        assert artifact.host == "b1"

    def test_drop_host_only_counts_live_artifacts(self):
        rt = integrity_runtime()
        rt.integrity.record_artifact("app", "t0", 0, "v", "a1")
        rt.integrity.record_artifact("app", "t1", 0, "w", "a2")
        assert rt.integrity.drop_host("a1") == 1
        assert rt.integrity.drop_host("a1") == 0  # already lost
        assert rt.integrity.artifacts_lost == 1

    def test_poison_marks_every_artifact_of_the_task(self):
        rt = integrity_runtime()
        rt.integrity.record_artifact("app", "t0", 0, "v", "a1")
        rt.integrity.record_artifact("app", "t0", 1, "w", "a1")
        rt.integrity.note_poison("app", "t0", "test")
        assert all(a.poisoned for a in rt.integrity.task_artifacts("app", "t0"))
        assert rt.integrity.poisoned == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            IntegrityPolicy(max_refetches=-1)
        with pytest.raises(ValueError):
            IntegrityPolicy(max_depth=0)


class TestRepairLadder:
    PATTERN = [("alpha", "a1"), ("beta", "b1")]

    def run_chain(self, rt, n=3, edge_mb=0.5):
        afg = chain_afg(n=n, scale=0.5, edge_mb=edge_mb)
        expected = expected_output_hashes(afg, rt.registry)
        table = cross_site_table(afg, self.PATTERN)
        proc = rt.execute_process(afg, table)
        return afg, expected, proc

    def test_clean_run_records_artifacts_and_consumptions(self):
        rt = integrity_runtime()
        afg, expected, proc = self.run_chain(rt)
        result = rt.sim.run_until_complete(proc)
        assert final_output_hashes(result) == expected
        # every task's outputs hashed, every edge consumed clean
        assert rt.integrity.recorded_hash("chain", "t0", 0) is not None
        assert len(rt.integrity.consumption_log) == len(afg.edges)
        assert all(c["clean"] for c in rt.integrity.consumption_log)
        assert rt.integrity.corruptions_detected == 0
        assert rt.integrity.incidents == []

    def test_transient_corruption_is_refetched(self):
        """Corruption armed for a window: detection + refetch, then the
        run completes with oracle-exact outputs."""
        rt = integrity_runtime()
        net = rt.topology.network
        net.set_corruption(0.97)  # first transfers corrupt, then disarm
        rt.sim.call_at(1.2, lambda: net.set_corruption(0.0))
        afg, expected, proc = self.run_chain(rt)
        result = rt.sim.run_until_complete(proc)
        assert final_output_hashes(result) == expected
        assert rt.integrity.corruptions_detected >= 1
        assert rt.integrity.refetches >= 1
        assert all(c["clean"] for c in rt.integrity.consumption_log)
        assert all(
            i["resolution"] in ("refetched", "regenerated")
            for i in rt.integrity.incidents
        )

    def test_permanent_corruption_poisons_and_fails_typed(self):
        rt = integrity_runtime(
            IntegrityPolicy(max_refetches=1, max_regenerations=1)
        )
        rt.topology.network.set_corruption(0.97)
        _afg, _expected, proc = self.run_chain(rt)
        with pytest.raises((DataIntegrityError, ExecutionError)):
            rt.sim.run_until_complete(proc)
        assert rt.integrity.poisoned >= 1
        assert any(
            i["resolution"] == "poisoned" for i in rt.integrity.incidents
        )
        # the damaged bytes were never consumed (I12)
        assert all(c["clean"] for c in rt.integrity.consumption_log)

    def test_regeneration_repairs_past_the_refetch_budget(self):
        """A corruption window longer than the refetch budget forces a
        lineage re-execution; the run still matches the oracle."""
        rt = integrity_runtime(
            IntegrityPolicy(max_refetches=0, max_regenerations=3)
        )
        net = rt.topology.network
        net.set_corruption(0.97)
        rt.sim.call_at(2.5, lambda: net.set_corruption(0.0))
        afg, expected, proc = self.run_chain(rt)
        result = rt.sim.run_until_complete(proc)
        assert final_output_hashes(result) == expected
        assert rt.integrity.regenerations >= 1
        assert any(
            i["resolution"] == "regenerated" for i in rt.integrity.incidents
        )
        # regeneration time is billed to the run, not free
        assert any(
            r.repair_regenerations > 0 for r in result.records.values()
        )

    def lineage_setup(self, policy):
        """t0,t1 on alpha, t2 on beta: only t1->t2 crosses the armed
        WAN.  On the FIRST corruption detection, t0's staged artifact
        is dropped and the link disarmed — so regenerating t1 finds a
        lost upstream input and must recurse to t0 first."""
        rt = integrity_runtime(policy)
        net = rt.topology.network
        afg = chain_afg(n=3, scale=1.0, edge_mb=4.0)
        table = cross_site_table(
            afg, [("alpha", "a1"), ("alpha", "a2"), ("beta", "b1")]
        )
        net.set_corruption(0.97)
        proc = rt.execute_process(afg, table)
        original = rt.integrity.note_corruption
        fired = []

        def on_first_corruption(*args, **kwargs):
            if not fired:
                fired.append(rt.sim.now)
                rt.integrity.drop_host("a1")
                net.set_corruption(0.0)
            return original(*args, **kwargs)

        rt.integrity.note_corruption = on_first_corruption
        return rt, afg, proc

    def test_lost_upstream_recurses_the_lineage_regeneration(self):
        rt, afg, proc = self.lineage_setup(
            IntegrityPolicy(max_refetches=0, max_regenerations=3)
        )
        result = rt.sim.run_until_complete(proc)
        assert final_output_hashes(result) \
            == expected_output_hashes(afg, rt.registry)
        # t1 regenerated at depth 1 AND its lost input t0 at depth 2
        assert rt.integrity.regenerations == 2
        assert rt.integrity.artifacts_lost == 1
        (incident,) = rt.integrity.incidents
        assert incident["resolution"] == "regenerated"
        assert incident["regenerations"] == 2
        assert not rt.integrity.artifact("chain", "t0", 0).lost

    def test_depth_bound_quarantines_deep_lineage(self):
        """Same lost-upstream scenario with max_depth=1: the recursion
        to t0 at depth 2 is forbidden, so the repair poisons instead."""
        rt, _afg, proc = self.lineage_setup(
            IntegrityPolicy(max_refetches=0, max_regenerations=3, max_depth=1)
        )
        with pytest.raises((DataIntegrityError, ExecutionError)):
            rt.sim.run_until_complete(proc)
        assert rt.integrity.poisoned >= 1
        (incident,) = rt.integrity.incidents
        assert incident["resolution"] == "poisoned"


class TestDefaultOffNeutrality:
    def test_fault_free_run_is_hash_identical_with_integrity_armed(self):
        """The feature costs nothing when off AND nothing when armed but
        fault-free: same trace, same metrics, zero corrupt streams."""
        from repro.metrics.registry import MetricsRegistry
        from repro.runtime import RuntimeConfig, VDCERuntime
        from repro.sim import TopologyBuilder
        from repro.trace.serialize import trace_hash
        from repro.trace.tracer import Tracer

        hashes = {}
        for label, policy in (("off", None), ("on", IntegrityPolicy())):
            builder = TopologyBuilder(seed=0).wan_defaults(0.02, 2.0)
            builder.site("alpha", hosts=[("a1", 1.0, 256), ("a2", 2.0, 256)])
            builder.site("beta", hosts=[("b1", 1.5, 256), ("b2", 3.0, 256)])
            rt = VDCERuntime(
                builder.build(),
                config=RuntimeConfig(data_integrity=policy),
                tracer=Tracer(), metrics=MetricsRegistry(),
            )
            afg = chain_afg(n=3)
            table = cross_site_table(afg, [("alpha", "a1"), ("beta", "b1")])
            rt.sim.run_until_complete(rt.execute_process(afg, table))
            # unarmed links never touch their corruption RNG stream —
            # fault-free runs draw zero extra randomness
            assert not [s for s in rt.sim._rngs if s.startswith("corrupt:")]
            hashes[label] = (
                trace_hash(rt.tracer),
                rt.export_metrics().snapshot_hash(),
            )
        assert hashes["off"] == hashes["on"]

    def test_runtime_has_no_manager_when_off(self, monkeypatch):
        from repro.runtime import integrity

        hashed = []
        monkeypatch.setattr(
            integrity, "value_hash", lambda value: hashed.append(value)
        )
        rt = build_runtime()
        assert rt.integrity is NULL_INTEGRITY
        afg = chain_afg(n=3)
        table = cross_site_table(afg, TestRepairLadder.PATTERN)
        rt.sim.run_until_complete(rt.execute_process(afg, table))
        assert hashed == []  # an off run computes no value_hash


@pytest.mark.gate
class TestReStagedCopiesAreVerified:
    """A rescheduled or speculative task's inputs move by the same
    verified copy as a first delivery (DESIGN §16.3)."""

    def restage_run(self, seed):
        """``src`` on a1, ``snk`` on b1 behind a 6 MB WAN edge; at 8 s
        b1 fails while every WAN link is armed to corrupt, so ``snk``'s
        input is re-staged onto b2 over the damaged link."""
        from repro.afg import ApplicationFlowGraph, TaskNode, TaskProperties

        rt = integrity_runtime(site_hosts={
            "alpha": [("a1", 1.0, 256), ("a2", 1.0, 256)],
            "beta": [("b1", 1.0, 256), ("b2", 4.0, 256)],
        }, seed=seed)
        afg = ApplicationFlowGraph("restage")
        afg.add_task(TaskNode(id="src", task_type="generic.source",
                              n_out_ports=1))
        afg.add_task(TaskNode(id="snk", task_type="generic.compute",
                              n_in_ports=1, n_out_ports=1,
                              properties=TaskProperties(workload_scale=8.0)))
        afg.connect("src", "snk", size_mb=6.0)
        table = cross_site_table(afg, [("alpha", "a1"), ("beta", "b1")])

        def strike():
            rt.topology.network.set_corruption(0.97)
            rt.topology.host("b1").fail()

        rt.sim.call_at(8.0, strike)
        return rt, rt.execute_process(afg, table)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_damaged_restage_is_detected_and_never_consumed(self, seed):
        rt, proc = self.restage_run(seed)
        with pytest.raises(PoisonedArtifactError):
            rt.sim.run_until_complete(proc)
        wan = rt.topology.network.wan_link("alpha", "beta")
        assert wan.corruption_log[0][1:] == ("restage:src->snk", "bitflip")
        assert rt.integrity.corruptions_detected == len(wan.corruption_log)
        (incident,) = rt.integrity.incidents
        assert incident["target"] == "restage:src->snk"
        assert incident["resolution"] == "poisoned"
        # only the clean first delivery was ever consumed
        assert [(c["edge"], c["clean"]) for c in
                rt.integrity.consumption_log] == [("src->snk", True)]

    def test_a_speculative_feed_that_fails_typed_abandons_the_backup(self):
        """t1 straggles on a1 and beta bids for its backup, but the
        backup's input arrives damaged with no repair budget left: the
        feed fails typed, speculation is abandoned and the primary
        finishes on the straggler."""
        from repro.runtime.straggler import SpeculationPolicy

        rt = integrity_runtime(
            IntegrityPolicy(max_refetches=0, max_regenerations=0), seed=1,
            site_hosts={"alpha": [("a1", 1.0, 256)],
                        "beta": [("b1", 1.0, 256)]},
            speculation=SpeculationPolicy(trigger_multiple=1.5,
                                          check_period_s=0.5),
        )
        afg = chain_afg(n=2, scale=2.0, edge_mb=4.0, name="unfed")
        table = cross_site_table(afg, [("alpha", "a1")], predicted=2.0)
        proc = rt.execute_process(afg, table)
        rt.sim.call_at(3.0, lambda: rt.topology.host("a1").set_slowdown(10.0))
        rt.sim.call_at(6.0, lambda: rt.topology.network.set_corruption(0.97))
        result = rt.sim.run_until_complete(proc)
        assert result.records["t1"].hosts == ("a1",)
        assert rt.stats.speculative_launches == 0
        (incident,) = rt.integrity.incidents
        assert incident["target"] == "spec:t0->t1"
        assert incident["resolution"] == "poisoned"

    def test_a_clean_restage_is_recorded_under_its_label(self):
        rt, proc = self.restage_run(1)
        rt.sim.call_at(10.0, lambda: rt.topology.network.set_corruption(0.0))
        result = rt.sim.run_until_complete(proc)
        assert result.records["snk"].hosts == ("b2",)
        assert rt.integrity.corruptions_detected == 0
        assert [c["edge"] for c in rt.integrity.consumption_log] == [
            "src->snk", "restage:src->snk",
        ]
