"""Metrics determinism: the snapshot hash as the trace hash's counterpart.

Mirrors tests/trace/test_determinism.py — the full stack (monitoring +
load generators + scheduling + execution) runs twice with the same seed
and must produce byte-identical canonical metrics snapshots.
"""

import pytest

from repro import VDCE, DeploymentSpec
from repro.metrics.export import (
    METRICS_SCHEMA_VERSION,
    prometheus_text,
    snapshot_to_json,
)
from repro.metrics.registry import MetricsRegistry
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.scheduler import SiteScheduler, select_hosts
from repro.sim.workload import OrnsteinUhlenbeckLoad, attach_generators
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.workloads import (
    RandomDAGConfig,
    bag_of_tasks,
    linear_solver_afg,
    random_dag,
)


def run_full_stack(seed: int, scale: float = 0.15, tracer=NULL_TRACER):
    """One instrumented end-to-end run on a 2-site topology (causal spans
    too when ``tracer`` records)."""
    env = VDCE.standard(n_sites=2, hosts_per_site=3, seed=seed,
                        metrics=MetricsRegistry(), tracer=tracer,
                        runtime_config=RuntimeConfig(
                            causal_spans=tracer is not NULL_TRACER))
    attach_generators(
        env.sim, env.topology.all_hosts,
        lambda: OrnsteinUhlenbeckLoad(mean=0.8, sigma=0.3, period_s=1.0),
    )
    env.start_monitoring()
    result = env.submit(linear_solver_afg(scale=scale), k=1)
    env.advance(5.0)  # let monitoring/echo run past the application
    return env, result


class TestMetricsDeterminism:
    def test_same_seed_byte_identical_snapshot(self):
        env_a, result_a = run_full_stack(seed=7)
        env_b, result_b = run_full_stack(seed=7)
        snap_a, snap_b = env_a.metrics_snapshot(), env_b.metrics_snapshot()
        assert snapshot_to_json(snap_a) == snapshot_to_json(snap_b)
        assert env_a.metrics_hash() == env_b.metrics_hash()
        assert prometheus_text(env_a.runtime.export_metrics()) \
            == prometheus_text(env_b.runtime.export_metrics())
        assert result_a.makespan == result_b.makespan

    def test_different_seed_different_snapshot(self):
        env_a, _ = run_full_stack(seed=7)
        env_c, _ = run_full_stack(seed=8)
        assert env_a.metrics_hash() != env_c.metrics_hash()

    def test_instrumented_run_covers_the_stack(self):
        env, _ = run_full_stack(seed=3)
        snap = env.metrics_snapshot()
        # kernel
        assert "sim_events_total" in snap["counters"]
        assert "sim_queue_depth" in snap["histograms"]
        assert "sim_virtual_time_seconds" in snap["gauges"]
        # monitoring pipeline
        assert "vdce_monitor_reports_by_host_total" in snap["counters"]
        assert "vdce_host_load" in snap["series"]
        assert "vdce_site_queue_depth" in snap["series"]
        assert "vdce_workload_suppression_ratio" in snap["gauges"]
        # scheduler
        assert "vdce_schedule_decisions_total" in snap["counters"]
        # Fig. 3 as a whole-AFG pass is off the per-round path: the
        # exchange carries bid sheets, only a direct select_hosts bids
        assert "vdce_host_bids_total" not in snap["counters"]
        assert "vdce_sites_bid_total" in snap["counters"]
        assert "vdce_predicted_task_seconds" in snap["histograms"]
        assert "vdce_bid_latency_seconds" in snap["histograms"]
        assert "vdce_schedule_seconds" in snap["histograms"]
        # execution / data movement
        assert "vdce_transfer_mb" in snap["histograms"]
        assert "vdce_transfer_latency_seconds" in snap["histograms"]
        assert "vdce_task_runtime_seconds" in snap["histograms"]
        # prediction refinement
        assert "vdce_prediction_error_ratio" in snap["histograms"]
        # RuntimeStats unification: the dataclass fields become counters
        assert "vdce_data_transfers_total" in snap["counters"]

    def test_a_direct_select_hosts_counts_its_bids(self):
        env = VDCE.standard(n_sites=1, hosts_per_site=3, seed=3)
        afg, metrics = linear_solver_afg(scale=0.15), MetricsRegistry()
        bids = select_hosts(afg, env.repository(), metrics=metrics)
        counter = metrics.snapshot()["counters"]["vdce_host_bids_total"]
        assert sum(counter["values"].values()) == len(bids) == len(afg)

    def test_timestamps_come_from_the_virtual_clock(self):
        env, _ = run_full_stack(seed=5)
        snap = env.metrics_snapshot()
        horizon = env.sim.now
        for family in snap["series"].values():
            for points in family["values"].values():
                for t, _value in points:
                    assert 0.0 <= t <= horizon

    def test_stats_export_matches_dataclass(self):
        env, _ = run_full_stack(seed=2)
        registry = env.runtime.export_metrics()
        for name, value in env.runtime.stats.as_dict().items():
            counter = registry.get(f"vdce_{name}_total")
            assert counter is not None, name
            assert counter.value() == float(value)

    def test_disabled_metrics_record_nothing(self):
        env = VDCE.standard(n_sites=2, hosts_per_site=2, seed=0)
        env.start_monitoring()
        env.submit(linear_solver_afg(scale=0.1), k=1)
        assert not env.metrics.enabled
        snap = env.metrics_snapshot()
        assert snap == {"schema_version": METRICS_SCHEMA_VERSION,
                        "counters": {}, "gauges": {}, "histograms": {},
                        "series": {}}


def two_by_four_hash(afg, tracer) -> str:
    """Metrics hash of ``afg`` run on 2 sites x 4 hosts, monitoring on."""
    rt = VDCERuntime(DeploymentSpec.grid(2, 4).build_topology(),
                     config=RuntimeConfig(causal_spans=tracer is not NULL_TRACER),
                     tracer=tracer, metrics=MetricsRegistry())
    rt.start_monitoring()
    rt.sim.run_until_complete(rt.sim.process(rt.run_process(
        afg, SiteScheduler(k=1, model=rt.model), "site-0",
        execute_payloads=False)))
    rt.export_metrics()
    return rt.metrics.snapshot_hash()


@pytest.mark.parametrize("make_afg", [
    lambda: bag_of_tasks(n=64, cost=4.0, heterogeneity=0.3, seed=1),
    lambda: random_dag(RandomDAGConfig(
        n_tasks=64, width=8, mean_cost=3.0, ccr=0.3, seed=2)),
], ids=["bag", "dag"])
def test_metrics_do_not_depend_on_whether_the_trace_is_recorded(make_afg):
    """The folds run on a relay when nothing records (DESIGN §8): a
    metrics-only run must fold exactly what a traced one does."""
    assert two_by_four_hash(make_afg(), NULL_TRACER) == two_by_four_hash(
        make_afg(), Tracer())


def test_full_stack_metrics_do_not_depend_on_the_trace():
    metrics_only, _ = run_full_stack(seed=4)
    traced, _ = run_full_stack(seed=4, tracer=Tracer())
    assert len(traced.tracer) > 0 and len(metrics_only.tracer) == 0
    assert metrics_only.metrics_hash() == traced.metrics_hash()
