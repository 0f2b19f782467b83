"""Tests for metrics and visualisation."""

import pytest

from repro.metrics import (
    critical_path_cost,
    format_table,
    host_utilization,
    serial_cost,
    slr,
    speedup,
    summarize_result,
)
from repro.scheduler import SiteScheduler
from repro.viz import gantt, workload_sparkline
from repro.workloads import linear_pipeline, fork_join

from tests.runtime.conftest import build_runtime, chain_afg


class TestScheduleMetrics:
    def test_critical_path_of_pipeline_is_total(self):
        afg = linear_pipeline(n_stages=4, cost=2.0)
        rt = build_runtime()
        perf = rt.repositories["alpha"].task_perf
        assert critical_path_cost(afg, perf) == pytest.approx(8.0)
        assert serial_cost(afg, perf) == pytest.approx(8.0)

    def test_fork_join_cp_vs_serial(self):
        afg = fork_join(width=4, branch_cost=3.0, head_cost=1.0)
        rt = build_runtime()
        perf = rt.repositories["alpha"].task_perf
        assert critical_path_cost(afg, perf) == pytest.approx(1 + 3 + 1)
        assert serial_cost(afg, perf) == pytest.approx(1 + 4 * 3 + 1)

    def test_custom_cost_fn(self):
        afg = linear_pipeline(n_stages=3, cost=1.0)
        assert critical_path_cost(afg, cost=lambda t: 5.0) == pytest.approx(15.0)
        with pytest.raises(ValueError):
            critical_path_cost(afg)

    def test_slr_speedup_validation(self):
        assert slr(10.0, 5.0) == 2.0
        assert speedup(5.0, 10.0) == 2.0
        with pytest.raises(ValueError):
            slr(1.0, 0.0)
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)


class TestResultSummary:
    def test_summarize_execution(self):
        rt = build_runtime()
        afg = chain_afg(n=3, scale=2.0)
        table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        result = rt.sim.run_until_complete(rt.execute_process(afg, table))
        summary = summarize_result(result, afg,
                                   rt.repositories["alpha"].task_perf)
        assert summary.n_tasks == 3
        assert summary.makespan == pytest.approx(result.makespan)
        assert summary.slr >= 1.0 or summary.speedup > 1.0  # fast hosts can beat base
        assert summary.prediction_error >= 0.0
        assert summary.scheduler == "vdce"

    def test_host_utilization(self):
        rt = build_runtime()
        afg = chain_afg(n=3, scale=2.0)
        table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        rt.sim.run_until_complete(rt.execute_process(afg, table))
        util = host_utilization(rt.topology)
        assert set(util) == {"a1", "a2", "b1", "b2"}
        assert all(0.0 <= u <= 1.0 for u in util.values())
        assert any(u > 0 for u in util.values())
        with pytest.raises(ValueError):
            host_utilization(rt.topology, horizon=0.0)


class TestFormatTable:
    def test_renders_columns_aligned(self):
        text = format_table(
            [
                {"scheduler": "vdce", "makespan_s": 1.25, "sites": 2},
                {"scheduler": "random", "makespan_s": 10.5, "sites": 1},
            ],
            title="E2",
        )
        lines = text.splitlines()
        assert lines[0] == "E2"
        assert "scheduler" in lines[1]
        assert "vdce" in lines[3]
        assert "random" in lines[4]

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_union_of_columns(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}])
        assert "b" in text.splitlines()[0]


class TestViz:
    def run_app(self):
        rt = build_runtime()
        afg = chain_afg(n=3, scale=2.0)
        table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        return rt.sim.run_until_complete(rt.execute_process(afg, table))

    def test_gantt_contains_hosts_and_tasks(self):
        result = self.run_app()
        chart = gantt(result)
        for record in result.records.values():
            assert record.hosts[0] in chart
        assert "makespan" in chart
        assert "=" in chart or "t0" in chart

    def test_gantt_width_validation(self):
        result = self.run_app()
        with pytest.raises(ValueError):
            gantt(result, width=5)

    def test_sparkline_shapes(self):
        line = workload_sparkline([0.0, 0.5, 1.0], label="h0")
        assert line.startswith("h0 |")
        assert line.endswith("max=1.00")
        assert len(line.split("|")[1]) == 3

    def test_sparkline_fixed_scale_and_validation(self):
        a = workload_sparkline([1.0], max_value=10.0)
        b = workload_sparkline([1.0], max_value=1.0)
        assert a != b
        with pytest.raises(ValueError):
            workload_sparkline([-1.0])
        assert workload_sparkline([]) == "|"
        assert workload_sparkline([0.0, 0.0]).count("|") == 2
