"""Tests for execution timelines and the composed report."""

import pytest

from repro.metrics import busy_intervals, parallel_efficiency
from repro.scheduler import SiteScheduler
from repro.viz import execution_report
from repro.workloads import bag_of_tasks, linear_pipeline

from tests.runtime.conftest import build_runtime, chain_afg


def run(afg, site_hosts=None, k=0):
    rt = build_runtime(site_hosts=site_hosts)
    table = SiteScheduler(k=k).schedule(afg, rt.federation_view())
    result = rt.sim.run_until_complete(
        rt.execute_process(afg, table, execute_payloads=False)
    )
    return result


class TestTimeline:
    def test_busy_intervals_cover_all_records(self):
        result = run(chain_afg(n=3, scale=2.0))
        intervals = busy_intervals(result)
        total = sum(len(v) for v in intervals.values())
        # each sequential task contributes one interval per host
        assert total == 3
        for host_intervals in intervals.values():
            assert host_intervals == sorted(host_intervals)
            for start, finish in host_intervals:
                assert finish >= start

    def test_concurrency_profile_starts_and_ends_at_zero(self):
        result = run(bag_of_tasks(n=6, cost=2.0))
        spans = [(r.started_at, r.finished_at)
                 for r in result.records.values()]
        first = min(start for start, _ in spans)
        last = max(finish for _, finish in spans)

        def running(t):
            return sum(start <= t < finish for start, finish in spans)

        assert running(first - 1e-9) == 0 and running(last) == 0
        # the bag really ran in parallel
        assert max(running(start) for start, _ in spans) >= 2

    def test_chain_has_concurrency_one(self):
        result = run(chain_afg(n=4, scale=1.0))
        spans = sorted((r.started_at, r.finished_at)
                       for r in result.records.values())
        assert all(finish <= start
                   for (_, finish), (start, _) in zip(spans, spans[1:]))

    def test_parallel_efficiency_bounds_and_ordering(self):
        # a bag on 2 hosts keeps both busy; a chain on 1 host is "efficient"
        # on its single host; a chain spread over hosts is inefficient
        bag = run(bag_of_tasks(n=8, cost=2.0),
                  site_hosts={"alpha": [("h1", 1.0, 256), ("h2", 1.0, 256)]})
        bag_eff = parallel_efficiency(bag)
        assert 0.5 < bag_eff <= 1.01
        chain = run(linear_pipeline(n_stages=4, cost=2.0, edge_mb=5.0),
                    site_hosts={"alpha": [("h1", 1.0, 256),
                                          ("h2", 1.0, 256)]})
        assert parallel_efficiency(chain) <= bag_eff + 1e-9


class TestExecutionReport:
    def test_report_contains_all_sections(self):
        result = run(chain_afg(n=3, scale=1.0))
        report = execution_report(result)
        for needle in (
            "execution report: chain",
            "placement & timing",
            "makespan",          # gantt header
            "phases:",
            "data plane:",
            "parallel eff.",
        ):
            assert needle in report
        # one row per task
        for task_id in result.records:
            assert task_id in report

    def test_cli_report_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "linear-solver", "--scale", "0.15",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "execution report" in out
        assert "parallel eff." in out

    def test_web_report_endpoint(self):
        pytest.importorskip("flask")
        from repro.editor.webapp import create_webapp

        rt = build_runtime()
        app = create_webapp(rt, site="alpha")
        app.config["TESTING"] = True
        client = app.test_client()
        token = client.post(
            "/login", json={"user": "admin", "password": "vdce-admin"}
        ).get_json()["token"]
        headers = {"X-VDCE-Token": token}
        client.post("/applications", json={"name": "app"}, headers=headers)
        src = client.post("/applications/app/tasks",
                          json={"task_type": "generic.source"},
                          headers=headers).get_json()["task_id"]
        snk = client.post("/applications/app/tasks",
                          json={"task_type": "generic.sink"},
                          headers=headers).get_json()["task_id"]
        client.post("/applications/app/edges",
                    json={"src": src, "dst": snk}, headers=headers)
        client.post("/applications/app/submit", json={"k": 0},
                    headers=headers)
        response = client.get("/applications/app/report", headers=headers)
        assert response.status_code == 200
        assert b"execution report: app" in response.data
