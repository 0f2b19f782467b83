"""Tests for the execution coordinator (paper §4.2 Data Manager protocol)."""

import numpy as np
import pytest

from repro.afg import (
    ApplicationFlowGraph,
    FileSpec,
    InputBinding,
    TaskNode,
    TaskProperties,
)
from repro.runtime import ExecutionError
from repro.scheduler import SiteScheduler

from tests.runtime.conftest import build_runtime, chain_afg


def schedule_and_execute(rt, afg, k=1, **kw):
    table = SiteScheduler(k=k).schedule(afg, rt.federation_view())
    proc = rt.execute_process(afg, table, **kw)
    return rt.sim.run_until_complete(proc), table


class TestBasicExecution:
    def test_chain_completes_with_timeline(self, runtime):
        result, table = schedule_and_execute(runtime, chain_afg(n=3))
        assert result.application == "chain"
        assert set(result.records) == {"t0", "t1", "t2"}
        assert result.makespan > 0
        assert result.setup_time > 0
        r0, r2 = result.records["t0"], result.records["t2"]
        assert r0.finished_at <= r2.started_at + 1e9  # sanity
        assert r2.finished_at == result.finished_at
        assert all(r.attempts == 1 for r in result.records.values())

    def test_dependencies_respected(self, runtime):
        result, _ = schedule_and_execute(runtime, chain_afg(n=4))
        recs = result.records
        for a, b in zip("t0 t1 t2".split(), "t1 t2 t3".split()):
            assert recs[a].finished_at <= recs[b].started_at or (
                # start includes waiting for the transfer; finish of parent
                # must precede child's execution start
                recs[b].started_at >= recs[a].finished_at
            )

    def test_channel_protocol_counted(self, runtime):
        afg = chain_afg(n=3)  # 2 edges
        schedule_and_execute(runtime, afg)
        assert runtime.stats.channel_setups == 2
        assert runtime.stats.channel_acks == 2
        assert runtime.stats.startup_signals == 1
        assert runtime.stats.data_transfers >= 2

    def test_execution_requests_reach_controllers(self, runtime):
        afg = chain_afg(n=3)
        result, table = schedule_and_execute(runtime, afg)
        hosts = set(table.hosts_used())
        for h in hosts:
            assert runtime.app_controllers[h].requests_received >= 1
        assert runtime.stats.execution_requests >= len(hosts)

    def test_real_payimpl_linear_solver_through_runtime(self, runtime):
        """The full matrix pipeline computes a genuinely correct solution."""
        afg = ApplicationFlowGraph("lin-solve")
        afg.add_task(TaskNode(id="gen", task_type="matrix.generate_system",
                              n_out_ports=2,
                              properties=TaskProperties(workload_scale=0.2)))
        afg.add_task(TaskNode(id="lu", task_type="matrix.lu_decomposition",
                              n_in_ports=1, n_out_ports=1,
                              properties=TaskProperties(workload_scale=0.2)))
        afg.add_task(TaskNode(id="solve", task_type="matrix.triangular_solve",
                              n_in_ports=2, n_out_ports=1,
                              properties=TaskProperties(workload_scale=0.2)))
        afg.connect("gen", "lu", src_port=0, size_mb=0.5)
        afg.connect("gen", "solve", src_port=1, dst_port=1, size_mb=0.1)
        afg.connect("lu", "solve", dst_port=0, size_mb=0.5)
        result, _ = schedule_and_execute(runtime, afg)
        (x,) = result.outputs["solve"]
        a, b = runtime.registry.get("matrix.generate_system").run([], scale=0.2)
        assert np.linalg.norm(a @ x - b) < 1e-8

    def test_payloads_disabled_produces_none_outputs(self, runtime):
        result, _ = schedule_and_execute(runtime, chain_afg(n=2),
                                         execute_payloads=False)
        # exit task has no out ports? chain's last is generic.compute (1 out)
        assert result.outputs["t1"] == [None]

    def test_measured_time_feeds_task_perf_db(self, runtime):
        schedule_and_execute(runtime, chain_afg(n=3))
        assert runtime.stats.taskperf_updates == 3
        total = sum(
            repo.task_perf.measurements_recorded
            for repo in runtime.repositories.values()
        )
        assert total == 3

    def test_makespan_reflects_serial_chain(self, runtime):
        # 3 x scale-2 compute tasks: at least sum of fastest possible times
        result, table = schedule_and_execute(runtime, chain_afg(n=3, scale=2.0))
        assert result.makespan >= 1.0


class TestFileInputs:
    def afg_with_file(self):
        afg = ApplicationFlowGraph("filey")
        afg.add_task(
            TaskNode(
                id="t",
                task_type="generic.compute",
                n_in_ports=1,
                n_out_ports=1,
                properties=TaskProperties(
                    inputs=(InputBinding(0, FileSpec("/data/in.dat", 5.0)),)
                ),
            )
        )
        return afg

    def test_staged_file_placeholder(self, runtime):
        from repro.runtime import StagedFile

        result, _ = schedule_and_execute(runtime, self.afg_with_file())
        (out,) = result.outputs["t"]
        assert isinstance(out, StagedFile)
        assert out.size_mb == 5.0
        assert runtime.io_service.staged_count == 1


class TestConsoleService:
    def test_suspend_delays_task_start(self, runtime):
        afg = chain_afg(n=2, name="suspendable")
        table = SiteScheduler(k=1).schedule(afg, runtime.federation_view())
        runtime.console.suspend("suspendable")
        proc = runtime.execute_process(afg, table)
        runtime.sim.call_at(50.0, lambda: runtime.console.resume("suspendable"))
        result = runtime.sim.run_until_complete(proc)
        assert result.records["t0"].started_at >= 50.0

    def test_resume_without_suspend_is_noop(self, runtime):
        runtime.console.resume("nothing")
        assert not runtime.console.is_suspended("nothing")

    def test_double_suspend_is_idempotent(self, runtime):
        runtime.console.suspend("app")
        runtime.console.suspend("app")
        assert runtime.console.suspend_count == 1
        runtime.console.resume("app")
        assert not runtime.console.is_suspended("app")


class TestFaultHandling:
    def test_host_failure_triggers_reschedule_and_completion(self):
        rt = build_runtime(
            site_hosts={"alpha": [("a1", 4.0, 256), ("a2", 1.0, 256)]},
        )
        afg = chain_afg(n=1, scale=20.0)  # single long task -> lands on a1
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        assert table.get("t0").hosts == ("a1",)
        proc = rt.execute_process(afg, table)
        # kill a1 while the task runs
        rt.sim.call_at(2.0, lambda: rt.topology.host("a1").fail())
        result = rt.sim.run_until_complete(proc)
        assert result.reschedules == 1
        record = result.records["t0"]
        assert record.attempts == 2
        assert record.hosts == ("a2",)
        assert record.reschedule_reasons
        assert rt.stats.failure_restarts == 1

    def test_no_replacement_raises_execution_error(self):
        rt = build_runtime(site_hosts={"alpha": [("only", 1.0, 256)]})
        afg = chain_afg(n=1, scale=20.0)
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        proc = rt.execute_process(afg, table)
        rt.sim.call_at(2.0, lambda: rt.topology.host("only").fail())
        with pytest.raises(ExecutionError, match="no replacement"):
            rt.sim.run_until_complete(proc)

    def test_load_threshold_rescheduling(self):
        rt = build_runtime(
            site_hosts={"alpha": [("a1", 4.0, 256), ("a2", 1.0, 256)]},
            load_threshold=3.0,
            check_period_s=0.5,
        )
        afg = chain_afg(n=1, scale=20.0)
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        assert table.get("t0").hosts == ("a1",)
        proc = rt.execute_process(afg, table)
        # owner returns: background load way over threshold
        rt.sim.call_at(1.0, lambda: rt.topology.host("a1").set_bg_load(10.0))
        result = rt.sim.run_until_complete(proc)
        record = result.records["t0"]
        assert record.attempts == 2
        assert record.hosts == ("a2",)
        assert rt.stats.reschedule_requests == 1
        assert any("load" in r for r in record.reschedule_reasons)

    def test_load_below_threshold_does_not_reschedule(self):
        rt = build_runtime(
            site_hosts={"alpha": [("a1", 4.0, 256), ("a2", 1.0, 256)]},
            load_threshold=5.0,
            check_period_s=0.5,
        )
        afg = chain_afg(n=1, scale=8.0)
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        proc = rt.execute_process(afg, table)
        rt.sim.call_at(0.5, lambda: rt.topology.host("a1").set_bg_load(2.0))
        result = rt.sim.run_until_complete(proc)
        assert result.records["t0"].attempts == 1
        assert result.reschedules == 0

    def test_failure_mid_pipeline_preserves_correctness(self):
        rt = build_runtime(
            site_hosts={
                "alpha": [("a1", 2.0, 256), ("a2", 2.0, 256)],
                "beta": [("b1", 2.0, 256)],
            }
        )
        afg = chain_afg(n=3, scale=5.0)
        table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        first_host = table.get("t0").hosts[0]
        proc = rt.execute_process(afg, table)
        rt.sim.call_at(1.0, lambda: rt.topology.host(first_host).fail())
        result = rt.sim.run_until_complete(proc)
        # pipeline still completes, final output flows
        assert "t2" in result.outputs
        assert result.reschedules >= 1


class TestSubmitPipeline:
    def test_submit_end_to_end(self, runtime):
        result = runtime.submit(chain_afg(n=3), SiteScheduler(k=1))
        assert result.makespan > 0
        assert len(result.records) == 3

    def test_submit_authenticates(self, runtime):
        from repro.repository import AuthenticationError

        with pytest.raises(AuthenticationError):
            runtime.submit(chain_afg(n=2), user="admin", password="wrong")
        result = runtime.submit(chain_afg(n=2, name="authed"),
                                user="admin", password="vdce-admin")
        assert result.application == "authed"

    def test_submit_with_monitoring_running(self, runtime):
        runtime.start_monitoring()
        result = runtime.submit(chain_afg(n=2, name="monitored"))
        assert result.makespan > 0
