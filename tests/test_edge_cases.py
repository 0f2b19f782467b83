"""Edge-case tests across packages (paths not covered elsewhere)."""

import pytest

from repro.scheduler import FederationView, SiteScheduler
from repro.runtime import RuntimeConfig

from tests.runtime.conftest import build_runtime, chain_afg
from tests.scheduler.conftest import build_federation


class TestFederationViewValidation:
    def test_local_site_needs_repository(self):
        _, repos, _ = build_federation()
        with pytest.raises(ValueError, match="no repository"):
            FederationView(
                local_site="mars",
                repositories=repos,
                neighbor_order=[],
                site_transfer_time=lambda a, b, mb: 0.0,
            )

    def test_neighbor_needs_repository(self):
        _, repos, _ = build_federation()
        with pytest.raises(ValueError, match="no repository"):
            FederationView(
                local_site="alpha",
                repositories={"alpha": repos["alpha"]},
                neighbor_order=["beta"],
                site_transfer_time=lambda a, b, mb: 0.0,
            )

    def test_local_cannot_be_neighbor(self):
        _, repos, _ = build_federation()
        with pytest.raises(ValueError, match="own neighbor"):
            FederationView(
                local_site="alpha",
                repositories=repos,
                neighbor_order=["alpha"],
                site_transfer_time=lambda a, b, mb: 0.0,
            )

    def test_from_topology_requires_all_repositories(self):
        topo, repos, _ = build_federation()
        with pytest.raises(ValueError, match="without repositories"):
            FederationView.from_topology(
                topo, {"alpha": repos["alpha"]}, "alpha"
            )

    def test_remote_sites_k_validation_and_lookup(self):
        _, _, view = build_federation()
        with pytest.raises(ValueError):
            view.remote_sites(-1)
        assert view.remote_sites(0) == []
        assert view.repository("beta").resources.has_host("b-fast")
        with pytest.raises(KeyError):
            view.repository("mars")


class TestRuntimeConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"monitor_period_s": 0.0},
        {"echo_period_s": -1.0},
        {"change_threshold": -0.1},
        {"load_threshold": 0.0},
        {"check_period_s": 0.0},
        {"echo_loss_prob": -0.1},
        {"suspicion_threshold": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = RuntimeConfig()
        assert config.monitor_period_s == 2.0
        assert config.suspicion_threshold == 1


class TestSiteManagerDistribution:
    def test_site_without_tasks_completes_immediately(self):
        rt = build_runtime()
        afg = chain_afg(n=2)
        # force everything onto alpha, then ask beta's manager to distribute
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        signal = rt.site_managers["beta"].distribute_allocation(table, afg)
        rt.sim.run_until_complete(
            rt.sim.process((lambda: (yield signal))())
        )
        assert signal.value == []

    def test_allocation_counts_involved_hosts_only(self):
        rt = build_runtime()
        afg = chain_afg(n=2)
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        involved = {h for a in table.assignments.values() for h in a.hosts}
        signal = rt.site_managers["alpha"].distribute_allocation(table, afg)
        rt.sim.run_until_complete(
            rt.sim.process((lambda: (yield signal))())
        )
        assert set(signal.value) == involved


class TestVariadicMerge:
    def test_merge_runs_with_any_fan_in(self):
        from repro.tasklib import default_registry

        sig = default_registry().get("generic.merge")
        assert sig.variadic_inputs
        assert sig.run(["a"], 1.0) == [["a"]]
        assert sig.run(["a", "b", "c"], 1.0) == [["a", "b", "c"]]
        with pytest.raises(ValueError, match="at least"):
            sig.run([], 1.0)

    def test_validate_rejects_below_minimum(self):
        from repro.afg import ApplicationFlowGraph, TaskNode, validate_afg
        from repro.tasklib import default_registry

        afg = ApplicationFlowGraph("m")
        afg.add_task(TaskNode(id="m", task_type="generic.merge",
                              n_in_ports=0, n_out_ports=1))
        problems = validate_afg(afg, registry=default_registry(),
                                collect=True)
        assert any("at least" in p for p in problems)


class TestGanttLanes:
    def test_overlapping_tasks_stack_onto_extra_lanes(self):
        """Two tasks co-resident on one host need two Gantt lanes."""
        from repro.viz import gantt
        from repro.workloads import bag_of_tasks

        rt = build_runtime(site_hosts={"alpha": [("only", 1.0, 256)]})
        afg = bag_of_tasks(n=3, cost=2.0)
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        result = rt.sim.run_until_complete(
            rt.execute_process(afg, table, execute_payloads=False)
        )
        chart = gantt(result)
        # one labelled host line + at least two extra (unlabelled) lanes
        host_lines = [l for l in chart.splitlines() if l.rstrip().endswith("|")]
        assert len(host_lines) >= 3


class TestNetworkOverrides:
    def test_set_lan_after_registration(self):
        from repro.sim import LinkSpec, Simulator
        from repro.sim.network import Network

        sim = Simulator()
        net = Network(sim)
        net.register_host("h1", "s")
        net.register_host("h2", "s")
        before = net.transfer_time_estimate("h1", "h2", 10.0)
        net.set_lan("s", LinkSpec(latency_s=0.0001, bandwidth_mbps=1000.0))
        after = net.transfer_time_estimate("h1", "h2", 10.0)
        assert after < before


class TestRuntimeSubmitOverrides:
    def test_execute_payloads_override_wins_over_config(self):
        rt = build_runtime()
        result = rt.submit(chain_afg(n=2), SiteScheduler(k=0),
                           execute_payloads=False)
        assert result.outputs["t1"] == [None]

    def test_schedule_process_default_scheduler(self):
        rt = build_runtime()
        afg = chain_afg(n=2)

        def run():
            out = yield from rt.schedule_process(afg)
            return out

        table, _ = rt.sim.run_until_complete(rt.sim.process(run()))
        assert table.is_complete_for(afg)

    def test_federation_view_for_other_site(self):
        rt = build_runtime()
        view = rt.federation_view("beta")
        assert view.local_site == "beta"
        assert view.remote_sites() == ["alpha"]


class TestTaskNodeHelpers:
    def test_with_properties_returns_new_node(self):
        from repro.afg import TaskNode

        node = TaskNode(id="t", task_type="x", n_out_ports=1)
        updated = node.with_properties(workload_scale=4.0)
        assert updated is not node
        assert updated.properties.workload_scale == 4.0
        assert node.properties.workload_scale == 1.0
        assert str(updated) == "t<x>"


class TestBuilderOutputs:
    def test_outputs_param_is_carried(self):
        from repro.afg import FileSpec
        from repro.editor import AFGBuilder

        b = AFGBuilder("app")
        t = b.add("generic.source",
                  outputs=[FileSpec("/out/result.dat", 0.5)])
        node = b.preview().task(t)
        assert node.properties.outputs[0].path == "/out/result.dat"
