"""Tests for the VDCE facade and deployment config."""

import pytest

from repro import VDCE, DeploymentSpec, HostSpec, SiteConfig
from repro.repository import AccessDomain
from repro.workloads import linear_solver_afg, surveillance_afg


class TestDeploymentSpec:
    def test_explicit_hosts(self):
        spec = DeploymentSpec(
            sites=(
                SiteConfig(name="syr", hosts=(
                    HostSpec("grad1", speed=1.0),
                    HostSpec("grad2", speed=2.0, memory_mb=512),
                )),
                SiteConfig(name="cs", n_hosts=3, speed=1.5),
            ),
            wan_overrides=(("syr", "cs", 0.01, 5.0),),
        )
        topo = spec.build_topology()
        assert topo.host("grad2").spec.memory_mb == 512
        assert topo.network.wan_link("syr", "cs").spec.latency_s == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            DeploymentSpec(sites=())
        with pytest.raises(ValueError):
            DeploymentSpec(sites=(SiteConfig(name="a", n_hosts=1),
                                  SiteConfig(name="a", n_hosts=1)))
        with pytest.raises(ValueError):
            SiteConfig(name="x")
        with pytest.raises(ValueError):
            SiteConfig(name="x", hosts=(HostSpec("h"),), n_hosts=2)
        with pytest.raises(ValueError):
            HostSpec("h", speed=0.0)


class TestVDCEFacade:
    def test_standard_deployment(self):
        env = VDCE.standard(n_sites=3, hosts_per_site=2)
        assert len(env.sites) == 3
        assert len(env.topology.all_hosts) == 6

    def test_exactly_one_of_spec_or_topology(self):
        with pytest.raises(ValueError):
            VDCE()
        env = VDCE.standard()
        with pytest.raises(ValueError):
            VDCE(spec=env.spec, topology=env.topology)

    def test_submit_and_gantt(self):
        env = VDCE.standard(n_sites=2, hosts_per_site=3, seed=1)
        result = env.submit(linear_solver_afg(scale=0.15), k=1)
        assert result.makespan > 0
        chart = env.gantt(result)
        assert "makespan" in chart
        stats = env.stats()
        assert stats["startup_signals"] == 1

    def test_user_management_and_editor(self):
        env = VDCE.standard()
        env.add_user("haluk", "secret", priority=5,
                     access_domain=AccessDomain.CAMPUS)
        session = env.open_editor("haluk", "secret")
        assert session.account.priority == 5
        # account exists on all sites
        for site in env.sites:
            assert "haluk" in env.runtime.repositories[site].users

    def test_monitoring_and_advance(self):
        env = VDCE.standard(n_sites=2, hosts_per_site=2)
        env.start_monitoring()
        env.advance(10.0)
        assert env.sim.now == pytest.approx(10.0)
        assert env.stats()["monitor_reports"] > 0
        with pytest.raises(ValueError):
            env.advance(0.0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_advance_refuses_a_non_finite_span(self, seconds):
        # no monitoring: the calendar drains, so accepting one fails here
        # (NaN leaves the clock put, inf moves it to inf) instead of
        # running the daemons forever
        env = VDCE.standard(n_sites=1, hosts_per_site=1)
        with pytest.raises(ValueError):
            env.advance(seconds)
        assert env.sim.now == 0.0

    def test_repository_accessor(self):
        env = VDCE.standard()
        repo = env.repository()
        assert repo.site_name == "site-0"
        assert len(repo.task_perf) > 0

    def test_end_to_end_c3i_with_real_payloads(self):
        env = VDCE.standard(n_sites=2, hosts_per_site=3, seed=2)
        result = env.submit(surveillance_afg(n_sensors=3, scale=0.3), k=1)
        (summary,) = result.outputs["archive"]
        assert summary["tracks"] > 0
        (text,) = result.outputs["display"]
        assert "track 000" in text
