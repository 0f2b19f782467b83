"""Chaos invariant I9 and event attribution under faults.

I9 — every span opened during a campaign is closed exactly once or
explicitly orphan-marked — is audited by ``run_campaign`` itself when
``causal_spans`` is on; these tests run it across the fault families
(link faults + partition, manager crashes, slowdowns + speculation)
and three seeds each.

The attribution audit pins the ownership contract on lifecycle events:
SPECULATE/SPECULATE_WIN/SPECULATE_CANCEL name the application and task
they act for, FAILOVER/MANAGER_CRASH/MANAGER_RECOVER name the manager,
QUARANTINE carries the ``origin`` whose penalty tipped the score, and
RESUME names the resumed application — so ``repro explain`` can answer
"who caused this?" from the trace alone.
"""

from dataclasses import replace

import pytest

from repro.obs.attribution import explain, span_integrity
from repro.runtime.checkpoint import create_checkpoint_dir, resume_run
from repro.runtime import RuntimeConfig
from repro.runtime.straggler import HealthPolicy, HostHealth
from repro.scheduler import SiteScheduler
from repro.sim.chaos import (
    ChaosConfig,
    preset,
    run_campaign,
    smoke_config,
)
from repro.sim.kernel import Simulator
from repro.trace.events import EventKind
from repro.trace.serialize import read_jsonl
from repro.trace.tracer import Tracer
from repro.workloads import linear_pipeline
from repro import VDCE

SEEDS = (0, 1, 2)


def link_fault_config(seed: int) -> ChaosConfig:
    return replace(smoke_config(seed), causal_spans=True)


def manager_crash_config(seed: int) -> ChaosConfig:
    return replace(
        smoke_config(seed), gm_crash_at_s=70.0, sm_crash_at_s=100.0,
        causal_spans=True,
    )


def slowdown_config(seed: int) -> ChaosConfig:
    return replace(preset("slowdown-smoke", seed), causal_spans=True)


#: the audit campaign: crashes + slowdowns + speculation in 3 apps,
#: tuned so failover, manager crash/recover and all three speculation
#: outcomes all occur (checked below, so drift is caught)
AUDIT_CONFIG = ChaosConfig(
    seed=1, n_sites=3, hosts_per_site=3, n_apps=3, duration_s=240.0,
    app_spacing_s=35.0, n_flaky_hosts=1, n_flaky_links=0,
    partition_at_s=None, gm_crash_at_s=70.0, sm_crash_at_s=100.0,
    n_slow_hosts=6, slowdown_at_s=20.0, slowdown_duration_s=90.0,
    slowdown_factor=8.0, n_flapping_hosts=2, detector="phi",
    speculation=True, health=True, causal_spans=True,
    message_loss_prob=0.02, echo_loss_prob=0.02,
)


class TestI9AcrossFaultFamilies:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make_config", (
        link_fault_config, manager_crash_config, slowdown_config,
    ), ids=("link-faults", "manager-crashes", "slowdowns"))
    def test_campaign_spans_balance(self, make_config, seed):
        report = run_campaign(make_config(seed))
        assert report.ok, report.violations
        assert not any(v.startswith("I9:") for v in report.violations)

    def test_i9_actually_audits(self, tmp_path):
        """The campaign trace independently satisfies the I9 oracle."""
        path = tmp_path / "trace.jsonl"
        report = run_campaign(link_fault_config(0), trace_path=str(path))
        assert report.ok, report.violations
        events = read_jsonl(str(path))
        assert any(e.kind == EventKind.SPAN_OPEN for e in events)
        assert span_integrity(events) == []


class TestEventAttributionAudit:
    @pytest.fixture(scope="class")
    def campaign_events(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("audit") / "trace.jsonl"
        report = run_campaign(AUDIT_CONFIG, trace_path=str(path))
        assert report.ok, report.violations
        return read_jsonl(str(path))

    def test_campaign_reaches_all_audited_events(self, campaign_events):
        kinds = {e.kind for e in campaign_events}
        assert {EventKind.FAILOVER, EventKind.MANAGER_CRASH,
                EventKind.MANAGER_RECOVER, EventKind.SPECULATE,
                EventKind.SPECULATE_WIN,
                EventKind.SPECULATE_CANCEL} <= kinds

    def test_speculation_events_name_app_and_task(self, campaign_events):
        for event in campaign_events:
            if event.kind in (EventKind.SPECULATE, EventKind.SPECULATE_WIN,
                              EventKind.SPECULATE_CANCEL):
                assert event.source.startswith("app:"), event
                assert event.data.get("task"), event

    def test_manager_events_name_the_manager(self, campaign_events):
        for event in campaign_events:
            if event.kind in (EventKind.FAILOVER, EventKind.MANAGER_CRASH,
                              EventKind.MANAGER_RECOVER):
                assert event.source.startswith(("gm:", "sm:")), event

    def test_span_events_name_the_application(self, campaign_events):
        for event in campaign_events:
            if event.kind in (EventKind.SPAN_OPEN, EventKind.SPAN_CLOSE,
                              EventKind.SPAN_ORPHAN):
                assert "application" in event.data, event

    def test_explain_attributes_the_campaign(self, campaign_events):
        report = explain(campaign_events)
        assert report["integrity"]["violations"] == []
        assert report["apps"]
        total_speculation = sum(
            info["breakdown"]["speculation"] + info["breakdown"]["execution"]
            for info in report["apps"].values()
        )
        assert total_speculation > 0.0


class TestQuarantineOrigin:
    def test_quarantine_carries_the_tipping_origin(self):
        sim, tracer = Simulator(), Tracer()
        health = HostHealth(sim, HealthPolicy(quarantine_threshold=2.0),
                            tracer=tracer)
        health.penalize("h0", 1.0, "straggle", origin="gm:site-0")
        health.penalize("h0", 1.5, "straggle", origin="app:mapreduce")
        events = [e for e in tracer.events()
                  if e.kind == EventKind.QUARANTINE]
        assert len(events) == 1
        assert events[0].data["origin"] == "app:mapreduce"
        assert events[0].data["host"] == "h0"

    def test_origin_defaults_to_health(self):
        sim, tracer = Simulator(), Tracer()
        health = HostHealth(sim, HealthPolicy(quarantine_threshold=1.0),
                            tracer=tracer)
        health.penalize("h0", 2.0, "failure")
        [event] = [e for e in tracer.events()
                   if e.kind == EventKind.QUARANTINE]
        assert event.data["origin"] == "health"


class TestResumeAttribution:
    def test_resume_event_and_span_name_the_application(self, tmp_path):
        env = VDCE.standard(n_sites=2, hosts_per_site=2, seed=11)
        afg = linear_pipeline(n_stages=5, cost=4.0, edge_mb=1.0)
        journal = create_checkpoint_dir(env, str(tmp_path))
        table = SiteScheduler(k=1).schedule(afg, env.runtime.federation_view())
        env.runtime.execute_process(afg, table, journal=journal)
        env.sim.run(until=5.0)  # the crash
        env.save_repositories(str(tmp_path / "repos"))

        tracer = Tracer()
        _env2, result = resume_run(
            str(tmp_path), tracer=tracer,
            runtime_config=RuntimeConfig(causal_spans=True),
        )
        assert result.records
        events = tracer.events()
        [resume_event] = [e for e in events if e.kind == EventKind.RESUME]
        assert resume_event.source == f"app:{afg.name}"
        assert resume_event.data["completed"] >= 0
        assert span_integrity(events) == []
        resume_spans = [
            e for e in events
            if e.kind == EventKind.SPAN_OPEN and e.data["span"] == "resume"
        ]
        assert len(resume_spans) == 1
        assert resume_spans[0].data["application"] == afg.name
        # explain sees the resumed incarnation as one window
        report = explain(events)
        assert report["apps"][afg.name]["windows"] == 1
