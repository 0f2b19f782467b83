"""Data-plane corruption faults: link markers, injector hooks, RNG hygiene.

Simulated corruption never mangles bytes — a completing transfer is
*marked* (``transfer.corruption``) so the pure-evaluation oracle
survives — and every draw comes from a per-link ``corrupt:<name>``
stream that only exists while armed, keeping fault-free runs
byte-identical to the pre-feature baseline.
"""

import pytest

from repro.sim import FailureInjector, LinkSpec, Simulator
from repro.sim.network import Link


def run_transfers(sim, link, n, size_mb=1.0):
    marks = []

    def one():
        t = link.transfer(size_mb=size_mb)
        yield t.done
        marks.append(t.corruption)

    for _ in range(n):
        sim.process(one())
    sim.run()
    return marks


class TestLinkCorruptionMarkers:
    def test_armed_link_marks_transfers_without_mangling(self):
        sim = Simulator()
        link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=100.0))
        link.corrupt_prob = 0.9
        marks = run_transfers(sim, link, 20)
        assert marks.count("bitflip") > 10
        assert link.corruptions == marks.count("bitflip")
        assert all(m in (None, "bitflip") for m in marks)

    def test_truncation_shares_the_single_draw(self):
        sim = Simulator()
        link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=100.0))
        link.corrupt_prob = 0.0
        link.truncate_prob = 0.9
        marks = run_transfers(sim, link, 20)
        assert marks.count("truncation") > 10
        assert "bitflip" not in marks

    def test_unarmed_link_draws_zero_corruption_rng(self):
        """The hash-neutrality guarantee: no armed probability, no
        ``corrupt:*`` stream ever instantiated, no draw consumed."""
        sim = Simulator()
        link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=100.0))
        marks = run_transfers(sim, link, 10)
        assert marks == [None] * 10
        assert not [s for s in sim._rngs if s.startswith("corrupt:")]

    def test_arming_one_link_never_perturbs_another(self):
        """Per-link streams: link B's fate is identical whether or not
        link A is armed alongside it."""
        fates = {}
        for label, arm_a in (("solo", False), ("with-a", True)):
            sim = Simulator()
            a = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=100.0,
                                   name="wan:a"))
            b = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=100.0,
                                   name="wan:b"))
            if arm_a:
                a.corrupt_prob = 0.5
                run_transfers(sim, a, 5)
            b.corrupt_prob = 0.5
            fates[label] = run_transfers(sim, b, 10)
        assert fates["solo"] == fates["with-a"]


class TestInjectorCorruptionHooks:
    def test_schedule_link_corruption_arms_then_disarms(self):
        sim = Simulator()
        link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=100.0,
                                  name="wan:x"))
        injector = FailureInjector(sim)
        injector.schedule_link_corruption(
            link, time=1.0, corrupt_prob=0.4, truncate_prob=0.1, duration=2.0
        )
        sim.run(until=1.5)
        assert link.corrupt_prob == 0.4
        assert link.truncate_prob == 0.1
        sim.run(until=4.0)
        assert link.corrupt_prob == 0.0
        assert [(e.host, e.kind) for e in injector.log] == [
            ("wan:x", "corrupt-armed"), ("wan:x", "normal"),
        ]

    def test_schedule_link_corruption_guards(self):
        sim = Simulator()
        link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=100.0))
        injector = FailureInjector(sim)
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="in the past"):
            injector.schedule_link_corruption(link, time=1.0, corrupt_prob=0.1)
        with pytest.raises(ValueError, match="duration"):
            injector.schedule_link_corruption(
                link, time=6.0, corrupt_prob=0.1, duration=0.0
            )
        # above one would flip every transfer and below zero arm
        # nothing, both silently: refused when scheduled
        for corrupt_prob, truncate_prob in ((1.5, 0.0), (-0.1, 0.0),
                                            (0.1, -0.2), (0.6, 0.4)):
            with pytest.raises(ValueError, match="sum below 1"):
                injector.schedule_link_corruption(
                    link, time=6.0, corrupt_prob=corrupt_prob,
                    truncate_prob=truncate_prob)
        sim.run()
        assert (link.corrupt_prob, link.truncate_prob) == (0.0, 0.0)
        assert injector.log == []

    def test_artifact_loss_logs_only_effective_drops(self):
        class Store:
            def __init__(self):
                self.calls = []

            def drop_host(self, host):
                self.calls.append(host)
                return 3 if host == "full" else 0

        sim = Simulator()
        injector = FailureInjector(sim)
        store = Store()
        injector.schedule_artifact_loss(store, "empty", time=1.0)
        injector.schedule_artifact_loss(store, "full", time=2.0)
        sim.run()
        assert store.calls == ["empty", "full"]
        # the empty host dropped nothing: no ground-truth event for it
        assert [(e.host, e.kind) for e in injector.log] == [
            ("artifacts:full", "artifact-loss"),
        ]

    def test_journal_corruption_damages_a_memory_journal(self):
        from repro.runtime.checkpoint import CheckpointJournal

        sim = Simulator()
        injector = FailureInjector(sim)
        journal = CheckpointJournal(None)
        journal.append("schedule", application="app")
        journal.append("task_complete", task="t0", outputs=[])
        injector.schedule_journal_corruption(journal, time=1.0, label="app")
        sim.run()
        assert [(e.host, e.kind) for e in injector.log] == [
            ("journal:app", "journal-corrupt"),
        ]
        assert "corrupt:journal:app" in sim._rngs

    def test_journal_corruption_of_an_empty_journal_logs_nothing(self):
        from repro.runtime.checkpoint import CheckpointJournal

        sim = Simulator()
        injector = FailureInjector(sim)
        injector.schedule_journal_corruption(
            CheckpointJournal(None), time=1.0, label="app"
        )
        sim.run()
        assert injector.log == []
