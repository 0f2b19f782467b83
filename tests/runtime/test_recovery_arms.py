"""Characterisation of the recovery arms no other tier-1 test executes.

Each scenario drives :class:`ExecutionCoordinator` into one arm of its
recovery code — a file stage-in across a link outage, a corrupt
stage-in, a corrupt journalled re-stage on resume, a lost or poisoned
artifact, an exhausted dataflow transfer, a speculation timer with
nowhere to go — and asserts the typed outcome *and* the run's
``trace_hash``, pinned as ``recovery:<scenario>`` in ``tests/pins.json``.
The hashes were first generated at the commit before
the coordinator's duplicated recovery code was folded into one copy of
each mechanism, and regenerated once since: when the tracer's own
``span_begin`` / ``span_end`` pair left the trace (DESIGN §5 decision
16), each trace became its predecessor with those six events dropped
and ``seq`` renumbered, event for event.  They pin event payloads,
emission order, RNG draw points and span structure (spans are on in
every scenario) of code the campaign gate never reaches.
"""

import pytest

from repro.afg import (
    ApplicationFlowGraph,
    FileSpec,
    InputBinding,
    TaskNode,
    TaskProperties,
)
from repro.errors import CorruptPayloadError, PoisonedArtifactError
from repro.net.rpc import RetryPolicy
from repro.runtime import ExecutionError
from repro.runtime.checkpoint import (
    ApplicationCheckpoint,
    CheckpointJournal,
    expected_output_hashes,
    final_output_hashes,
)
from repro.runtime.execution import ExecutionCoordinator
from repro.runtime.integrity import IntegrityPolicy
from repro.runtime.straggler import SpeculationPolicy
from repro.scheduler import AllocationTable, TaskAssignment
from repro.sim import FailureInjector
from repro.trace import Tracer, trace_hash
from repro.trace.events import EventKind

from tests.runtime.conftest import build_runtime, chain_afg

pytestmark = pytest.mark.gate

#: a short data policy so exhaustion takes three attempts, not seven
_IMPATIENT = RetryPolicy(timeout_s=5.0, max_attempts=3, backoff_base_s=0.25)


def traced_runtime(**config):
    return build_runtime(tracer=Tracer(), causal_spans=True, **config)


def manual_table(afg, placements, predicted=0.5):
    table = AllocationTable(afg.name, scheduler="manual")
    for task_id, (site, host) in placements.items():
        table.assign(TaskAssignment(task_id, site, (host,), predicted))
    return table


def events_of(rt, kind):
    return [e for e in rt.tracer.events() if e.kind == kind]


def span_events(rt, span, kind=EventKind.SPAN_CLOSE):
    return [e for e in events_of(rt, kind) if e.data["span"] == span]


def wan(rt):
    return rt.topology.network.wan_link("alpha", "beta")


# -- file stage-in across a link outage / corruption -------------------------

def file_afg(file_mb=4.0):
    afg = ApplicationFlowGraph("filey")
    afg.add_task(TaskNode(
        id="t", task_type="generic.compute", n_in_ports=1, n_out_ports=1,
        properties=TaskProperties(
            workload_scale=1.0,
            inputs=(InputBinding(0, FileSpec("/data/in.dat", file_mb)),),
        ),
    ))
    return afg


def start_remote_stage(rt):
    """One task on beta whose 4 MB input stages from alpha's server
    across the WAN (~2 s at 2 MB/s)."""
    afg = file_afg()
    table = manual_table(afg, {"t": ("beta", "b1")})
    return rt.execute_process(afg, table, submit_site="alpha")


class TestStageInAcrossALinkOutage:
    def test_outage_shorter_than_the_backoff_costs_one_retry(self, pin):
        rt = traced_runtime()
        FailureInjector(rt.sim).schedule_link_outage(
            wan(rt), start=1.0, duration=0.2
        )
        result = rt.sim.run_until_complete(start_remote_stage(rt))
        assert result.records["t"].transfer_retries == 1
        assert rt.stats.transfer_retries == 1
        (retry,) = events_of(rt, EventKind.TRANSFER_RETRY)
        assert retry.data["label"] == "stage:/data/in.dat"
        assert retry.data["attempt"] == 1
        assert [n for n in rt.sim._rngs if n.startswith("retry:")] \
            == ["retry:filey:stage:/data/in.dat"]
        assert rt.io_service.staged_count == 1
        (stage_in,) = span_events(rt, "stage_in")
        assert stage_in.data["status"] == "ok"
        pin("recovery:stage_outage_retried", trace=trace_hash(rt.tracer))

    def test_outage_outlasting_the_data_policy_fails_typed(self, pin):
        rt = traced_runtime(data_policy=_IMPATIENT)
        FailureInjector(rt.sim).schedule_link(wan(rt), 1.0, "down")
        with pytest.raises(ExecutionError,
                           match="staging '/data/in.dat' onto b1 failed "
                                 "after 3 attempts"):
            rt.sim.run_until_complete(start_remote_stage(rt))
        assert rt.stats.transfer_retries == 2
        assert rt.io_service.staged_count == 0
        pin("recovery:stage_outage_exhausted", trace=trace_hash(rt.tracer))


class TestCorruptStageIn:
    def test_within_the_refetch_budget(self, pin):
        rt = traced_runtime(data_integrity=IntegrityPolicy())
        net = rt.topology.network
        net.set_corruption(0.97)
        rt.sim.call_at(3.0, lambda: net.set_corruption(0.0))
        result = rt.sim.run_until_complete(start_remote_stage(rt))
        assert result.records["t"].repair_refetches == 1
        (incident,) = rt.integrity.incidents
        assert incident["kind"] == "stage-corrupt"
        assert incident["target"] == "stage:/data/in.dat"
        assert incident["refetches"] == 1
        assert incident["resolution"] == "refetched"
        # io_service reported the damage; the ladder only counts the refetch
        assert rt.integrity.corruptions_detected == 1
        assert rt.integrity.refetches == 1
        pin("recovery:stage_corrupt_refetched", trace=trace_hash(rt.tracer))

    def test_past_the_refetch_budget_poisons_and_fails_typed(self, pin):
        rt = traced_runtime(data_integrity=IntegrityPolicy(max_refetches=1))
        rt.topology.network.set_corruption(0.97)
        with pytest.raises(CorruptPayloadError,
                           match=r"still corrupt after 1 refetch\(es\)"):
            rt.sim.run_until_complete(start_remote_stage(rt))
        (incident,) = rt.integrity.incidents
        assert incident["kind"] == "stage-corrupt"
        assert incident["resolution"] == "poisoned"
        assert rt.integrity.refetches == 1
        assert rt.integrity.corruptions_detected == 2
        pin("recovery:stage_corrupt_poisoned", trace=trace_hash(rt.tracer))


# -- resume: the journalled re-stage arrives corrupt -------------------------

CROSS_SITE = {
    "t0": ("alpha", "a1"), "t1": ("beta", "b1"), "t2": ("alpha", "a1"),
}


def crashed_after_t0():
    """Run the cross-site chain with a journal until only t0 completed."""
    rt = build_runtime()
    afg = chain_afg(n=3, scale=2.0, edge_mb=2.0)
    journal = CheckpointJournal(None)
    rt.execute_process(afg, manual_table(afg, CROSS_SITE), journal=journal)
    rt.sim.run(until=3.0)
    checkpoint = ApplicationCheckpoint.from_records(journal.records())
    assert sorted(checkpoint.completed) == ["t0"]
    return afg, journal, checkpoint


def resume_with_corrupt_wan(policy, disarm_at=None):
    afg, journal, checkpoint = crashed_after_t0()
    rt = traced_runtime(data_integrity=policy)
    net = rt.topology.network
    net.set_corruption(0.97)
    if disarm_at is not None:
        rt.sim.call_at(disarm_at, lambda: net.set_corruption(0.0))
    coordinator = ExecutionCoordinator(
        rt, checkpoint.afg, checkpoint.table, submit_site="alpha",
        journal=journal, checkpoint=checkpoint,
    )
    return rt, afg, coordinator.start()


class TestCorruptRestageOnResume:
    def test_within_the_refetch_budget(self, pin):
        rt, afg, proc = resume_with_corrupt_wan(IntegrityPolicy(),
                                                disarm_at=1.5)
        result = rt.sim.run_until_complete(proc)
        assert final_output_hashes(result) \
            == expected_output_hashes(afg, rt.registry)
        (incident,) = rt.integrity.incidents
        assert incident["target"] == "restage:t0->t1"
        assert incident["kind"] == "corrupt"
        assert incident["refetches"] == 1
        assert incident["resolution"] == "refetched"
        assert all(c["clean"] for c in rt.integrity.consumption_log)
        pin("recovery:restage_corrupt_refetched", trace=trace_hash(rt.tracer))

    def test_past_the_refetch_budget_fails_the_edge_typed(self, pin):
        rt, _afg, proc = resume_with_corrupt_wan(
            IntegrityPolicy(max_refetches=1)
        )
        with pytest.raises(CorruptPayloadError,
                           match=r"re-staged output t0\[0\] still corrupt "
                                 r"after 1 refetch\(es\)"):
            rt.sim.run_until_complete(proc, limit=1e4)  # typed, not a hang
        (incident,) = rt.integrity.incidents
        assert incident["resolution"] == "poisoned"
        (poison,) = events_of(rt, EventKind.POISON)
        assert poison.data["reason"] == "restage refetch budget exhausted"
        assert rt.integrity.consumption_log == []
        pin("recovery:restage_corrupt_poisoned", trace=trace_hash(rt.tracer))


# -- lost / poisoned artifacts -----------------------------------------------

class TestArtifactLadderEntryPoints:
    def test_artifact_lost_before_delivery_goes_straight_to_regeneration(
            self, pin):
        """The staged copy vanishes between production and the start of
        its delivery: no transfer is attempted on the lost copy, no
        refetch is spent, the producer is regenerated once."""
        rt = traced_runtime(data_integrity=IntegrityPolicy())
        injector = FailureInjector(rt.sim)
        record_artifact = rt.integrity.record_artifact

        def lose_it_at_once(app, task, port, value, host):
            content_hash = record_artifact(app, task, port, value, host)
            if task == "t0":
                # queued ahead of the xfer process _task_process spawns next
                injector.schedule_artifact_loss(rt.integrity, host, rt.sim.now)
            return content_hash

        rt.integrity.record_artifact = lose_it_at_once
        afg = chain_afg(n=2, scale=1.0, edge_mb=1.0)
        table = manual_table(
            afg, {"t0": ("alpha", "a1"), "t1": ("beta", "b1")}
        )
        result = rt.sim.run_until_complete(rt.execute_process(afg, table))
        assert final_output_hashes(result) \
            == expected_output_hashes(afg, rt.registry)
        (incident,) = rt.integrity.incidents
        assert incident["kind"] == "lost"
        assert incident["refetches"] == 0
        assert incident["regenerations"] == 1
        assert incident["resolution"] == "regenerated"
        assert rt.integrity.refetches == 0
        assert result.records["t0"].repair_regenerations == 1
        assert len(events_of(rt, EventKind.DATA_TRANSFER)) == 1
        pin("recovery:artifact_lost_before_delivery",
            trace=trace_hash(rt.tracer))

    def test_consumer_of_an_already_poisoned_artifact_fails_typed(self, pin):
        """t0 fans out to a small and a large edge over a corrupting WAN.
        The small delivery exhausts the ladder first and quarantines
        t0's artifact; the large one comes back from its first refetch
        to find it poisoned and fails without poisoning it again."""
        rt = traced_runtime(data_integrity=IntegrityPolicy(
            max_refetches=1, max_regenerations=0
        ))
        rt.topology.network.set_corruption(0.97)
        afg = ApplicationFlowGraph("fan")
        afg.add_task(TaskNode(id="t0", task_type="generic.source",
                              n_out_ports=1))
        for name in ("small", "large"):
            afg.add_task(TaskNode(id=name, task_type="generic.compute",
                                  n_in_ports=1, n_out_ports=1))
        afg.connect("t0", "small", size_mb=0.1)
        afg.connect("t0", "large", size_mb=4.0)
        table = manual_table(afg, {
            "t0": ("alpha", "a1"), "small": ("beta", "b1"),
            "large": ("beta", "b2"),
        })
        coordinator = ExecutionCoordinator(rt, afg, table)
        with pytest.raises(PoisonedArtifactError, match="still unusable"):
            rt.sim.run_until_complete(coordinator.start())
        rt.sim.run()  # the large delivery outlives the failed application
        failure = coordinator._edge_ready[("t0", "large", 0, 0)].exception
        assert isinstance(failure, PoisonedArtifactError)
        assert "quarantined; consumer fails typed" in str(failure)
        assert rt.integrity.poisoned == 1
        by_target = {i["target"]: i for i in rt.integrity.incidents}
        assert by_target["t0->large"]["refetches"] == 1
        assert by_target["t0->large"]["resolution"] == "poisoned"
        pin("recovery:consumer_of_poisoned_artifact",
            trace=trace_hash(rt.tracer))


# -- a dataflow transfer that exhausts its attempts --------------------------

def test_dataflow_transfer_exhausting_the_data_policy_fails_the_consumer(pin):
    rt = traced_runtime(data_policy=_IMPATIENT)
    afg = chain_afg(n=2, scale=1.0, edge_mb=4.0)
    table = manual_table(afg, {"t0": ("alpha", "a1"), "t1": ("beta", "b1")})
    proc = rt.execute_process(afg, table)
    # channels are up by then; t0's output is in flight when the WAN dies
    rt.sim.call_at(1.5, wan(rt).fail)
    with pytest.raises(ExecutionError,
                       match="transfer 't0->t1' failed after 3 attempts"):
        rt.sim.run_until_complete(proc, limit=1e4)
    assert rt.stats.transfer_retries == 2
    (stage_out,) = span_events(rt, "stage_out")
    assert stage_out.data["status"] == "failed"
    pin("recovery:dataflow_transfer_exhausted", trace=trace_hash(rt.tracer))


# -- a speculation timer with nowhere to go ----------------------------------

_SPECULATE = SpeculationPolicy(trigger_multiple=1.5, check_period_s=0.5)


class TestSpeculationTimerDeadEnds:
    def test_no_reachable_site_can_bid(self, pin):
        """alpha's only host is the straggler and beta is cut off: the
        walk skips the unreachable site, gets no bid and leaves the
        primary to finish on its own."""
        rt = traced_runtime(
            site_hosts={"alpha": [("a1", 1.0, 256)],
                        "beta": [("b1", 1.0, 256)]},
            speculation=_SPECULATE,
        )
        afg = chain_afg(n=1, scale=2.0, name="alone")
        table = manual_table(afg, {"t0": ("alpha", "a1")}, predicted=1.0)
        rt.topology.host("a1").set_slowdown(10.0)
        rt.topology.network.partition([["alpha"], ["beta"]])
        result = rt.sim.run_until_complete(rt.execute_process(afg, table))
        assert result.records["t0"].hosts == ("a1",)
        assert result.records["t0"].measured_time > 1.5
        assert rt.stats.speculative_launches == 0
        assert events_of(rt, EventKind.SPECULATE) == []
        pin("recovery:speculation_nowhere_to_bid", trace=trace_hash(rt.tracer))

    def test_backup_that_cannot_be_fed_is_never_launched(self, pin):
        """beta bids for t1's backup, but the WAN dies while the backup's
        input is in flight and outlasts the data policy: speculation is
        abandoned, the retries are billed to the task, the primary
        finishes on the straggler."""
        rt = traced_runtime(
            site_hosts={"alpha": [("a1", 1.0, 256)],
                        "beta": [("b1", 1.0, 256)]},
            speculation=_SPECULATE, data_policy=_IMPATIENT,
        )
        afg = chain_afg(n=2, scale=2.0, edge_mb=4.0, name="unfed")
        table = manual_table(
            afg, {"t0": ("alpha", "a1"), "t1": ("alpha", "a1")}, predicted=2.0
        )
        proc = rt.execute_process(afg, table)
        # t0 is done at 2 s; t1 is overdue at 5 s and its 4 MB feed takes 2 s
        rt.sim.call_at(3.0, lambda: rt.topology.host("a1").set_slowdown(10.0))
        rt.sim.call_at(6.0, wan(rt).fail)
        result = rt.sim.run_until_complete(proc, limit=1e4)
        assert result.records["t1"].hosts == ("a1",)
        assert result.records["t1"].transfer_retries == 2
        feeds = [e for e in events_of(rt, EventKind.DATA_TRANSFER)
                 if e.data["reason"] == "speculate"]
        assert [e.data["attempt"] for e in feeds] == [1, 2, 3]
        assert rt.stats.speculative_launches == 0
        assert span_events(rt, "speculate_backup", EventKind.SPAN_OPEN) == []
        pin("recovery:speculation_backup_unfed", trace=trace_hash(rt.tracer))
