"""Real-socket half of DESIGN §16: hashes on the wire, fast failure.

The simulated path repairs (refetch, lineage regeneration); over real
one-directional TCP channels the receiver cannot ask the producer for
anything, so the real path's contract is *detection only*: a tampered
payload raises typed before any task consumes it, and a failed task
aborts its dependents within one poll slice instead of burning the
full timeout.
"""

import time

import numpy as np
import pytest

from repro.errors import AggregateExecutionError, CorruptPayloadError
from repro.net.proxy import CommunicationProxy, ProxyAborted
from repro.runtime.checkpoint import value_hash
from repro.runtime.data_manager import LocalDataManager
from repro.scheduler import AllocationTable, TaskAssignment
from repro.tasklib import TaskRegistry, TaskSignature
from repro.workloads import linear_solver_afg


def table_for(afg, hosts):
    table = AllocationTable(afg.name, scheduler="manual")
    for i, task in enumerate(afg.topological_order()):
        table.assign(
            TaskAssignment(task, "local", (hosts[i % len(hosts)],), 0.1)
        )
    return table


class TestWireHashing:
    def test_verified_channel_stamps_and_checks_the_hash(self):
        with CommunicationProxy("src") as src, CommunicationProxy("dst") as dst:
            edge = ("a", "b", 0, 0)
            channel = src.open_channel(
                "app", edge, dst.address, "dst", verify_hashes=True
            )
            payload = np.arange(12, dtype=np.float64)
            channel.send(payload)
            received = dst.receive(edge, timeout_s=5.0)
            np.testing.assert_array_equal(received, payload)
            assert dst.payloads_verified == 1
            assert dst.hash_mismatches == 0
            assert dst.edge_hashes[edge] == value_hash(payload)
            channel.close()

    def test_tampered_payload_raises_typed_before_consumption(self):
        with CommunicationProxy("src") as src, CommunicationProxy("dst") as dst:
            edge = ("a", "b", 0, 0)
            channel = src.open_channel(
                "app", edge, dst.address, "dst", verify_hashes=True
            )
            # the tamper hook mangles bytes AFTER hashing: exactly what a
            # flaky NIC or rotten disk cache does to a framed payload
            channel.tamper = lambda value: [v + 1 for v in value]
            channel.send([1, 2, 3])
            with pytest.raises(CorruptPayloadError) as excinfo:
                dst.receive(edge, timeout_s=5.0)
            assert dst.hash_mismatches == 1
            assert excinfo.value.expected_hash != excinfo.value.actual_hash
            channel.close()

    def test_unverified_channel_records_nothing(self):
        with CommunicationProxy("src") as src, CommunicationProxy("dst") as dst:
            edge = ("a", "b", 0, 0)
            channel = src.open_channel("app", edge, dst.address, "dst")
            channel.send([1, 2, 3])
            assert dst.receive(edge, timeout_s=5.0) == [1, 2, 3]
            assert dst.payloads_verified == 0
            assert dst.edge_hashes == {}
            channel.close()

    def test_abort_unblocks_receive_within_a_poll_slice(self):
        import threading

        with CommunicationProxy("dst") as dst:
            abort = threading.Event()
            threading.Timer(0.1, abort.set).start()
            started = time.monotonic()
            with pytest.raises(ProxyAborted):
                dst.receive(("a", "b", 0, 0), timeout_s=30.0, abort=abort)
            assert time.monotonic() - started < 2.0  # not the 30s timeout


class TestFailurePropagation:
    def failing_registry(self):
        registry = TaskRegistry()
        registry.register(TaskSignature(
            name="source", library="boomlib", n_in_ports=0, n_out_ports=1,
            base_comp_size=1.0, fn=lambda inputs, scale: [[1.0, 2.0]],
        ))
        registry.register(TaskSignature(
            name="boom", library="boomlib", n_in_ports=1, n_out_ports=1,
            base_comp_size=1.0,
            fn=lambda inputs, scale: (_ for _ in ()).throw(
                RuntimeError("deliberate task failure")
            ),
        ))
        registry.register(TaskSignature(
            name="sink", library="boomlib", n_in_ports=1, n_out_ports=0,
            base_comp_size=1.0, fn=lambda inputs, scale: [],
        ))
        return registry

    def test_one_failure_aborts_the_run_fast_with_all_errors(self):
        from repro.afg.graph import ApplicationFlowGraph
        from repro.afg.task import TaskNode

        afg = ApplicationFlowGraph("boom-app")
        afg.add_task(TaskNode(id="t0", task_type="boomlib.source",
                              n_out_ports=1))
        afg.add_task(TaskNode(id="t1", task_type="boomlib.boom",
                              n_in_ports=1, n_out_ports=1))
        afg.add_task(TaskNode(id="t2", task_type="boomlib.sink",
                              n_in_ports=1))
        afg.connect("t0", "t1")
        afg.connect("t1", "t2")

        manager = LocalDataManager(
            registry=self.failing_registry(), timeout_s=20.0
        )
        started = time.monotonic()
        with pytest.raises(AggregateExecutionError) as excinfo:
            manager.execute(afg, table_for(afg, ["h0", "h1"]))
        elapsed = time.monotonic() - started
        # t2 was blocked on t1's edge: the abort event freed it within a
        # poll slice, not after the 20s receive timeout
        assert elapsed < 10.0
        # the root cause survives aggregation, not a timeout masking it
        assert any(
            isinstance(e, RuntimeError) and "deliberate" in str(e)
            for e in excinfo.value.errors
        )


class TestRealSimHashParity:
    def test_real_wire_hashes_match_the_simulated_ledger(self):
        """The same application hashed on both paths: every edge's
        content hash on the real wire equals the simulated integrity
        ledger's artifact hash for the producing port — the §16 protocol
        is one protocol, not two."""
        from repro.scheduler import SiteScheduler
        from tests.runtime.conftest import build_runtime

        afg = linear_solver_afg(scale=0.15, parallel_lu_nodes=1)

        rt = build_runtime(data_integrity=True)
        sim_table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        rt.sim.run_until_complete(rt.execute_process(afg, sim_table))

        real_table = table_for(afg, ["h0", "h1"])
        manager = LocalDataManager(timeout_s=30.0, verify_hashes=True)
        hosts = sorted({
            h for a in real_table.assignments.values() for h in a.hosts
        })
        proxies = {
            h: CommunicationProxy(h, timeout_s=30.0) for h in hosts
        }
        try:
            manager._execute_with_proxies(afg, real_table, proxies)
            checked = 0
            for edge in afg.edges:
                key = (edge.src, edge.dst, edge.src_port, edge.dst_port)
                dst_host = real_table.get(edge.dst).primary_host
                real_hash = proxies[dst_host].edge_hashes[key]
                sim_hash = rt.integrity.recorded_hash(
                    afg.name, edge.src, edge.src_port
                )
                assert real_hash == sim_hash
                checked += 1
            assert checked == len(afg.edges)
        finally:
            for proxy in proxies.values():
                proxy.close()
