"""E8 and E14: the Data Manager over real sockets (paper §4.2) and the
distributed shared memory model (paper §5, future work).

Each ``eN()`` returns the experiment's tables (EXPERIMENTS.md).  E8's
wall-clock timings are not measured here: a table holds counts and
virtual time only.
"""

from __future__ import annotations

from typing import List

from repro.experiments.placement import Rows, grid
from repro.runtime.data_manager import LocalDataManager
from repro.runtime.dsm import DSM
from repro.scheduler import AllocationTable, TaskAssignment
from repro.workloads import linear_pipeline


def e8() -> List[Rows]:
    """The full §4.2 protocol (channel setup, acks, startup signal,
    dataflow) on a real 5-stage pipeline over localhost sockets."""
    afg = linear_pipeline(n_stages=5, cost=0.01, edge_mb=0.0)
    table = AllocationTable(afg.name, scheduler="manual")
    for i, task in enumerate(afg.topological_order()):
        table.assign(TaskAssignment(task, "local", (f"h{i % 2}",), 0.01))
    report = LocalDataManager(timeout_s=30.0).execute(afg, table)
    return [[{"stages": 5, "channels": report.channels, "acks": report.acks,
              "payload_frames": report.payloads}]]


def _shared(worker, seed: int, home: int = 0):
    """Run ``worker(dsm, hosts, sim)`` against one variable homed at
    ``hosts[home]`` of 2 sites x 2 hosts; the DSM and the virtual time
    it took."""
    runtime = grid(2, 2, seed=seed)
    dsm = DSM(runtime.sim, runtime.topology.network)
    hosts = sorted(h.name for h in runtime.topology.all_hosts)
    dsm.allocate("x", hosts[home], initial=0)
    started = runtime.sim.now
    runtime.sim.run_until_complete(runtime.sim.process(
        worker(dsm, hosts, runtime.sim)))
    return dsm, runtime.sim.now - started


def _random_sharing(write_fraction: float, n_ops: int = 400):
    def worker(dsm, hosts, sim):
        rng = sim.rng("bench:dsm")
        for i in range(n_ops):
            host = hosts[rng.integers(len(hosts))]
            if rng.uniform() < write_fraction:
                yield from dsm.write("x", i, host)
            else:
                yield from dsm.read("x", host)

    return _shared(worker, seed=0)


def _write_read_loop(home_is_local: bool) -> float:
    """100 write + read pairs from the first host of ``site-0``, the
    variable homed there or at the last host of ``site-1``."""
    def worker(dsm, hosts, sim):
        for i in range(100):
            yield from dsm.write("x", i, hosts[0])
            yield from dsm.read("x", hosts[0])

    return _shared(worker, seed=1, home=0 if home_is_local else -1)[1]


def e14() -> List[Rows]:
    """The home-based write-invalidate protocol: hit rate and
    invalidations as the write fraction grows (400 random operations
    from 4 hosts on 2 sites); then 200 operations from one host with the
    variable's home local or across the WAN."""
    sharing = []
    for fraction in (0.0, 0.1, 0.5, 0.9):
        dsm, elapsed = _random_sharing(fraction)
        sharing.append({
            "write_frac": fraction,
            "reads": dsm.stats.reads,
            "hit_rate": round(dsm.stats.hit_rate(), 3),
            "writes": dsm.stats.writes,
            "invalidations": dsm.stats.invalidations,
            "virtual_s": round(elapsed, 3),
        })
    homes = [{"home": home, "ops": 200,
              "virtual_ms": round(_write_read_loop(home == "local") * 1000, 1)}
             for home in ("local", "remote")]
    return [sharing, homes]
