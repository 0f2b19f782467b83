"""E14 — the distributed shared memory model (paper §5 future work).

"We are also implementing a distributed shared memory model that will
allow VDCE users to describe their applications using a shared memory
paradigm."  The paper stops there; this experiment characterises the
implementation we built in its place: a home-based write-invalidate
protocol with sequential consistency.

Measured:

* read-mostly vs write-heavy sharing: cache hit rate and invalidation
  traffic as the write fraction grows;
* home placement locality: time per operation when the home host is
  local vs across the WAN.

Expected shape: hit rate falls and invalidations rise with the write
fraction (the fundamental invalidate-protocol trade-off); remote homes
cost one WAN round trip per miss/write.
"""

import pytest

from repro import DeploymentSpec
from repro.metrics import format_table
from repro.runtime import VDCERuntime
from repro.runtime.dsm import DSM



def run_sharing(write_fraction: float, n_ops: int = 400, seed: int = 0):
    rt = VDCERuntime(DeploymentSpec.grid(2, 2, seed=seed).build_topology())
    dsm = DSM(rt.sim, rt.topology.network)
    hosts = sorted(h.name for h in rt.topology.all_hosts)
    dsm.allocate("x", hosts[0], initial=0)
    rng = rt.sim.rng("bench:dsm")

    def worker():
        for i in range(n_ops):
            host = hosts[int(rng.integers(len(hosts)))]
            if float(rng.uniform()) < write_fraction:
                yield from dsm.write("x", i, host)
            else:
                yield from dsm.read("x", host)

    started = rt.sim.now
    rt.sim.run_until_complete(rt.sim.process(worker()))
    return dsm.stats, rt.sim.now - started


def test_write_fraction_tradeoff(benchmark):
    rows = []
    by_fraction = {}
    for fraction in (0.0, 0.1, 0.5, 0.9):
        stats, elapsed = run_sharing(fraction)
        hit_rate = stats.hit_rate()
        by_fraction[fraction] = (hit_rate, stats.invalidations, elapsed)
        rows.append(
            {
                "write_frac": fraction,
                "reads": stats.reads,
                "hit_rate": round(hit_rate, 3),
                "writes": stats.writes,
                "invalidations": stats.invalidations,
                "virtual_s": round(elapsed, 3),
            }
        )
    print()
    print(format_table(rows, title="E14 — DSM write-invalidate trade-off "
                                   "(4 hosts, 2 sites)"))

    assert by_fraction[0.0][0] > 0.9, "read-only sharing must cache well"
    assert by_fraction[0.0][1] == 0, "no writes, no invalidations"
    assert by_fraction[0.9][0] < by_fraction[0.1][0], (
        "hit rate must fall with write fraction"
    )
    assert by_fraction[0.9][1] > by_fraction[0.1][1] * 2, (
        "invalidation traffic must grow with write fraction"
    )

    benchmark(lambda: run_sharing(0.5, n_ops=100))


def test_home_placement_locality(benchmark):
    """Ops from a host are cheaper when the variable's home is local."""

    def run_home(home_is_local: bool):
        rt = VDCERuntime(DeploymentSpec.grid(2, 2, seed=1).build_topology())
        dsm = DSM(rt.sim, rt.topology.network)
        hosts = sorted(h.name for h in rt.topology.all_hosts)
        worker_host = hosts[0]  # in site-0
        home = worker_host if home_is_local else hosts[-1]  # site-1
        dsm.allocate("y", home, initial=0)

        def worker():
            for i in range(100):
                yield from dsm.write("y", i, worker_host)
                yield from dsm.read("y", worker_host)

        started = rt.sim.now
        rt.sim.run_until_complete(rt.sim.process(worker()))
        return rt.sim.now - started

    local = run_home(True)
    remote = run_home(False)
    print(f"\nE14b — 200 ops: local home {local * 1000:.1f} ms virtual, "
          f"remote home {remote * 1000:.1f} ms virtual "
          f"({remote / max(local, 1e-12):.0f}x)")
    assert remote > local * 10, "WAN home must cost a round trip per write"

    benchmark(lambda: run_home(False))
