"""HostIndex equivalence: indexed candidates == reference scan, always.

The equivalence argument (filtering commutes with sorting) is pinned
here with randomized repositories: for any population of hosts,
installed executables and up/down states — including after host
registration, executable removal, workload churn and quarantine — the
index must return exactly the answer of a linear scan + name sort
(``tests/scheduler/_reference.py``) in exactly its stable name order.
"""

import random

import pytest

from repro.afg import TaskNode, TaskProperties
from repro.repository import SiteRepository
from repro.scheduler.host_selection import bid_for_task, candidate_hosts
from repro.scheduler.prediction import PredictionModel
from repro.sim.host import HostSpec
from tests.scheduler import _reference as reference

TASK_TYPES = ("math.lu_decompose", "signal.spectrum", "image.convolve")


def _reference_answer(repo, task_type):
    """The pre-index implementation: linear scan, then name sort."""
    return sorted(
        (r for r in repo.resources.up_hosts()
         if repo.constraints.is_runnable(task_type, r.name)),
        key=lambda r: r.name,
    )


def _random_repo(rng, n_hosts):
    repo = SiteRepository("prop-site")
    for i in range(n_hosts):
        name = f"h{i:03d}"
        repo.resources.register_host(
            HostSpec(name=name, speed=rng.choice((1.0, 2.0, 4.0)),
                     memory_mb=rng.choice((128, 256)))
        )
        for task_type in TASK_TYPES:
            if rng.random() < 0.7:
                repo.constraints.register(task_type, name, f"/bin/{name}")
        if rng.random() < 0.2:
            repo.resources.mark_down(name, time=0.0)
    return repo


def _node(task_type, **props):
    return TaskNode(id="t0", task_type=task_type, n_in_ports=0,
                    n_out_ports=1, properties=TaskProperties(**props))


def _mutate(rng, repo, step):
    """One random repository mutation (the events that move the key)."""
    names = repo.resources.host_names()
    kind = rng.randrange(4) if names else 0
    if kind == 0:  # register a brand-new host with some executables
        name = f"new{step:03d}"
        repo.resources.register_host(HostSpec(name=name, speed=2.0))
        for task_type in TASK_TYPES:
            if rng.random() < 0.7:
                repo.constraints.register(task_type, name, f"/bin/{name}")
    elif kind == 1:  # up/down transition
        name = rng.choice(names)
        if repo.resources.get(name).up:
            repo.resources.mark_down(name, time=float(step))
        else:
            repo.resources.mark_up(name, time=float(step))
    elif kind == 2:  # workload report (dynamic write, population unchanged)
        name = rng.choice(names)
        repo.resources.update_workload(
            name, load=rng.random() * 4, available_memory_mb=64,
            time=float(step),
        )
    else:  # decommission: symmetric removal (constraints + resource row)
        repo.deregister_host(rng.choice(names))


@pytest.mark.parametrize("seed", range(6))
def test_index_matches_reference_under_mutation(seed):
    rng = random.Random(seed)
    repo = _random_repo(rng, n_hosts=rng.randrange(4, 24))
    for step in range(30):
        task_type = rng.choice(TASK_TYPES)
        expected = _reference_answer(repo, task_type)
        got = repo.host_index.runnable_up_hosts(task_type)
        assert got == expected, f"seed {seed} step {step} ({task_type})"
        _mutate(rng, repo, step)
    # and once more after the final mutation
    for task_type in TASK_TYPES:
        assert (repo.host_index.runnable_up_hosts(task_type)
                == _reference_answer(repo, task_type))


@pytest.mark.parametrize("seed", range(3))
def test_candidate_hosts_flag_equivalence(seed):
    """candidate_hosts: the index and the reference scan agree, same order."""
    rng = random.Random(100 + seed)
    repo = _random_repo(rng, n_hosts=12)
    nodes = [
        _node(TASK_TYPES[0]),
        _node(TASK_TYPES[1], preferred_machine="h003"),
        _node(TASK_TYPES[2], preferred_machine_type="SUN solaris"),
    ]
    for node in nodes:
        indexed = candidate_hosts(node, repo)
        assert indexed == reference.candidate_hosts(node, repo)
        names = [r.name for r in indexed]
        assert names == sorted(names)


def test_candidate_hosts_sorted_order_invariant():
    """The documented invariant: bids are built positionally from a
    name-sorted candidate list, from the index as from the scan."""
    repo = SiteRepository("order-site")
    for name in ("zeta", "alpha", "mike", "bravo"):
        repo.resources.register_host(HostSpec(name=name))
        repo.constraints.register(TASK_TYPES[0], name, f"/bin/{name}")
    node = _node(TASK_TYPES[0])
    for candidates in (candidate_hosts, reference.candidate_hosts):
        names = [r.name for r in candidates(node, repo)]
        assert names == ["alpha", "bravo", "mike", "zeta"]


def test_quarantine_filter_does_not_corrupt_the_index_cache():
    """bid_for_task selects from the cached rows; a quarantined host
    must still be a candidate of the next call."""
    repo = SiteRepository("quarantine-site")
    for name in ("qa", "qb", "qc"):
        repo.resources.register_host(HostSpec(name=name))
        repo.constraints.register("math.lu_decompose", name, f"/bin/{name}")
    from repro.repository.taskperf import TaskPerfRecord

    repo.task_perf.register(TaskPerfRecord(
        task_type="math.lu_decompose", computation_size=1.0,
        communication_size_mb=0.1, required_memory_mb=16))
    node = _node("math.lu_decompose")
    model = PredictionModel()

    def quarantine_qb(name):
        return None if name == "qb" else 1.0

    bid = bid_for_task(node, repo, model, {}, health_of=quarantine_qb)
    assert bid is not None and "qb" not in bid.hosts
    names = [r.name for r in candidate_hosts(node, repo)]
    assert names == ["qa", "qb", "qc"]
