"""Row kernel == ``PredictionModel.predict``, bit for bit.

``predict_rows`` evaluates a bid from the repository's cached host rows
and a task half computed once; the reference bid
(``tests/scheduler/_reference.py``) calls ``model.predict`` per (task,
host) pair.  The kernel performs the model's float operations in the
model's order, so on *any* repository the two must return the identical
``HostSelectionResult`` — same hosts, ``predicted_time`` equal by
``==``, never ``approx`` — whether the kernel is reached through
``bid_for_task`` (a sheet built for the one call) or through one
``bid_sheet`` that serves every task of the type, as inside a round.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afg import ComputationMode, TaskNode, TaskProperties
from repro.repository import SiteRepository
from repro.repository.taskperf import TaskPerfRecord
from repro.scheduler.host_selection import (
    bid_for_task,
    bid_sheet,
    predict_rows,
    sheet_bid,
)
from repro.scheduler.prediction import PredictionModel
from repro.sim.host import HostSpec
from repro.tasklib.base import ParallelModel
from tests.scheduler import _reference

TASK = "math.lu_decompose"

hosts = st.lists(
    st.fixed_dictionaries({
        "speed": st.floats(min_value=0.05, max_value=16.0),
        "memory_mb": st.integers(min_value=16, max_value=1024),
        "arch": st.sampled_from(("sparc", "x86")),
        "up": st.booleans(),
        # None = the host never reported (load 0.0, all memory free)
        "report": st.none() | st.tuples(
            st.floats(min_value=0.0, max_value=20.0),
            st.integers(min_value=0, max_value=1024)),
        "calibration": st.none() | st.floats(min_value=0.05, max_value=20.0),
        # None = quarantined; consulted only when the health hook is on
        "health": st.none() | st.floats(min_value=1.0, max_value=10.0),
        "extra": st.integers(min_value=0, max_value=6)
        | st.floats(min_value=0.0, max_value=6.0),
    }),
    min_size=1, max_size=7,
)

tasks = st.fixed_dictionaries({
    "computation_size": st.floats(min_value=0.0, max_value=100.0),
    "required_memory_mb": st.integers(min_value=0, max_value=512),
    "overhead": st.floats(min_value=0.0, max_value=0.5),
    "scale": st.floats(min_value=0.01, max_value=50.0),
    "memory_mb": st.integers(min_value=0, max_value=1024),  # 0 = unset
    "n_nodes": st.integers(min_value=1, max_value=4),
    "machine_type": st.none() | st.just("x86"),
})

models = st.builds(
    PredictionModel,
    memory_penalty=st.floats(min_value=1.0, max_value=8.0),
    noise=st.sampled_from((0.0, 0.3)),
    noise_seed=st.integers(min_value=0, max_value=3),
    use_calibration=st.booleans(),
    ignore_load=st.booleans(),
)


def _repo(host_specs, task):
    repo = SiteRepository("kernel-site")
    repo.task_perf.register(TaskPerfRecord(
        task_type=TASK, computation_size=task["computation_size"],
        communication_size_mb=0.1,
        required_memory_mb=task["required_memory_mb"],
        parallel=ParallelModel(overhead=task["overhead"])))
    for i, spec in enumerate(host_specs):
        name = f"h{i}"
        repo.resources.register_host(HostSpec(
            name=name, speed=spec["speed"], memory_mb=spec["memory_mb"],
            arch=spec["arch"]))
        repo.constraints.register(TASK, name, f"/bin/{name}")
        if spec["report"] is not None:
            load, available = spec["report"]
            repo.resources.update_workload(name, load, available, time=1.0)
        if not spec["up"]:
            repo.resources.mark_down(name, time=2.0)
        if spec["calibration"] is not None:
            # a first measurement sets the ratio to measured / expected
            repo.task_perf.record_execution(
                TASK, name, expected_s=1.0, measured_s=spec["calibration"])
    return repo


def _node(task):
    parallel = task["n_nodes"] > 1
    return TaskNode(
        id="t0", task_type=TASK, n_in_ports=0, n_out_ports=1,
        properties=TaskProperties(
            mode=ComputationMode.PARALLEL if parallel
            else ComputationMode.SEQUENTIAL,
            n_nodes=task["n_nodes"], workload_scale=task["scale"],
            memory_mb=task["memory_mb"],
            preferred_machine_type=task["machine_type"]))


@given(hosts, tasks, models, st.booleans())
@settings(max_examples=300, deadline=None)
def test_kernel_bid_is_the_models_bid(host_specs, task, model, with_health):
    repo = _repo(host_specs, task)
    node = _node(task)
    by_name = {f"h{i}": spec for i, spec in enumerate(host_specs)}
    # the kernel reads a host -> count mapping, the reference a function
    extra_load = {name: spec["extra"] for name, spec in by_name.items()}
    health_of = (lambda name: by_name[name]["health"]) if with_health else None
    bids = []
    for _ in range(2):  # the second kernel bid runs on warm rows
        bids.append(bid_for_task(node, repo, model, extra_load, health_of))
    reference = _reference.bid_for_task(node, repo, model,
                                        extra_load.__getitem__, health_of)
    assert bids[0] == bids[1] == reference
    if reference is not None:
        assert bids[0].predicted_time == reference.predicted_time
        assert len(reference.hosts) == task["n_nodes"]


@given(hosts, st.lists(tasks, min_size=1, max_size=4), models, st.booleans())
@settings(max_examples=150, deadline=None)
def test_one_sheet_serves_every_task_of_the_type(host_specs, variants, model,
                                                 with_health):
    """A round resolves the (site, task type) sheet once; tasks of the
    type differ in scale, memory, node count and preference, and each
    one's bid must be what ``model.predict`` says for it."""
    repo = _repo(host_specs, variants[0])  # the first variant registers
    sheet = bid_sheet(repo, TASK, model)
    assert bid_sheet(repo, "no.such.task", model) is None
    by_name = {f"h{i}": spec for i, spec in enumerate(host_specs)}
    extra_load = {name: spec["extra"] for name, spec in by_name.items()}
    health_of = (lambda name: by_name[name]["health"]) if with_health else None
    for task in variants:
        node = _node(task)
        reference = _reference.bid_for_task(
            node, repo, model, extra_load.__getitem__, health_of)
        bid = sheet_bid(node, repo.resources.arch_os, sheet, model, extra_load,
                        health_of)
        if reference is None:
            assert bid is None
        else:
            assert bid == (reference.predicted_time, reference.hosts)


def test_kernel_rows_are_read_in_name_order_with_a_strict_minimum():
    """Two hosts predicting the same float: the earlier name wins, as
    ``min`` over ``(time, name)`` pairs would have it; a parallel task
    takes the ``n_nodes`` smallest pairs and bids the largest of them."""
    rows = [("h0", 1.0, 1.0, 64, 1.0, 1.0), ("h1", 1.0, 1.0, 64, 1.0, 1.0),
            ("h2", 2.0, 1.0, 64, 1.0, 1.0), ("h3", 1.0, 1.0, 8, 1.0, 1.0)]
    assert predict_rows(rows, 3.0, 16, 4.0, {}) == (3.0, ("h0",))
    assert predict_rows(rows, 3.0, 16, 4.0, {"h0": 1}) == (3.0, ("h1",))
    assert predict_rows(rows, 3.0, 16, 4.0, {}, 3) == (6.0, ("h0", "h1", "h2"))
    assert predict_rows(rows, 3.0, 16, 4.0, {}, 1,
                        {"h0": 5.0, "h1": 5.0, "h2": 1.0, "h3": 1.0}
                        ) == (6.0, ("h2",))


@pytest.mark.parametrize("predict_cache", [True, False])
def test_negative_extra_load_still_raises(predict_cache):
    repo = _repo([{"speed": 1.0, "memory_mb": 64, "arch": "sparc",
                   "up": True, "report": None, "calibration": None}],
                 {"computation_size": 1.0, "required_memory_mb": 8,
                  "overhead": 0.0})
    node = TaskNode(id="t0", task_type=TASK, n_in_ports=0, n_out_ports=1,
                    properties=TaskProperties())
    with pytest.raises(ValueError, match="extra_load"):
        if predict_cache:
            bid_for_task(node, repo, PredictionModel(), {"h0": -1.0})
        else:
            _reference.bid_for_task(node, repo, PredictionModel(),
                                    lambda _h: -1.0)
