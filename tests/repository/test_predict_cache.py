"""Prediction rows (``HostIndex.rows``): re-keyed by every input change,
never patched.

The row table's correctness story is its version key: a row holds a
host's reported load, available memory and (task type, host)
calibration, and every write to any of them bumps one of
``(resources.registration_version, constraints.version,
resources.state_version, task_perf.version)``.  These tests drive each
kind of write — workload report, mark down/up, calibration refinement,
task registration, drain/retire/rejoin, one write per counter — and
require the kernel's bid to agree bit-for-bit with the per-pair
``model.predict`` bid (``tests/scheduler/_reference.py``) before and
after, with rebuilds happening exactly when the key (or the model)
moved.  The file keeps the name of the module the rows used to live in:
its test ids are pinned by the tier-1 floor.
"""

import pytest

from repro.afg import TaskNode, TaskProperties
from repro.repository import SiteRepository
from repro.repository.taskperf import TaskPerfRecord
from repro.scheduler.host_selection import bid_for_task
from repro.scheduler.prediction import PredictionModel
from repro.sim.host import HostSpec
from tests.scheduler import _reference

TASK = "math.lu_decompose"
NODE = TaskNode(id="t0", task_type=TASK, n_in_ports=0, n_out_ports=1,
                properties=TaskProperties())


def _repo(n_hosts=3):
    repo = SiteRepository("cache-site")
    for i in range(n_hosts):
        name = f"c{i}"
        repo.resources.register_host(
            HostSpec(name=name, speed=1.0 + i, memory_mb=256))
        repo.constraints.register(TASK, name, f"/bin/{name}")
    repo.task_perf.register(TaskPerfRecord(
        task_type=TASK, computation_size=2.0,
        communication_size_mb=0.1, required_memory_mb=16))
    return repo


def _direct(model, repo, host_name, extra_load=0.0):
    """The reference answer for one host, straight from the model."""
    return model.predict(TASK, 1.0, 1, repo.resources.get(host_name),
                         repo.task_perf, memory_mb=None,
                         extra_load=extra_load)


def _both_bids(repo, model, extra_load=None, health_of=None):
    """(kernel bid, reference bid); the caller asserts what it needs,
    this asserts they are the same bid.  The kernel reads the in-round
    load from a host -> count mapping, the reference calls a function."""
    extra_load = extra_load or {}
    kernel = bid_for_task(NODE, repo, model, extra_load, health_of)
    reference = _reference.bid_for_task(
        NODE, repo, model, lambda host: extra_load.get(host, 0), health_of)
    assert kernel == reference
    return kernel


def test_hit_is_bit_identical_and_counted():
    """Rows are built once and reused while nothing changed."""
    repo = _repo()
    model = PredictionModel()
    cache = repo.host_index
    rows = cache.rows(TASK, model)
    assert [row[0] for row in rows] == ["c0", "c1", "c2"]
    first = _both_bids(repo, model)
    second = _both_bids(repo, model)
    assert first == second
    assert first.predicted_time == _direct(model, repo, first.primary_host)
    assert cache.rows(TASK, model) is rows and cache.builds == 1


def test_load_change_is_a_new_key_never_a_stale_hit():
    """A workload report replaces the host row, which re-keys the rows."""
    repo = _repo(n_hosts=1)
    model = PredictionModel()
    cache = repo.host_index
    before = _both_bids(repo, model).predicted_time
    key = cache.version_key()
    repo.resources.update_workload("c0", load=3.0,
                                   available_memory_mb=128, time=1.0)
    assert cache.version_key() != key
    after = _both_bids(repo, model).predicted_time
    assert after == _direct(model, repo, "c0")
    assert after != before  # the load genuinely moved the prediction
    assert cache.builds == 2


def test_mark_down_and_up_rekey_and_resize_the_rows():
    repo = _repo()
    model = PredictionModel()
    cache = repo.host_index
    assert _both_bids(repo, model).primary_host == "c2"  # the fastest
    repo.resources.mark_down("c2", time=1.0)
    assert [row[0] for row in cache.rows(TASK, model)] == ["c0", "c1"]
    assert _both_bids(repo, model).primary_host == "c1"
    repo.resources.mark_up("c2", time=2.0)
    assert [row[0] for row in cache.rows(TASK, model)] == ["c0", "c1", "c2"]
    assert _both_bids(repo, model).primary_host == "c2"
    assert cache.builds == 3


def test_calibration_refinement_invalidates_the_whole_cache():
    """A slowdown fault shows up as measured >> expected; the resulting
    record_execution bumps the version and must drop every row."""
    repo = _repo(n_hosts=1)
    model = PredictionModel()
    cache = repo.host_index
    stale = cache.rows(TASK, model)
    before = _both_bids(repo, model).predicted_time
    # the host ran 4x slower than predicted (a slowdown fault)
    repo.task_perf.record_execution(TASK, "c0", expected_s=before,
                                    measured_s=4.0 * before)
    after = _both_bids(repo, model).predicted_time
    assert after == _direct(model, repo, "c0")
    assert after != before
    assert cache.rows(TASK, model) is not stale and cache.builds == 2
    # the same refinement leaves an uncalibrated model's floats alone
    blind = PredictionModel(use_calibration=False)
    assert _both_bids(repo, blind).predicted_time == before


def test_registration_invalidates():
    repo = _repo()
    model = PredictionModel()
    cache = repo.host_index
    cache.rows(TASK, model)
    repo.task_perf.register(TaskPerfRecord(
        task_type="signal.spectrum", computation_size=1.0,
        communication_size_mb=0.1, required_memory_mb=8))
    cache.rows(TASK, model)
    assert cache.builds == 2  # the pre-registration rows were dropped


def test_quarantine_and_health_updates_need_no_invalidation():
    """Health penalties multiply *after* prediction and quarantine
    *selects* from the rows, so score updates flow through warm rows:
    kernel and reference bids agree before, during, and after a
    quarantine, and the shared rows are neither rebuilt nor touched."""
    repo = _repo()
    model = PredictionModel()
    cache = repo.host_index
    rows = cache.rows(TASK, model)
    snapshot = list(rows)
    factors = {"c0": 1.0, "c1": 1.0, "c2": 1.0}
    fastest = _both_bids(repo, model, health_of=factors.get).primary_host
    # penalize then quarantine the winner; the warm rows must follow
    factors[fastest] = 10.0
    assert _both_bids(repo, model, health_of=factors.get).primary_host \
        != fastest
    factors[fastest] = None  # quarantined outright
    assert fastest not in _both_bids(repo, model,
                                     health_of=factors.get).hosts
    assert cache.rows(TASK, model) is rows and rows == snapshot
    assert cache.builds == 1


def test_drain_retire_and_rejoin_each_rekey():
    """Every membership transition moves the key; a rejoined host comes
    back with its new spec, not the rows of its previous life."""
    repo = _repo()
    model = PredictionModel()
    cache = repo.host_index
    names = lambda: [row[0] for row in cache.rows(TASK, model)]
    assert names() == ["c0", "c1", "c2"]
    keys = {cache.version_key()}
    repo.resources.begin_draining("c2", time=1.0)
    assert names() == ["c0", "c1"] and _both_bids(repo, model)
    keys.add(cache.version_key())
    repo.deregister_host("c2")
    assert names() == ["c0", "c1"]
    keys.add(cache.version_key())
    repo.resources.rejoin_host(
        HostSpec(name="c2", speed=9.0, memory_mb=256), time=2.0)
    repo.constraints.register(TASK, "c2", "/bin/c2")
    assert names() == ["c0", "c1"]  # REJOINING is not yet schedulable
    keys.add(cache.version_key())
    repo.resources.activate_host("c2", time=3.0)
    keys.add(cache.version_key())
    assert len(keys) == 5
    assert [row[2] for row in cache.rows(TASK, model)] == [1.0, 2.0, 9.0]
    assert _both_bids(repo, model).primary_host == "c2"


def test_int_and_float_extra_load_give_one_float():
    """The commit ledger's mapping holds raw ints; ints promote
    exactly, so both forms must produce the reference's float."""
    repo = _repo(n_hosts=1)
    model = PredictionModel()
    as_int = _both_bids(repo, model, extra_load={"c0": 2})
    as_float = _both_bids(repo, model, extra_load={"c0": 2.0})
    assert as_int.predicted_time == as_float.predicted_time \
        == _direct(model, repo, "c0", extra_load=2.0)


def test_model_variants_never_collide():
    """The model is half of the key: another model value drops the rows,
    an equal one shares them."""
    repo = _repo(n_hosts=1)
    exact = PredictionModel()
    noisy = PredictionModel(noise=0.3, noise_seed=7)
    cache = repo.host_index
    a = _both_bids(repo, exact).predicted_time
    b = _both_bids(repo, noisy).predicted_time
    assert a != b
    assert _both_bids(repo, exact).predicted_time == a
    assert cache.builds == 3  # one table at a time: each switch rebuilt
    assert cache.rows(TASK, PredictionModel()) is cache.rows(TASK, exact)
    assert cache.builds == 3


def _report_load(repo):
    repo.resources.update_workload("c0", load=1.0,
                                   available_memory_mb=64, time=1.0)


@pytest.mark.parametrize("counter, write", [
    (0, lambda repo: repo.resources.register_host(HostSpec(name="c9"))),
    (1, lambda repo: repo.constraints.register(
        "signal.spectrum", "c1", "/bin/c1")),
    (2, _report_load),
    (3, lambda repo: repo.task_perf.record_execution(
        TASK, "c0", expected_s=1.0, measured_s=2.0)),
])
def test_each_counter_of_the_key_alone_drops_the_rows(counter, write):
    repo = _repo()
    model = PredictionModel()
    cache = repo.host_index
    rows, key = cache.rows(TASK, model), cache.version_key()
    write(repo)
    moved = [i for i, (a, b) in enumerate(zip(key, cache.version_key()))
             if a != b]
    assert moved == [counter]
    assert cache.rows(TASK, model) is not rows and cache.builds == 2
    _both_bids(repo, model)
