"""Tests for the performance-prediction model."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.repository.resources import HostRecord
from repro.repository.taskperf import TaskPerfRecord, TaskPerformanceDB
from repro.scheduler import PredictionModel
from repro.sim import HostSpec
from repro.tasklib import ParallelModel


def make_db():
    db = TaskPerformanceDB("s")
    db.register(TaskPerfRecord("seq", computation_size=10.0,
                               communication_size_mb=1.0, required_memory_mb=32))
    db.register(TaskPerfRecord("par", computation_size=40.0,
                               communication_size_mb=1.0, required_memory_mb=32,
                               parallel=ParallelModel(overhead=0.0)))
    return db


def record(name="h", speed=1.0, load=0.0, avail_mb=256):
    return HostRecord(
        spec=HostSpec(name=name, speed=speed, memory_mb=avail_mb),
        site="s",
        load=load,
        available_memory_mb=avail_mb,
    )


def test_idle_unit_host_predicts_computation_size():
    db = make_db()
    model = PredictionModel()
    assert model.predict("seq", 1.0, 1, record(), db) == pytest.approx(10.0)


def test_speed_and_scale():
    db = make_db()
    model = PredictionModel()
    t = model.predict("seq", 2.0, 1, record(speed=4.0), db)
    assert t == pytest.approx(20.0 / 4.0)


def test_load_inflates_prediction():
    db = make_db()
    model = PredictionModel()
    t = model.predict("seq", 1.0, 1, record(load=1.5), db)
    assert t == pytest.approx(10.0 * 2.5)


def test_ignore_load_flag():
    db = make_db()
    model = PredictionModel(ignore_load=True)
    t = model.predict("seq", 1.0, 1, record(load=9.0), db)
    assert t == pytest.approx(10.0)


def test_memory_penalty_applied_when_oversubscribed():
    db = make_db()
    model = PredictionModel(memory_penalty=4.0)
    tight = record(avail_mb=16)  # task needs 32
    assert model.predict("seq", 1.0, 1, tight, db) == pytest.approx(40.0)


def test_memory_penalty_uses_explicit_memory_override():
    db = make_db()
    model = PredictionModel(memory_penalty=4.0)
    host = record(avail_mb=64)
    # default requirement 32 fits; override of 100 does not
    assert model.predict("seq", 1.0, 1, host, db) == pytest.approx(10.0)
    assert model.predict("seq", 1.0, 1, host, db, memory_mb=100) == pytest.approx(40.0)


@given(st.integers(min_value=0, max_value=2**40),
       st.floats(min_value=0.0, max_value=1e12))
def test_math_ceil_is_the_numpy_ceil_it_replaced(required_memory_mb, scale):
    product = required_memory_mb * scale
    assert math.ceil(product) == int(np.ceil(product))


def test_parallel_speedup_divides_span():
    db = make_db()
    model = PredictionModel()
    t = model.predict("par", 1.0, 4, record(), db)
    assert t == pytest.approx(10.0)  # 40 / perfect speedup 4


def test_parallel_on_sequential_task_rejected():
    db = make_db()
    with pytest.raises(ValueError, match="not parallelizable"):
        PredictionModel().predict("seq", 1.0, 2, record(), db)


def test_calibration_factor_applied():
    db = make_db()
    db.record_execution("seq", "h", expected_s=10.0, measured_s=15.0)
    model = PredictionModel()
    assert model.predict("seq", 1.0, 1, record(), db) == pytest.approx(15.0)
    uncalibrated = PredictionModel(use_calibration=False)
    assert uncalibrated.predict("seq", 1.0, 1, record(), db) == pytest.approx(10.0)


def test_noise_is_deterministic_and_bounded():
    db = make_db()
    model = PredictionModel(noise=0.3, noise_seed=7)
    t1 = model.predict("seq", 1.0, 1, record(), db)
    t2 = model.predict("seq", 1.0, 1, record(), db)
    assert t1 == t2
    assert 7.0 <= t1 <= 13.0
    other_host = model.predict("seq", 1.0, 1, record(name="other"), db)
    assert other_host != t1  # noise varies per host


def test_noise_seed_changes_draw():
    db = make_db()
    a = PredictionModel(noise=0.3, noise_seed=1).predict("seq", 1.0, 1, record(), db)
    b = PredictionModel(noise=0.3, noise_seed=2).predict("seq", 1.0, 1, record(), db)
    assert a != b


@pytest.mark.gate
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_the_memory_penalty_must_be_finite(bad):
    """``PredictionModel`` refuses a non-finite memory penalty."""
    with pytest.raises(ValueError):
        PredictionModel(memory_penalty=bad)


def test_model_validation():
    with pytest.raises(ValueError):
        PredictionModel(memory_penalty=0.5)
    with pytest.raises(ValueError):
        PredictionModel(noise=1.0)
    with pytest.raises(ValueError):
        PredictionModel(noise=-0.1)
