"""Tests for the workload generators."""

import math
import struct

import pytest

from repro.afg import afg_to_dict, validate_afg
from repro.scheduler import SiteScheduler
from repro.tasklib import default_registry
from repro.workloads import (
    RandomDAGConfig,
    bag_of_tasks,
    figure1_afg,
    fork_join,
    linear_pipeline,
    linear_solver_afg,
    random_dag,
    reduction_tree,
    surveillance_afg,
)

from tests.runtime.conftest import build_runtime
from tests.workloads.fan_in import random_dag_at

#: seeds numpy's ``SeedSequence`` refuses, and the exception it raises
BAD_SEEDS = [(-1, ValueError), (1.5, TypeError), ("7", TypeError)]


class TestLinearSolver:
    def test_figure1_structure(self):
        afg = figure1_afg()
        assert "LU_Decomposition" in afg
        assert "Matrix_Multiplication" in afg
        lu = afg.task("LU_Decomposition")
        assert lu.properties.is_parallel
        assert lu.properties.n_nodes == 2
        assert lu.properties.total_input_size_mb() == pytest.approx(124.88)
        mm = afg.task("Matrix_Multiplication")
        assert mm.properties.preferred_machine_type == "SUN solaris"
        assert mm.properties.n_nodes == 1
        assert sum(b.is_dataflow for b in mm.properties.inputs) == 2
        assert validate_afg(afg, registry=default_registry()) == []

    def test_linear_solver_validates(self):
        afg = linear_solver_afg(scale=0.3)
        assert validate_afg(afg, registry=default_registry()) == []
        assert set(afg.entry_tasks()) == {"generate", "generate2"}
        assert afg.exit_tasks() == ["verify"]

    def test_linear_solver_without_verify(self):
        afg = linear_solver_afg(scale=0.3, verify=False)
        assert afg.exit_tasks() == ["solve"]

    def test_sequential_lu_variant(self):
        afg = linear_solver_afg(parallel_lu_nodes=1)
        assert not afg.task("lu").properties.is_parallel


class TestSurveillance:
    def test_structure_scales_with_sensors(self):
        for n in (2, 3, 5):
            afg = surveillance_afg(n_sensors=n)
            assert validate_afg(afg, registry=default_registry()) == []
            assert len(afg.entry_tasks()) == n
            assert sorted(afg.exit_tasks()) == ["archive", "display"]
            # n-1 pairwise correlations
            corr = [t.id for t in afg if t.task_type == "c3i.track_correlation"]
            assert len(corr) == n - 1

    def test_minimum_sensors(self):
        with pytest.raises(ValueError):
            surveillance_afg(n_sensors=1)


class TestRandomDAG:
    def test_deterministic_per_seed(self):
        cfg = RandomDAGConfig(n_tasks=30, seed=5)
        assert afg_to_dict(random_dag(cfg)) == afg_to_dict(random_dag(cfg))
        other = RandomDAGConfig(n_tasks=30, seed=6)
        assert afg_to_dict(random_dag(cfg)) != afg_to_dict(random_dag(other))

    def test_task_count_and_validity(self):
        for n in (1, 7, 40):
            afg = random_dag(RandomDAGConfig(n_tasks=n, seed=1))
            assert len(afg) == n
            assert validate_afg(afg) == []  # structural only (generic types)
            assert afg.is_acyclic()

    def test_fan_in_bounded(self):
        cfg = RandomDAGConfig(n_tasks=50, seed=2)
        afg = random_dag_at(cfg, 2)
        assert all(t.n_in_ports <= 2 for t in afg)

    def test_cost_heterogeneity_range(self):
        cfg = RandomDAGConfig(n_tasks=50, mean_cost=4.0,
                              cost_heterogeneity=0.5, seed=3)
        afg = random_dag(cfg)
        scales = [t.properties.workload_scale for t in afg]
        assert all(2.0 <= s <= 6.0 for s in scales)
        assert max(scales) > min(scales)

    def test_zero_ccr_means_no_data(self):
        afg = random_dag(RandomDAGConfig(n_tasks=20, ccr=0.0, seed=4))
        assert all(e.size_mb == 0.0 for e in afg.edges)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RandomDAGConfig(n_tasks=0)
        with pytest.raises(ValueError):
            RandomDAGConfig(width=0)
        with pytest.raises(ValueError):
            RandomDAGConfig(cost_heterogeneity=1.0)
        with pytest.raises(ValueError):
            RandomDAGConfig(ccr=-1.0)

    @pytest.mark.parametrize("seed,error", BAD_SEEDS)
    def test_a_bad_seed_is_refused_at_construction(self, seed, error):
        """Not later, from inside the generator; what numpy's
        ``SeedSequence`` takes is taken (``True``, ints >= 2**128)."""
        with pytest.raises(error):
            RandomDAGConfig(seed=seed)
        for good in (True, 2**130):
            assert len(random_dag(RandomDAGConfig(n_tasks=5, seed=good))) == 5


class TestPipelineShapes:
    def test_linear_pipeline(self):
        afg = linear_pipeline(n_stages=5, cost=3.0)
        assert len(afg) == 5
        assert len(afg.edges) == 4
        assert validate_afg(afg) == []
        with pytest.raises(ValueError):
            linear_pipeline(n_stages=0)

    def test_fork_join(self):
        afg = fork_join(width=6)
        assert len(afg) == 8
        assert len(afg.entry_tasks()) == 1
        assert len(afg.exit_tasks()) == 1
        assert validate_afg(afg) == []

    def test_reduction_tree(self):
        afg = reduction_tree(leaves=8)
        assert len(afg.entry_tasks()) == 8
        assert len(afg.exit_tasks()) == 1
        assert len(afg) == 8 + 7
        assert validate_afg(afg) == []
        with pytest.raises(ValueError):
            reduction_tree(leaves=6)

    @pytest.mark.parametrize("seed,error", BAD_SEEDS)
    @pytest.mark.parametrize("heterogeneity", [0.0, 0.5])
    def test_a_bad_seed_is_refused_by_a_bag(self, seed, error, heterogeneity):
        """Even by a homogeneous bag, which draws nothing."""
        with pytest.raises(error):
            bag_of_tasks(n=4, heterogeneity=heterogeneity, seed=seed)

    def test_bag_of_tasks(self):
        afg = bag_of_tasks(n=10, heterogeneity=0.5, seed=1)
        assert len(afg) == 10
        assert not afg.edges
        scales = [t.properties.workload_scale for t in afg]
        assert max(scales) > min(scales)


# -- a homogeneous bag draws nothing ------------------------------------------

def drawing_bag_scales(n, cost, heterogeneity, seed):
    """The bag's costs as they were built when every bag drew: one
    generator, one ``uniform(-1, 1)`` per task, scaled by
    ``heterogeneity``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return [cost * (1.0 + heterogeneity * float(rng.uniform(-1.0, 1.0)))
            for _ in range(n)]


def bits(values):
    return [(type(v), struct.pack(">d", v)) for v in values]


@pytest.mark.gate
@pytest.mark.parametrize("heterogeneity", [0.0, -0.0, 0.25, 0.9])
@pytest.mark.parametrize("cost", [4, 4.0, 3.0, 0.1, 7, 1e-300, 1e300])
def test_the_homogeneous_bag_is_the_drawing_bag(cost, heterogeneity):
    """``h * u`` is a signed zero for every drawn ``u`` when ``h`` is,
    so the bag that draws nothing has the drawing bag's bits and types;
    a heterogeneous bag still draws, unchanged."""
    for n in (1, 5, 64):
        for seed in (0, 1, 12345):
            afg = bag_of_tasks(n=n, cost=cost, heterogeneity=heterogeneity,
                               seed=seed)
            scales = [afg.task(f"job{i:03d}").properties.workload_scale
                      for i in range(n)]
            assert bits(scales) == bits(
                drawing_bag_scales(n, cost, heterogeneity, seed))
            if heterogeneity and n > 1:
                assert len(set(scales)) == n


# -- non-finite numbers are refused where they enter --------------------------

def run_bounded(rt, make_afg, limit=3000.0):
    """Build, schedule and run one application inside ``rt``'s
    simulation, monitoring on, with a simulated-time limit."""
    rt.start_monitoring()

    def pipeline():
        return (yield from rt.run_process(
            make_afg(), SiteScheduler(k=1, model=rt.model), "alpha",
            execute_payloads=False))

    return rt.sim.run_until_complete(rt.sim.process(pipeline()), limit=limit)


@pytest.mark.gate
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make_afg", [
    lambda bad: random_dag(RandomDAGConfig(n_tasks=12, ccr=bad)),
    lambda bad: random_dag(RandomDAGConfig(n_tasks=12, mean_cost=bad)),
    lambda bad: bag_of_tasks(n=4, cost=bad),
], ids=["ccr", "mean_cost", "bag_cost"])
def test_a_non_finite_number_fails_the_run_at_t0(make_afg, bad):
    """Refused where the number enters, before any simulated time.  A
    NaN edge size used to finish the run with the clock at NaN, an
    infinite one to keep the application from completing (the monitors
    keep the calendar alive, so only the limit ended the run), and a
    non-finite cost died in scheduling with ``math.ceil``'s error."""
    rt = build_runtime()
    with pytest.raises(ValueError, match="finite"):
        run_bounded(rt, lambda: make_afg(bad))
    assert rt.sim.now == 0.0


def test_a_finite_run_completes_under_the_same_bound():
    result = run_bounded(build_runtime(), lambda: random_dag(
        RandomDAGConfig(n_tasks=12, ccr=0.5)))
    assert len(result.records) == 12
