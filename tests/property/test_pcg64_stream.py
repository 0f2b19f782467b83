"""``repro.pcg64`` is ``numpy.random.default_rng``'s stream, draw for draw.

The oracle is the numpy this interpreter has: every CI job installs its
own, so the replica is checked against numpy on every supported Python.
A script of draws — ``integers`` over 32- and 64-bit ranges, ``uniform``
and ``choice`` in both of numpy's branches, and the simulator's shapes
(``random``, ``exponential``, ``normal``, a scalar ``choice``),
interleaved so that a 32-bit draw's buffered upper half outlives the
64-bit draws between — runs on both, on a plain seed's stream and on a
named one (``SeedSequence(seed, spawn_key=name's UTF-8 bytes)``, a
``Simulator.rng`` stream), and a mismatch names the first draw that
differs.  A fixed script then proves that every path of the two
ziggurats ran.  Each call site (random DAGs, heterogeneous bags,
``RandomScheduler``, the prediction model's noise) is run once on the
replica and once on numpy's ``Generator``, which has the same call
shapes.

Should numpy ever change its stream, these tests fail and the pins in
``tests/pins.json``, not numpy, define the stream from then on.
"""

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.pcg64 as pcg64
import repro.scheduler.baselines as baselines
import repro.scheduler.prediction as prediction
import repro.workloads.pipelines as pipelines
from repro.afg import afg_to_dict
from repro.pcg64 import PCG64
from repro.scheduler import PredictionModel, RandomScheduler
from repro.workloads import RandomDAGConfig, bag_of_tasks, random_dag

from tests.scheduler.conftest import build_federation
from tests.workloads.fan_in import random_dag_at

pytestmark = pytest.mark.gate

#: the module, which the package's ``random_dag`` function shadows
random_dag_module = importlib.import_module("repro.workloads.random_dag")

#: ``high - low`` of an ``integers`` draw: no draw, 32-bit Lemire, the
#: plain 32-bit draw (2**32), 64-bit Lemire
SPANS = [1, 2, 3, 10, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63]
#: ``choice`` populations and sizes on the tail-shuffle branch
#: (``n > 10_000 and size > n // 50``) and just off it (Floyd's)
LARGE_CHOICES = [(10_001, 201), (20_000, 401), (10_001, 200), (20_000, 400),
                 (10_001, 10_001)]

seeds = st.one_of(st.integers(0, 2**130), st.integers(0, 2**32),
                  st.just(True))
draws = st.one_of(
    st.tuples(st.just("integers"), st.integers(-(2**62), 0),
              st.sampled_from(SPANS)),
    st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(0.0, 1e6)),
    st.integers(1, 300).flatmap(
        lambda n: st.tuples(st.just("choice"), st.just(n), st.integers(0, n))),
    st.sampled_from([("choice", n, size) for n, size in LARGE_CHOICES]),
)
#: the shapes ``Simulator.rng``'s callers draw, as ``(method, *args)``
scales = st.floats(0.0, 1e6)
simulator_draws = st.one_of(
    st.just(("random",)),
    st.just(("uniform",)),
    st.just(("normal",)),
    st.just(("exponential",)),
    st.tuples(st.just("exponential"), scales),
    st.tuples(st.just("normal"), st.floats(-1e6, 1e6), scales),
    st.tuples(st.just("choice"), st.integers(1, 2**40)),
    st.tuples(st.just("integers"), st.integers(1, 2**63)),
)
names = st.one_of(st.just(""), st.text(max_size=24))


def draw(rng, step):
    kind, *args = step
    if len(args) < 2:  # a simulator shape with at most one argument
        return getattr(rng, kind)(*args)
    a, b = args
    if kind == "integers":
        return int(rng.integers(a, a + b))
    if kind == "uniform":
        return float(rng.uniform(a, a + b))
    if kind == "normal":
        return float(rng.normal(a, b))
    return [int(i) for i in rng.choice(a, size=b, replace=False)]


def numpy_stream(seed, name=""):
    """``Simulator.rng(name)``'s stream, as numpy builds it."""
    return np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=tuple(name.encode("utf-8"))))


def assert_same_stream(seed, steps, name=""):
    ours, numpy_rng = PCG64(seed, name.encode("utf-8")), numpy_stream(seed, name)
    for index, step in enumerate(steps):
        got, want = draw(ours, step), draw(numpy_rng, step)
        assert type(got) in (int, float, list), step
        assert got == want, (
            f"seed {seed}, name {name!r}: draw {index}, {step[0]}{step[1:]}, "
            f"differs from numpy after {steps[:index]}")


@given(seeds, st.lists(draws, max_size=40))
@settings(max_examples=150, deadline=None)
@example(0, [("integers", 0, 10), ("uniform", 0.0, 1.0), ("integers", 0, 10)])
@example(2**130, [("integers", 0, 2**40)] + [("integers", -5, 2**32)] * 3)
@example(True, [("choice", 10_001, 201), ("choice", 20_000, 401)])
def test_every_draw_is_numpys(seed, steps):
    assert_same_stream(seed, steps)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1,
                                  2**128, 2**130, True])
def test_every_draw_shape_is_numpys_at_boundary_seeds(seed):
    steps = [("integers", 0, span) for span in SPANS]
    steps += [("uniform", -1.0, 2.0), ("integers", 1, 4), ("uniform", 0.5, 1.0),
              ("integers", 1, 4), ("integers", -(2**62), 2**63)]
    steps += [("choice", n, size) for n, size in LARGE_CHOICES]
    steps += [("choice", 7, 3), ("choice", 300, 300), ("choice", 1, 0)]
    assert_same_stream(seed, steps * 2)


@given(seeds, names, st.lists(st.one_of(draws, simulator_draws), max_size=40))
@settings(max_examples=120, deadline=None)
@example(0, "chaos:plan", [("choice", 12), ("choice", 9, 2), ("uniform",)])
@example(2**130, "fail:s1-h03", [("exponential", 30.0), ("normal",)] * 4)
@example(True, "rpc:alpha->bêta \u2192", [("integers", 0, 10), ("random",),
                                        ("integers", 0, 10)])
def test_every_named_stream_draw_is_numpys(seed, name, steps):
    """``Simulator.rng(name)``'s stream, every shape mixed."""
    assert_same_stream(seed, steps, name)


class Counted:
    """Counts the module's ``exp`` / ``log1p`` calls and the 64-bit
    draws, so that a draw's path through a ziggurat can be told."""

    def __init__(self, patch):
        self.calls = [0, 0, 0]
        next64 = PCG64._next64

        def counted(index, function):
            def call(*args):
                self.calls[index] += 1
                return function(*args)
            return call
        patch.setattr(PCG64, "_next64", counted(0, next64))
        patch.setattr(pcg64, "exp", counted(1, pcg64.exp))
        patch.setattr(pcg64, "log1p", counted(2, pcg64.log1p))

    def path(self, draw):
        """``(value, (64-bit draws, exp calls, log1p calls))``."""
        self.calls[:] = [0, 0, 0]
        value = draw()
        return value, tuple(self.calls)


def ziggurat_path(kind, calls):
    """The path a draw of ``kind`` took, told from its counted calls."""
    draws, exps, logs = calls
    tail_draws = 2 if kind == "exponential" else 3
    if calls == (1, 0, 0):
        return "fast accept"
    if calls == (2, 1, 0):
        return "wedge accept"
    if exps and draws >= 3:
        return "wedge reject, redraw"
    if not exps and logs and draws == tail_draws:
        return "tail"
    if kind == "normal" and not exps and logs >= 4:
        return "tail, inner reject"
    return calls


#: a stream and a count of draws that take every path of a ziggurat
ZIGGURAT_SCRIPTS = {
    "exponential": (361, "zig", 1000, {"fast accept", "wedge accept",
                                     "wedge reject, redraw", "tail"}),
    "normal": (391, "zig", 1700, {"fast accept", "wedge accept",
                                  "wedge reject, redraw", "tail",
                                  "tail, inner reject"}),
}


@pytest.mark.parametrize("kind", sorted(ZIGGURAT_SCRIPTS))
def test_every_ziggurat_path_ran_and_is_numpys(kind, monkeypatch):
    seed, name, n, paths = ZIGGURAT_SCRIPTS[kind]
    want = getattr(numpy_stream(seed, name), kind)(size=n).tolist()
    ours = PCG64(seed, name.encode("utf-8"))
    counted = Counted(monkeypatch)
    seen = set()
    for index in range(n):
        value, calls = counted.path(getattr(ours, kind))
        seen.add(ziggurat_path(kind, calls))
        assert value == want[index], (kind, index, calls)
    assert seen == paths


@pytest.mark.parametrize("scale", [-1.0, -0.0, -1e-300, -float("inf")])
def test_a_negative_scale_is_refused_as_numpy_refuses_it(scale):
    for rng in (PCG64(0, b"x"), numpy_stream(0, "x")):
        with pytest.raises(ValueError):
            rng.exponential(scale)
        with pytest.raises(ValueError):
            rng.normal(0.0, scale)


def test_an_empty_or_out_of_bounds_range_is_refused_as_numpy_refuses_it():
    for low, high in [(5, 5), (0, 0), (3, 1), (-(2**63) - 1, 0), (0, 2**63 + 1)]:
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(low, high)
        with pytest.raises(ValueError):
            PCG64(0).integers(low, high)
    for n, size in [(3, 4), (3, -1)]:
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(n, size=size, replace=False)
        with pytest.raises(ValueError):
            PCG64(0).choice(n, size=size, replace=False)
    for n in (0, -2):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(n)
        with pytest.raises(ValueError):
            PCG64(0).choice(n)


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (-(2**70), ValueError),
                                        (1.0, TypeError), ("5", TypeError)])
def test_a_bad_seed_raises_numpys_exception(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        PCG64(seed)


# -- the call sites: the replica against numpy's Generator ---------------------

def on_numpy(module, call):
    """``call()`` with ``module``'s stream replaced by numpy's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "PCG64", np.random.default_rng)
        return call()


DAG_GRID = [
    (RandomDAGConfig(n_tasks=n, width=width, ccr=ccr, cost_heterogeneity=h,
                     seed=seed), fan_in)
    for n, width, fan_in, ccr, h, seed in itertools.product(
        [1, 20, 512], [1, 4, 16], [1, 3, 8], [0.0, 0.5], [0.0, 0.5],
        [0, 2**40])
    if n < 512 or (ccr and h)
]


def test_random_dags_are_numpys():
    for config, fan_in in DAG_GRID:
        want = on_numpy(random_dag_module, lambda: random_dag_at(config, fan_in))
        assert afg_to_dict(random_dag_at(config, fan_in)) \
            == afg_to_dict(want), (config, fan_in)


def test_heterogeneous_bags_are_numpys():
    for n, heterogeneity, seed in itertools.product(
            [1, 12, 300], [0.1, 0.5, 0.9], [0, 7, 2**33]):
        def bag():
            return bag_of_tasks(n=n, cost=3.0, heterogeneity=heterogeneity,
                                seed=seed)
        assert afg_to_dict(bag()) == afg_to_dict(on_numpy(pipelines, bag))


def test_random_placements_are_numpys():
    _, _, view = build_federation()
    for dag_seed, seed in itertools.product([0, 1, 2], [0, 3, 2**35]):
        afg = random_dag(RandomDAGConfig(n_tasks=40, width=6, seed=dag_seed))

        def place():
            return RandomScheduler(seed=seed).schedule(afg, view).to_dict()
        assert place() == on_numpy(baselines, place)


def test_prediction_noise_is_numpys():
    for noise, noise_seed in itertools.product([0.1, 0.9], [0, 5, 2**40]):
        model = PredictionModel(noise=noise, noise_seed=noise_seed)
        for task_type, host in itertools.product(
                ["generic.compute", "matrix.lu", "c3i.display"],
                ["a-slow", "b-fast", "site-3-host-7"]):
            def factor():
                return model._noise_factor(task_type, host)
            assert factor() == on_numpy(prediction, factor)
