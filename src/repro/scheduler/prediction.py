"""Performance prediction: ``Predict(task, R)``.

Paper §3: "The core of the given built-in scheduling algorithms is the
performance prediction [6] phase, which is provided by separate
function evaluations of each task on each resource."

Reference [6] (Yan & Zhang) predicts execution time on non-dedicated
heterogeneous workstations from the task's computation size and the
machine's speed and recent load.  Our model has the same inputs — all
drawn from the site repository, never from live hosts, because the
scheduler only sees the databases:

``time = span_work x (1 + load) / speed x calibration [x mem_penalty]``

where ``span_work`` is the task's base-processor time divided by the
parallel speedup (for parallel tasks), ``load`` is the host's last
reported run-queue length, ``calibration`` is the learned
measured/expected ratio for this (task, host) pair, and ``mem_penalty``
applies when the task's memory requirement exceeds the host's reported
available memory.

The optional ``noise`` knob perturbs predictions multiplicatively for
the sensitivity experiment (E10); noise is deterministic per
(task, host, seed) so experiments are reproducible.

**The model is separable** (DESIGN.md §13.5): every term depends on the
task or on the host, never on both, except the in-round ``extra_load``
the caller adds.  :meth:`PredictionModel.task_terms` is the task half
(``span_work``, ``required_mb``), :meth:`PredictionModel.host_terms`
the host half (one row per host, cached by
:meth:`HostIndex.rows <repro.repository.host_index.HostIndex.rows>`), and host
selection's row kernel combines them with :meth:`PredictionModel.
predict`'s float operations in :meth:`predict`'s order:

``t = span_work * (one_plus_load + extra) / speed``, then
``t *= memory_penalty`` if oversubscribed, ``t *= calibration``,
``t *= noise``.

IEEE arithmetic is not associative, so that order *is* the contract:
``one_plus_load`` is ``1.0 + load`` exactly as :meth:`predict`
associates it, the factors are never pre-multiplied, and a term the
model leaves out is the exact identity ``1.0``.  :meth:`predict` is
the straight-line form — what the baselines and the public API call,
and what ``tests/scheduler/test_predict_kernel.py`` holds the kernel
to, bit for bit.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.repository.resources import HostRecord
from repro.repository.taskperf import TaskPerformanceDB, TaskPerfRecord

__all__ = ["PredictionModel"]


@dataclass(frozen=True)
class PredictionModel:
    """Tunable ``Predict(task, R)`` evaluator.

    Parameters
    ----------
    memory_penalty:
        Multiplier applied when the task's memory requirement exceeds
        the host's reported available memory (models thrashing).
    noise:
        Relative half-width of a uniform multiplicative perturbation,
        e.g. ``0.3`` draws factors in [0.7, 1.3].  Zero (default) is
        the oracle-parameter model.
    noise_seed:
        Seed mixed into the per-(task, host) noise hash.
    use_calibration:
        Whether to apply the task-performance DB's learned (task, host)
        ratio (paper §4.1's post-execution refinement loop).
    ignore_load:
        Predict as if every host were idle — the "load-blind" ablation
        of experiment E3.
    """

    memory_penalty: float = 4.0
    noise: float = 0.0
    noise_seed: int = 0
    use_calibration: bool = True
    ignore_load: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.memory_penalty) and self.memory_penalty >= 1.0):
            raise ValueError("memory_penalty must be finite and >= 1")
        if not (0.0 <= self.noise < 1.0):
            raise ValueError("noise must be in [0, 1)")

    # -- single host -------------------------------------------------------

    def predict(
        self,
        task_type: str,
        scale: float,
        n_nodes: int,
        host: HostRecord,
        task_perf: TaskPerformanceDB,
        memory_mb: Optional[int] = None,
        extra_load: float = 0.0,
    ) -> float:
        """Predicted execution time of one task slice on ``host``.

        For a parallel task (``n_nodes > 1``) this is the time of the
        per-node slice under the library's speedup model; a host
        group's time is its slowest member's slice.

        ``extra_load`` is *scheduling-round* load: run-queue entries the
        caller has already committed to this host while placing the
        same application (see :mod:`repro.scheduler.host_selection`).
        It is deliberately unaffected by ``ignore_load``, which only
        blinds the model to the *measured background* load.
        """
        if extra_load < 0:
            raise ValueError("extra_load must be non-negative")
        record = task_perf.get(task_type)
        total_work = record.computation_size * scale
        if n_nodes > 1:
            if record.parallel is None:
                raise ValueError(
                    f"task {task_type!r} is not parallelizable but n_nodes={n_nodes}"
                )
            span_work = total_work / record.parallel.speedup(n_nodes)
        else:
            span_work = total_work

        load = 0.0 if self.ignore_load else max(0.0, host.load)
        time = span_work * (1.0 + load + extra_load) / host.spec.speed

        required_mb = memory_mb if memory_mb is not None else math.ceil(
            record.required_memory_mb * scale
        )
        if required_mb > host.available_memory_mb:
            time *= self.memory_penalty

        if self.use_calibration:
            time *= task_perf.host_calibration(task_type, host.name)

        if self.noise > 0.0:
            time *= self._noise_factor(task_type, host.name)
        return time

    # -- the two halves (see the module docstring) ----------------------------

    def task_terms(
        self,
        record: TaskPerfRecord,
        scale: float,
        n_nodes: int,
        memory_mb: Optional[int] = None,
    ) -> Tuple[float, int]:
        """``(span_work, required_mb)``: all of :meth:`predict` that
        depends on the task alone, computed once per bid from the
        task's ``record`` in the site's task-performance DB."""
        span_work = record.computation_size * scale
        if n_nodes > 1:
            if record.parallel is None:
                raise ValueError(
                    f"task {record.task_type!r} is not parallelizable "
                    f"but n_nodes={n_nodes}"
                )
            span_work = span_work / record.parallel.speedup(n_nodes)
        if memory_mb is None:
            memory_mb = math.ceil(record.required_memory_mb * scale)
        return span_work, memory_mb

    def host_terms(
        self, task_type: str, host: HostRecord, task_perf: TaskPerformanceDB
    ) -> Tuple[str, float, float, int, float, float]:
        """``(name, one_plus_load, speed, available_memory_mb,
        calibration, noise)``: all of :meth:`predict` that depends on the
        host (and task *type*) alone, computed once per repository
        version.  Calibration and noise are ``1.0`` when the model does
        not apply them — multiplying by it changes no bit."""
        name = host.name
        load = 0.0 if self.ignore_load else max(0.0, host.load)
        return (
            name,
            1.0 + load,
            host.spec.speed,
            host.available_memory_mb,
            task_perf.host_calibration(task_type, name)
            if self.use_calibration else 1.0,
            self._noise_factor(task_type, name) if self.noise > 0.0 else 1.0,
        )

    # -- internals ---------------------------------------------------------------

    def _noise_factor(self, task_type: str, host_name: str) -> float:
        """Deterministic multiplicative noise in [1-noise, 1+noise]."""
        import numpy as np

        key = f"{self.noise_seed}:{task_type}:{host_name}".encode("utf-8")
        rng = np.random.default_rng(zlib.crc32(key))
        return 1.0 + self.noise * float(rng.uniform(-1.0, 1.0))
