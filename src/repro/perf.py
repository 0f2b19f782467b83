"""Hot-path optimization flags (the perf flag matrix).

Every optimization that replaces a *reference* implementation with an
indexed/cached/batched one is gated by a flag here, all on by default.
The contract for a flag is strict: with the flag on or off, a run must
produce **byte-identical** ``trace_hash`` and metrics ``snapshot_hash``
— the determinism oracles from PRs 1-2 make "same behaviour, faster" a
testable property, and ``tests/perf/test_optimization_equivalence.py``
tests exactly that, per flag, across seeds.

Flags
-----

``host_index``
    :class:`~repro.repository.host_index.HostIndex` — per-site host
    tables keyed by task type, name-sorted once per repository change,
    replacing the linear scan + re-sort in
    :func:`~repro.scheduler.host_selection.candidate_hosts`.
``predict_cache``
    The prediction-row kernel.  ``Predict(task, R)`` is separable into
    a task half and a host half (see :mod:`repro.scheduler.prediction`);
    :class:`~repro.repository.predict_cache.PredictCache` keeps the
    host half as one row per candidate host, re-keyed by the host
    index's version triple plus ``task_perf.version``, and
    :func:`~repro.scheduler.host_selection.bid_for_task` evaluates a
    bid over the rows with ``PredictionModel.predict``'s float
    operations in ``predict``'s order — bit-identical, and
    ``predict`` itself (the flag-off reference) is never called.
``commit_ledger``
    :class:`~repro.scheduler.host_selection.CommitmentLedger` — O(|related|)
    in-round extra-load queries plus a heap-backed ready queue,
    replacing the O(total commitments) rescan per (task, host) pair and
    the O(n) ``max`` over the ready set.
``batched_bookkeeping``
    Monitor/echo bookkeeping batched into per-tick aggregates: echo
    rounds increment stats/counters once per group tick instead of once
    per host, and monitor daemons write through pre-resolved instrument
    handles (:meth:`~repro.metrics.registry.Counter.child`) instead of
    re-resolving metric families and label sets every period.

Use :func:`use_flags` to flip flags for a scope (the equivalence tests
and the bench harness reference pass), or :func:`set_flags` for a
process-wide change.  ``REPRO_PERF=off`` in the environment starts the
process with everything disabled (the reference configuration).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterator

__all__ = ["PerfFlags", "FLAGS", "flag_names", "set_flags", "use_flags"]


@dataclass(frozen=True)
class PerfFlags:
    """The perf flag matrix; all optimizations on by default."""

    host_index: bool = True
    predict_cache: bool = True
    commit_ledger: bool = True
    batched_bookkeeping: bool = True

    @classmethod
    def all_off(cls) -> "PerfFlags":
        """The reference configuration (pre-optimization code paths)."""
        return cls(**{f.name: False for f in fields(cls)})

    def as_dict(self) -> Dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def flag_names() -> list:
    """The flag matrix, in declaration order."""
    return [f.name for f in fields(PerfFlags)]


def _initial() -> PerfFlags:
    if os.environ.get("REPRO_PERF", "").lower() in ("off", "0", "reference"):
        return PerfFlags.all_off()
    return PerfFlags()


#: the live flag set, read by the hot paths at call time
FLAGS: PerfFlags = _initial()


def set_flags(new_flags: PerfFlags) -> PerfFlags:
    """Replace the process-wide flag set; returns the previous one."""
    global FLAGS
    previous = FLAGS
    FLAGS = new_flags
    return previous


@contextmanager
def use_flags(**overrides: bool) -> Iterator[PerfFlags]:
    """Temporarily override flags; restores the previous set on exit.

    ``use_flags(predict_cache=False)`` flips one flag;
    ``use_flags(**PerfFlags.all_off().as_dict())`` selects the full
    reference configuration.
    """
    previous = set_flags(replace(FLAGS, **overrides))
    try:
        yield FLAGS
    finally:
        set_flags(previous)
