"""The metrics registry: labeled counters, gauges, histograms, series.

The paper's Resource Controller is built around continuous measurement
(Monitor daemons sampling load, Group Managers filtering significant
changes, ``Predict(task, R)`` consuming the telemetry).  This module
keeps queryable *aggregates* of it — the currency every performance
experiment reads.

Design rules, shared with :mod:`repro.trace.tracer`:

* **Folds over the trace.**  The deployment's one emitter
  (:meth:`MetricsRegistry.emitter`) hands every event of a folded kind
  to :meth:`fold`; only metrics with no event then are written directly.
* **Sim-clock timestamped.**  The registry is bound to a caller-supplied
  clock (the simulator binds its virtual clock via :meth:`bind_clock`),
  never the wall clock, so two same-seed runs produce byte-identical
  snapshots — the metrics counterpart of the trace-hash oracle.
* **Deterministic.**  Snapshots sort every metric family and label set;
  no iteration-order or wall-time dependence anywhere.
* **Nothing when disabled.**  :data:`NULL_METRICS` is the default
  everywhere; it listens to nothing, direct writers test ``enabled``.

Metric kinds:

=============  =========================================================
``counter``    monotonically increasing total (messages, events, bytes)
``gauge``      last-written value + the time it was written
``histogram``  fixed-bucket distribution (Prometheus ``le`` semantics:
               a value lands in the first bucket whose upper bound is
               **>= value**; values above the last edge land in +Inf)
``series``     append-only ``(time, value)`` pairs — the load /
               queue-depth time series the Monitor daemons produce
=============  =========================================================
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.metrics.folds import FOLDS
from repro.trace.tracer import RelayTracer, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "Series",
]

#: latency-flavoured default bucket edges (seconds); +Inf is implicit
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label set (sorted, stringified)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Common shape of one metric family (name + help + labeled children)."""

    kind: str = ""

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        self.registry = registry
        self.name = name
        self.help = help

    def label_sets(self) -> List[LabelKey]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class Counter(_Metric):
    """Monotonically increasing total, optionally per label set."""

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        super().__init__(registry, name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self._write(_label_key(labels), amount)

    def _write(self, key: LabelKey, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._values[key] = self._values.get(key, 0.0) + float(amount)

    def set_total(self, value: float, **labels: Any) -> None:
        """Overwrite the running total (export-time sync from an external
        monotonic source, e.g. :class:`~repro.runtime.stats.RuntimeStats`)."""
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def label_sets(self) -> List[LabelKey]:
        return sorted(self._values)


class Gauge(_Metric):
    """Last-written value per label set, with the sim time it was set."""

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        super().__init__(registry, name, help)
        self._values: Dict[LabelKey, Tuple[float, float]] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._write(_label_key(labels), value)

    def _write(self, key: LabelKey, value: float) -> None:
        self._values[key] = (self.registry.now, float(value))

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        _, current = self._values.get(key, (0.0, 0.0))
        self._values[key] = (self.registry.now, current + float(amount))

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), (0.0, 0.0))[1]

    def set_at(self, **labels: Any) -> float:
        """Sim time of the last write for this label set."""
        return self._values.get(_label_key(labels), (0.0, 0.0))[0]

    def label_sets(self) -> List[LabelKey]:
        return sorted(self._values)


class Histogram(_Metric):
    """Fixed-bucket distribution with Prometheus ``le`` semantics.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit +Inf bucket catches everything above the last edge.  A
    value exactly equal to an edge counts in that edge's bucket
    (``le`` = less-than-or-**equal**).
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(registry, name, help)
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(f"histogram {name!r} buckets must strictly increase")
        self.buckets = edges
        #: per label set: [per-finite-bucket counts..., +Inf count]
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self._write(_label_key(labels), value)

    def _write(self, key: LabelKey, value: float) -> None:
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            self._sums[key] = 0.0
        # bisect_left: first edge >= value, i.e. the smallest bucket
        # whose inclusive upper bound admits the value
        counts[bisect.bisect_left(self.buckets, float(value))] += 1
        self._sums[key] += float(value)

    def bucket_counts(self, **labels: Any) -> List[int]:
        """Non-cumulative per-bucket counts (finite edges then +Inf)."""
        key = _label_key(labels)
        return list(self._counts.get(key, [0] * (len(self.buckets) + 1)))

    def cumulative_counts(self, **labels: Any) -> List[int]:
        """Cumulative counts as the Prometheus exposition reports them."""
        total = 0
        out = []
        for n in self.bucket_counts(**labels):
            total += n
            out.append(total)
        return out

    def sum(self, **labels: Any) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def count(self, **labels: Any) -> int:
        return sum(self.bucket_counts(**labels))

    def label_sets(self) -> List[LabelKey]:
        return sorted(self._counts)


class Series(_Metric):
    """Append-only ``(time, value)`` pairs per label set.

    The substrate for per-host load and queue-depth timelines; the JSON
    snapshot carries the full series, the Prometheus exposition exports
    the latest value as a gauge.
    """

    kind = "series"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        super().__init__(registry, name, help)
        self._points: Dict[LabelKey, List[Tuple[float, float]]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self._write(_label_key(labels), value)

    def _write(self, key: LabelKey, value: float) -> None:
        self._points.setdefault(key, []).append(
            (self.registry.now, float(value))
        )

    def points(self, **labels: Any) -> List[Tuple[float, float]]:
        return list(self._points.get(_label_key(labels), ()))

    def last(self, **labels: Any) -> Optional[Tuple[float, float]]:
        pts = self._points.get(_label_key(labels))
        return pts[-1] if pts else None

    def label_sets(self) -> List[LabelKey]:
        return sorted(self._points)


class MetricsRegistry:
    """One deployment's metric families, keyed by name.

    Families are get-or-create: ``registry.counter("x")`` returns the
    same :class:`Counter` every time; asking for an existing name with a
    different kind is an error (one name, one kind — the Prometheus
    rule).
    """

    enabled: bool = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        self._metrics: Dict[str, _Metric] = {}

    # -- clock -------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the registry at a (new) time source."""
        self._clock = clock

    @property
    def now(self) -> float:
        return float(self._clock())

    # -- family accessors --------------------------------------------------

    def _family(self, cls, name: str, help: str, **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(self, name, help=help, **kwargs)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._family(Histogram, name, help, buckets=buckets)

    def series(self, name: str, help: str = "") -> Series:
        return self._family(Series, name, help)

    # -- folds over the trace ----------------------------------------------

    def fold(self, kind: str, source: str, data: Dict[str, Any]) -> None:
        """Apply the fold table to one event (see :mod:`repro.metrics.folds`):
        each family's key-level write, as ``inc`` / ``set`` / ``observe``."""
        for fold in FOLDS.get(kind, ()):
            if fold.when is None or fold.when(source, data):
                family = self._metrics.get(fold.name) or fold.register(self)
                family._write(fold.labels(source, data), fold.value(source, data))

    def emitter(self, tracer: Tracer) -> Tracer:
        """``tracer`` listened to by :meth:`fold`, or — for one that
        records nothing, such as ``NULL_TRACER`` — a relay that folds;
        only kinds with a fold are handed over."""
        if not tracer.records:
            tracer = RelayTracer()
        tracer.listen(self.fold, FOLDS)
        return tracer

    # -- access ------------------------------------------------------------

    def metrics(self) -> List[_Metric]:
        """Every registered family, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- snapshots (implemented in repro.metrics.export) -------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic plain-dict snapshot of every family."""
        from repro.metrics.export import registry_snapshot

        return registry_snapshot(self)

    def snapshot_json(self) -> str:
        from repro.metrics.export import snapshot_to_json

        return snapshot_to_json(self.snapshot())

    def snapshot_hash(self) -> str:
        from repro.metrics.export import snapshot_hash

        return snapshot_hash(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} families, t={self.now:.6g})"


class _NullMetric(Counter, Gauge, Histogram, Series):  # type: ignore[misc]
    """Accepts every metric-object operation and records nothing."""

    kind = "null"

    def __init__(self):  # noqa: D401 - deliberately skips parents
        self.name = ""
        self.help = ""
        self.buckets = DEFAULT_BUCKETS

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every family accessor returns a no-op."""

    enabled = False

    def __init__(self):
        super().__init__()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def counter(self, name: str, help: str = "") -> Counter:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> Gauge:
        return _NULL_METRIC

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return _NULL_METRIC

    def series(self, name: str, help: str = "") -> Series:
        return _NULL_METRIC

    def emitter(self, tracer: Tracer) -> Tracer:
        return tracer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullMetricsRegistry()"


#: shared disabled registry — safe because it holds no state
NULL_METRICS = NullMetricsRegistry()
