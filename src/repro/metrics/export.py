"""Metric exporters: canonical JSON snapshots + Prometheus text format.

Two views of one :class:`~repro.metrics.registry.MetricsRegistry`:

* the **JSON snapshot** — complete (including full time series), sorted
  at every level, canonically serialised; :func:`snapshot_hash` over it
  is the metrics-side counterpart of the trace-hash oracle, and the
  determinism suite asserts byte-identity across same-seed runs;
* the **Prometheus exposition** (text format 0.0.4) — counters, gauges
  and cumulative-bucket histograms, with label values escaped per the
  spec; series export their latest value as a gauge.  The output is
  what the Flask editor's ``/metrics`` route serves.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Dict, Iterable, List, Tuple, Union

from repro.hashing import canonical_json
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "prometheus_from_snapshot",
    "prometheus_text",
    "registry_snapshot",
    "snapshot_hash",
    "snapshot_to_json",
    "load_snapshot",
    "save_snapshot",
]

#: version of the snapshot-file layout.  Carried in the file and
#: checked by :func:`load_snapshot`; deliberately *excluded* from
#: :func:`snapshot_hash` so stamping it never invalidated committed
#: behaviour hashes.
METRICS_SCHEMA_VERSION = 1

LabelKey = Tuple[Tuple[str, str], ...]


def _labels_id(key: LabelKey) -> str:
    """Snapshot dict key for one label set: ``"host=a,site=b"`` (sorted);
    ``\\`` and ``,`` in a value (user input) are ``\\``-escaped."""
    return ",".join(
        f"{k}=" + v.replace("\\", "\\\\").replace(",", "\\,")
        for k, v in key
    )


def _parse_labels_id(labels_id: str) -> List[Tuple[str, str]]:
    return [tuple(re.sub(r"\\(.)", r"\1", part).split("=", 1))
            for part in re.findall(r"(?:\\.|[^\\,])+", labels_id)]


# -- JSON snapshot ----------------------------------------------------------


def registry_snapshot(registry: MetricsRegistry) -> Dict[str, Any]:
    """Plain-dict snapshot: every family, every label set, sorted."""
    snap: Dict[str, Any] = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "counters": {},
        "gauges": {},
        "histograms": {},
        "series": {},
    }
    for metric in registry.metrics():
        if isinstance(metric, Counter):
            snap["counters"][metric.name] = {
                "help": metric.help,
                "values": {
                    _labels_id(key): metric._values[key]
                    for key in metric.label_sets()
                },
            }
        elif isinstance(metric, Gauge):
            snap["gauges"][metric.name] = {
                "help": metric.help,
                "values": {
                    _labels_id(key): list(metric._values[key])
                    for key in metric.label_sets()
                },
            }
        elif isinstance(metric, Histogram):
            snap["histograms"][metric.name] = {
                "help": metric.help,
                "buckets": list(metric.buckets),
                "values": {
                    _labels_id(key): {
                        "counts": metric._counts[key],
                        "sum": metric._sums[key],
                        "count": sum(metric._counts[key]),
                    }
                    for key in metric.label_sets()
                },
            }
        elif isinstance(metric, Series):
            snap["series"][metric.name] = {
                "help": metric.help,
                "values": {
                    _labels_id(key): [list(p) for p in metric._points[key]]
                    for key in metric.label_sets()
                },
            }
    return snap


def snapshot_to_json(snapshot: Dict[str, Any]) -> str:
    """Canonical serialisation (sorted keys, minimal separators)."""
    return canonical_json(snapshot) + "\n"


def snapshot_hash(snapshot: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON — the snapshot's stable identity.

    The ``schema_version`` stamp describes the *file layout*, not the
    run's behaviour, so it is dropped before hashing.
    """
    hashed = {k: v for k, v in snapshot.items() if k != "schema_version"}
    return hashlib.sha256(snapshot_to_json(hashed).encode("utf-8")).hexdigest()


def save_snapshot(
    source: Union[MetricsRegistry, Dict[str, Any]], path: str
) -> str:
    """Write a registry's (or pre-taken snapshot's) canonical JSON."""
    snapshot = (
        source.snapshot() if isinstance(source, MetricsRegistry) else source
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(snapshot_to_json(snapshot))
    return path


def load_snapshot(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    version = snapshot.get("schema_version", METRICS_SCHEMA_VERSION)
    if version != METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"metrics snapshot schema_version {version!r} is not supported "
            f"(this build reads version {METRICS_SCHEMA_VERSION})"
        )
    for section in ("counters", "gauges", "histograms", "series"):
        snapshot.setdefault(section, {})
    return snapshot


# -- Prometheus text format -------------------------------------------------


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(pairs: Iterable[Tuple[str, str]]) -> str:
    rendered = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in pairs
    )
    return f"{{{rendered}}}" if rendered else ""


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    as_int = int(value)
    return str(as_int) if as_int == value else repr(value)


def _header(lines: List[str], name: str, help: str, kind: str) -> None:
    if help:
        lines.append(f"# HELP {name} {_escape_help(help)}")
    lines.append(f"# TYPE {name} {kind}")


def prometheus_from_snapshot(snapshot: Dict[str, Any]) -> str:
    """Render a JSON snapshot in the Prometheus text exposition format."""
    lines: List[str] = []

    for name in sorted(snapshot.get("counters", {})):
        family = snapshot["counters"][name]
        _header(lines, name, family.get("help", ""), "counter")
        for labels_id in sorted(family["values"]):
            labels = _render_labels(_parse_labels_id(labels_id))
            lines.append(f"{name}{labels} {_fmt(family['values'][labels_id])}")

    for name in sorted(snapshot.get("gauges", {})):
        family = snapshot["gauges"][name]
        _header(lines, name, family.get("help", ""), "gauge")
        for labels_id in sorted(family["values"]):
            labels = _render_labels(_parse_labels_id(labels_id))
            _, value = family["values"][labels_id]
            lines.append(f"{name}{labels} {_fmt(value)}")

    for name in sorted(snapshot.get("histograms", {})):
        family = snapshot["histograms"][name]
        _header(lines, name, family.get("help", ""), "histogram")
        edges = [_fmt(b) for b in family["buckets"]] + ["+Inf"]
        for labels_id in sorted(family["values"]):
            pairs = _parse_labels_id(labels_id)
            state = family["values"][labels_id]
            cumulative = 0
            for edge, count in zip(edges, state["counts"]):
                cumulative += count
                bucket_labels = _render_labels(pairs + [("le", edge)])
                lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
            labels = _render_labels(pairs)
            lines.append(f"{name}_sum{labels} {_fmt(state['sum'])}")
            lines.append(f"{name}_count{labels} {state['count']}")

    # series: latest value as a gauge (the full series lives in the JSON)
    for name in sorted(snapshot.get("series", {})):
        family = snapshot["series"][name]
        _header(lines, name, family.get("help", ""), "gauge")
        for labels_id in sorted(family["values"]):
            points = family["values"][labels_id]
            if not points:
                continue
            labels = _render_labels(_parse_labels_id(labels_id))
            lines.append(f"{name}{labels} {_fmt(points[-1][1])}")

    return "\n".join(lines) + ("\n" if lines else "")


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry's current state in the Prometheus text format."""
    return prometheus_from_snapshot(registry_snapshot(registry))
