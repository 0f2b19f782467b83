"""Causal observability: span trees, latency attribution, profiles.

``repro.obs`` builds on the flat trace stream (:mod:`repro.trace`) to
answer *why* an application was slow, not just *what* happened:

* :mod:`repro.obs.spans` — the :class:`~repro.obs.spans.SpanRecorder`:
  tree-structured spans (span_id / parent_id / app / kind) opened and
  closed on the virtual clock and emitted as paired trace events, with
  context propagation through the ControlPlane so one application's
  lifecycle forms a single tree across Group Manager → Site Manager →
  host.
* :mod:`repro.obs.attribution` — reconstructs the span forest from a
  trace, computes the span-level critical path, and produces a
  deterministic per-app / per-task wait-state breakdown (queue,
  scheduling, staging, execution, retry, speculation) with a
  canonical-JSON report hash.
* :mod:`repro.obs.profile` — span self-time rollup exported as
  speedscope-compatible folded stacks.

Everything defaults off: :data:`~repro.obs.spans.NULL_SPANS` is the
disabled recorder, and enabling spans never changes scheduling,
timing, or RNG draws — only the event stream.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "attribution": (
        "build_forest", "explain", "report_hash", "report_to_json",
        "span_integrity",
    ),
    "profile": ("folded_stacks", "format_folded"),
    "spans": (
        "NULL_SPAN", "NULL_SPANS", "NullSpanRecorder", "SpanContext",
        "SpanKind", "SpanRecorder",
    ),
})

__all__ = [
    "NULL_SPAN",
    "NULL_SPANS",
    "NullSpanRecorder",
    "SpanContext",
    "SpanKind",
    "SpanRecorder",
    "build_forest",
    "explain",
    "folded_stacks",
    "format_folded",
    "report_hash",
    "report_to_json",
    "span_integrity",
]
