"""Schema versioning: loud failures instead of silent misreads.

Trace JSONL files carry a ``trace_header`` line and metrics snapshots a
``schema_version`` key; both are validated on load, neither changes the
committed hashes (the header is excluded from ``trace_hash``, the key
is stripped before ``snapshot_hash``), and the bench harness refuses to
compare documents across schema generations.
"""

import json

import pytest

from benchmarks import harness
from repro.metrics.export import (
    METRICS_SCHEMA_VERSION,
    load_snapshot,
    registry_snapshot,
    save_snapshot,
    snapshot_hash,
)
from repro.metrics.registry import MetricsRegistry
from repro.trace.events import EventKind
from repro.trace.serialize import (
    TRACE_SCHEMA_VERSION,
    events_to_jsonl,
    parse_jsonl,
    trace_hash,
)
from repro.trace.tracer import Tracer


def _traced() -> Tracer:
    tracer = Tracer()
    tracer.emit(EventKind.TASK_START, source="host-0", task="t1")
    tracer.emit(EventKind.TASK_FINISH, source="host-0", task="t1")
    return tracer


class TestTraceHeader:
    def test_serialised_trace_leads_with_the_header(self):
        first_line = events_to_jsonl(_traced()).splitlines()[0]
        assert json.loads(first_line) == {
            "trace_header": {"schema_version": TRACE_SCHEMA_VERSION}
        }

    def test_round_trip_strips_the_header(self):
        tracer = _traced()
        events = parse_jsonl(events_to_jsonl(tracer))
        assert len(events) == 2
        assert [e.kind for e in events] == [
            EventKind.TASK_START, EventKind.TASK_FINISH
        ]
        assert trace_hash(events) == trace_hash(tracer)

    def test_header_does_not_change_the_trace_hash(self):
        # the hash walks events only; the header is transport framing
        tracer = _traced()
        headerless = "".join(
            line + "\n"
            for line in events_to_jsonl(tracer).splitlines()[1:]
        )
        assert parse_jsonl(headerless)  # legacy files still parse
        assert trace_hash(parse_jsonl(headerless)) == trace_hash(tracer)

    def test_unknown_version_fails_loudly(self):
        bad = json.dumps(
            {"trace_header": {"schema_version": TRACE_SCHEMA_VERSION + 1}}
        )
        with pytest.raises(ValueError, match="schema_version .* not supported"):
            parse_jsonl(bad + "\n")

    def test_missing_version_field_fails_loudly(self):
        with pytest.raises(ValueError, match="not supported"):
            parse_jsonl('{"trace_header": {}}\n')


class TestMetricsSchema:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(3)
        return registry, registry_snapshot(registry)

    def test_snapshot_is_stamped(self):
        _registry, snapshot = self._snapshot()
        assert snapshot["schema_version"] == METRICS_SCHEMA_VERSION

    def test_stamp_does_not_change_the_hash(self):
        _registry, snapshot = self._snapshot()
        unstamped = {
            k: v for k, v in snapshot.items() if k != "schema_version"
        }
        assert snapshot_hash(snapshot) == snapshot_hash(unstamped)

    def test_load_validates_version(self, tmp_path):
        registry, snapshot = self._snapshot()
        path = tmp_path / "metrics.json"
        save_snapshot(registry, str(path))
        assert load_snapshot(str(path)) == snapshot

        snapshot["schema_version"] = METRICS_SCHEMA_VERSION + 1
        path.write_text(json.dumps(snapshot))
        with pytest.raises(ValueError, match="schema_version"):
            load_snapshot(str(path))

    def test_legacy_snapshot_without_stamp_loads(self, tmp_path):
        _registry, snapshot = self._snapshot()
        del snapshot["schema_version"]
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(snapshot))
        assert load_snapshot(str(path))["counters"]


class TestBenchCompare:
    def test_cross_schema_comparison_is_refused(self):
        document = {"schema": harness.SCHEMA, "scenarios": {}}
        foreign = {"schema": harness.SCHEMA + 1, "scenarios": {}}
        problems = harness.compare(foreign, document)
        assert problems and "schema" in problems[0]
        problems = harness.compare(document, foreign)
        assert problems and "schema" in problems[0]

    @pytest.mark.parametrize("edit, problem", [
        (lambda scenarios: scenarios["end_to_end"].update(trace_hash="f" * 64),
         "end_to_end: trace hash changed"),
        (lambda scenarios: scenarios["end_to_end"].update(metrics_hash="f" * 64),
         "end_to_end: metrics snapshot hash changed"),
        (lambda scenarios: scenarios.pop("end_to_end"),
         "end_to_end: scenario missing from current run"),
        (lambda scenarios: scenarios["end_to_end"].pop("trace_hash"),
         "end_to_end: current document has no trace_hash"),
    ], ids=["trace_hash", "metrics_hash", "missing_scenario", "no_trace_hash"])
    def test_each_difference_is_one_named_problem(self, edit, problem):
        def document():
            return {"schema": harness.SCHEMA, "scenarios": {
                name: {"trace_hash": "a" * 64, "metrics_hash": "b" * 64}
                for name in harness.SCENARIO_ORDER}}

        assert harness.compare(document(), document()) == []
        current = document()
        edit(current["scenarios"])
        problems = harness.compare(document(), current)
        assert len(problems) == 1 and problems[0].startswith(problem)
