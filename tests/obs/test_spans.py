"""SpanRecorder unit tests: pairing, orphaning, the null object."""

import pytest

from repro.obs.attribution import span_integrity
from repro.obs.spans import (
    NULL_SPAN,
    NULL_SPANS,
    NullSpanRecorder,
    SpanKind,
    SpanRecorder,
)
from repro.trace.events import EventKind
from repro.trace.tracer import Tracer


def make_recorder():
    """A recorder on a tracer with a directly settable clock."""
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0])
    return clock, tracer, SpanRecorder(tracer)


def span_events(tracer):
    kinds = (EventKind.SPAN_OPEN, EventKind.SPAN_CLOSE, EventKind.SPAN_ORPHAN)
    return [e for e in tracer.events() if e.kind in kinds]


class TestPairing:
    def test_open_close_emits_paired_events(self):
        clock, tracer, spans = make_recorder()
        ctx = spans.open(SpanKind.SCHEDULE, "app-1", source="gm:site-0")
        clock[0] = 2.5
        spans.close(ctx, source="gm:site-0", status="ok")
        opened, closed = span_events(tracer)
        assert opened.kind == EventKind.SPAN_OPEN
        assert opened.data["span"] == SpanKind.SCHEDULE
        assert opened.data["span_id"] == ctx.span_id
        assert opened.data["application"] == "app-1"
        assert opened.data["parent_id"] is None
        assert closed.kind == EventKind.SPAN_CLOSE
        assert closed.data["span_id"] == ctx.span_id
        assert closed.data["status"] == "ok"
        assert closed.time == 2.5

    def test_parent_linkage(self):
        _clock, tracer, spans = make_recorder()
        parent = spans.open(SpanKind.APP, "a")
        child = spans.open(SpanKind.TASK, "a", parent=parent)
        events = span_events(tracer)
        assert events[1].data["parent_id"] == parent.span_id
        assert child.span_id != parent.span_id

    def test_a_child_of_the_null_span_is_the_null_span(self):
        # the one "off": no id taken, nothing emitted, and the ids a
        # real recorder hands out afterwards are unshifted
        _clock, tracer, spans = make_recorder()
        first = spans.open(SpanKind.APP, "a")
        child = spans.open(SpanKind.TASK, "a", parent=NULL_SPAN, task="t")
        assert child is NULL_SPAN
        spans.close(child, status="failed")
        spans.orphan(child, reason="crash")
        assert len(span_events(tracer)) == 1
        assert spans.open_spans == {first.span_id: first}
        second = spans.open(SpanKind.TASK, "a", parent=first)
        assert (first.span_id, second.span_id) == (1, 2)
        # None still means "no parent": a root
        assert span_events(tracer)[-1].data["parent_id"] == first.span_id
        spans.open(SpanKind.FAILOVER, "", parent=None)
        assert span_events(tracer)[-1].data["parent_id"] is None

    def test_close_is_idempotent(self):
        _clock, tracer, spans = make_recorder()
        ctx = spans.open(SpanKind.RPC, "a")
        spans.close(ctx)
        spans.close(ctx)  # late duplicate: silent no-op
        assert len(span_events(tracer)) == 2
        assert span_integrity(tracer.events()) == []

    def test_close_after_orphan_is_a_noop(self):
        _clock, tracer, spans = make_recorder()
        ctx = spans.open(SpanKind.EXECUTE, "a")
        spans.orphan(ctx, reason="crash")
        spans.close(ctx)
        events = span_events(tracer)
        assert [e.kind for e in events] == [
            EventKind.SPAN_OPEN, EventKind.SPAN_ORPHAN
        ]
        assert events[1].data["reason"] == "crash"
        assert span_integrity(tracer.events()) == []

    def test_span_ids_are_deterministic(self):
        _c1, _t1, a = make_recorder()
        _c2, _t2, b = make_recorder()
        ids_a = [a.open(SpanKind.TASK, "x").span_id for _ in range(3)]
        ids_b = [b.open(SpanKind.TASK, "x").span_id for _ in range(3)]
        assert ids_a == ids_b == [1, 2, 3]


class TestRoots:
    def test_root_is_created_lazily_and_shared(self):
        _clock, tracer, spans = make_recorder()
        first = spans.root_of("app-1", source="dsm")
        second = spans.root_of("app-1")
        assert first is second
        assert len(span_events(tracer)) == 1

    def test_close_root_is_idempotent(self):
        _clock, tracer, spans = make_recorder()
        spans.root_of("app-1")
        spans.close_root("app-1", status="ok")
        spans.close_root("app-1")
        assert len(span_events(tracer)) == 2
        assert span_integrity(tracer.events()) == []

    def test_abandon_app_orphans_only_that_app(self):
        _clock, tracer, spans = make_recorder()
        root = spans.root_of("dead")
        spans.open(SpanKind.TASK, "dead", parent=root)
        alive = spans.open(SpanKind.TASK, "alive")
        spans.abandon_app("dead", reason="ManagerUnavailable")
        orphans = [
            e for e in span_events(tracer) if e.kind == EventKind.SPAN_ORPHAN
        ]
        assert len(orphans) == 2
        assert all(e.data["application"] == "dead" for e in orphans)
        assert alive.span_id in spans.open_spans
        # a restart of the same application gets a *fresh* root window
        assert spans.root_of("dead").span_id != root.span_id

    def test_orphan_all_clears_everything(self):
        _clock, tracer, spans = make_recorder()
        spans.root_of("a")
        spans.open(SpanKind.TASK, "b")
        spans.orphan_all(reason="campaign_end")
        assert spans.open_spans == {}
        assert span_integrity(tracer.events()) == []


class TestAmbientContext:
    def test_push_pop_current(self):
        _clock, _tracer, spans = make_recorder()
        assert spans.current is None
        outer = spans.open(SpanKind.RPC, "a")
        spans.push(outer)
        inner = spans.open(SpanKind.RPC_ATTEMPT, "a", parent=outer)
        spans.push(inner)
        assert spans.current is inner
        spans.pop()
        assert spans.current is outer
        spans.pop()
        assert spans.current is None


    def test_within_holds_the_context_only_while_the_handler_runs(self):
        _clock, _tracer, spans = make_recorder()
        ctx = spans.open(SpanKind.RPC_ATTEMPT, "a")
        seen = []

        def handler():
            seen.append(spans.current)
            got = yield "first"
            seen.append((spans.current, got))
            return "value"

        driver = spans.within(ctx, handler)
        assert next(driver) == "first"
        assert spans.current is None  # suspended: others must not inherit
        with pytest.raises(StopIteration) as stop:
            driver.send("resumed")
        assert stop.value.value == "value"
        assert seen == [ctx, (ctx, "resumed")]
        assert spans.current is None

    def test_within_returns_a_plain_value_without_yielding(self):
        for recorder in (make_recorder()[2], NULL_SPANS):
            with pytest.raises(StopIteration) as stop:  # it never yields
                next(recorder.within(NULL_SPAN, lambda: 42))
            assert stop.value.value == 42


class TestNullRecorder:
    def test_disabled_recorder_is_inert(self):
        assert not NULL_SPANS.enabled
        ctx = NULL_SPANS.open(SpanKind.TASK, "a")
        assert ctx is NULL_SPAN
        assert NULL_SPANS.root_of("a") is NULL_SPAN
        NULL_SPANS.close(ctx)
        NULL_SPANS.orphan(ctx, reason="x")
        NULL_SPANS.close_root("a")
        NULL_SPANS.abandon_app("a", reason="x")
        NULL_SPANS.orphan_all(reason="x")
        NULL_SPANS.push(ctx)
        NULL_SPANS.pop()
        assert NULL_SPANS.current is None
        assert NULL_SPANS.open_spans == {}

    def test_null_recorder_is_a_span_recorder(self):
        # call sites type against SpanRecorder; the null object must
        # substitute everywhere
        assert isinstance(NullSpanRecorder(), SpanRecorder)
