"""Causal spans: tree-structured timing on top of the flat tracer.

A *span* is one timed operation in an application's lifecycle — the
admission wait, the distributed schedule, one RPC attempt, one task's
execute attempt.  Spans carry a ``span_id`` and a ``parent_id`` so the
whole lifecycle forms a tree rooted at the application's ``app`` span:

    app
    ├── admission_wait
    ├── schedule
    │   └── bid_exchange (per remote site)
    │       └── rpc → rpc_attempt → retry_backoff
    ├── allocation
    │   ├── rpc → rpc_attempt            (remote table portions)
    │   └── sm_fanout                    (SM → GM → AC, per site)
    ├── channel_setup
    │   └── rpc → rpc_attempt            (per edge)
    └── task (per AFG task)
        ├── input_wait / stage_in
        ├── execute (per attempt)
        │   └── speculate_backup         (sibling race copy)
        ├── reschedule
        └── stage_out (per out-edge)

Spans are emitted as paired trace events (``span_open`` /
``span_close``) through the ordinary :class:`~repro.trace.tracer.Tracer`
— they share its clock, sequence numbers and JSONL persistence, and the
attribution engine (:mod:`repro.obs.attribution`) rebuilds the tree
from a saved trace alone.  A span that can no longer close (its owner
crashed, or the campaign ended) is *orphan-marked* with a
``span_orphan`` event; the chaos invariant I9 checks that every opened
span is closed exactly once or explicitly orphaned.

The recorder is pure bookkeeping on the virtual clock: it draws no
random numbers and never yields, so enabling it cannot perturb
scheduling decisions or timing — only the event stream grows.

Spans are switched off in one way only: :data:`NULL_SPAN`.  The
:data:`NULL_SPANS` singleton is the disabled recorder (the default
everywhere) and hands out nothing else, and on *any* recorder a child
of :data:`NULL_SPAN` is :data:`NULL_SPAN` — no id taken, no event —
while closing or orphaning it is a no-op.  So a call site opens and
closes its spans unconditionally; none asks whether spans are on.
An owner on a per-task path keeps the calls it makes (:meth:`hooks`,
:meth:`bind`); the null recorder hands out module-level no-ops, so with
spans off no recorder method runs per task.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Any, Dict, List, NamedTuple, Optional

from repro.trace.events import EventKind
from repro.trace.tracer import Tracer

__all__ = [
    "NULL_SPAN",
    "NULL_SPANS",
    "NullSpanRecorder",
    "SpanContext",
    "SpanKind",
    "SpanRecorder",
]


class SpanKind:
    """Namespace of well-known span kinds (plain strings)."""

    #: application root: submit → result collected
    APP = "app"
    #: queued at the admission queue, waiting for a slot
    ADMISSION_WAIT = "admission_wait"
    #: distributed scheduling (Fig. 2 steps 2-5 + placement)
    SCHEDULE = "schedule"
    #: one AFG-multicast / bid-reply exchange with a remote site
    BID_EXCHANGE = "bid_exchange"
    #: allocation-table distribution to every involved site
    ALLOCATION = "allocation"
    #: Site Manager → Group Managers → App Controllers fanout at one site
    SM_FANOUT = "sm_fanout"
    #: per-edge channel setup + acks
    CHANNEL_SETUP = "channel_setup"
    #: one AFG task, input wait → execution → output handoff
    TASK = "task"
    #: waiting on upstream dataflow edges
    INPUT_WAIT = "input_wait"
    #: staging explicit file inputs onto the assigned host
    STAGE_IN = "stage_in"
    #: one execution attempt on the assigned host(s)
    EXECUTE = "execute"
    #: pushing one produced value down its channel
    STAGE_OUT = "stage_out"
    #: post-execution refinement + result assembly
    COLLECT = "collect"
    #: one ControlPlane request (all attempts)
    RPC = "rpc"
    #: one attempt of a ControlPlane request
    RPC_ATTEMPT = "rpc_attempt"
    #: backoff pause between failed attempts (RPC or data retries)
    RETRY_BACKOFF = "retry_backoff"
    #: replacement placement + input re-staging after a failure
    RESCHEDULE = "reschedule"
    #: speculative backup copy racing the primary (sibling of execute)
    SPECULATE_BACKUP = "speculate_backup"
    #: restoring completed tasks from a checkpoint on resume
    RESUME = "resume"
    #: Group Manager deputy election window (crash → restart)
    FAILOVER = "failover"
    #: data-integrity repair episode: refetches + lineage regeneration
    #: from corruption/loss detection until resolution (DESIGN §16)
    REPAIR = "repair"
    #: replacement placement after a graceful drain / membership change
    #: evicted or invalidated the original assignment (DESIGN §17)
    DRAIN = "drain"


class SpanContext(NamedTuple):
    """An open span's identity, passed to children and to ``close``."""

    span_id: int
    kind: str
    app: str


#: the disabled context (what :data:`NULL_SPANS` hands out)
NULL_SPAN = SpanContext(-1, "", "")


class SpanRecorder:
    """Opens/closes causal spans as paired trace events.

    Span ids are a per-recorder counter, so they are deterministic for
    a deterministic simulation.  ``_open`` tracks live spans for the
    orphan-marking path; ``close`` on an id that was already closed or
    orphaned is a silent no-op (a late stage-out closing after its
    application was abandoned must not double-close).
    """

    enabled: bool = True

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._ids = itertools.count(1)
        #: live spans: span_id -> context
        self._open: Dict[int, SpanContext] = {}
        #: lazily-created application roots: app -> context
        self._roots: Dict[str, SpanContext] = {}
        #: ambient context stack (RPC handler-side propagation)
        self._stack: List[SpanContext] = []

    # -- core --------------------------------------------------------------

    def open(
        self,
        kind: str,
        app: str,
        parent: Optional[SpanContext] = None,
        source: str = "",
        **attrs: Any,
    ) -> SpanContext:
        """Open one span; returns the context to close it with.

        ``parent=None`` opens a root; a child of :data:`NULL_SPAN` is
        :data:`NULL_SPAN` (nothing recorded, no id taken).
        """
        if parent is NULL_SPAN:
            return NULL_SPAN
        span_id = next(self._ids)
        parent_id = parent.span_id if parent is not None else None
        ctx = SpanContext(span_id, kind, app)
        self._open[span_id] = ctx
        self.tracer.emit(
            EventKind.SPAN_OPEN, source=source, span=kind, span_id=span_id,
            parent_id=parent_id, application=app, **attrs,
        )
        return ctx

    def close(
        self,
        ctx: SpanContext,
        source: str = "",
        status: str = "ok",
        **attrs: Any,
    ) -> None:
        """Close an open span; no-op if already closed or orphaned."""
        if ctx.span_id not in self._open:
            return
        del self._open[ctx.span_id]
        self.tracer.emit(
            EventKind.SPAN_CLOSE, source=source, span=ctx.kind,
            span_id=ctx.span_id, application=ctx.app, status=status, **attrs,
        )

    def orphan(self, ctx: SpanContext, reason: str, source: str = "") -> None:
        """Explicitly mark a span that can no longer close (crash)."""
        if ctx.span_id not in self._open:
            return
        del self._open[ctx.span_id]
        self.tracer.emit(
            EventKind.SPAN_ORPHAN, source=source, span=ctx.kind,
            span_id=ctx.span_id, application=ctx.app, reason=reason,
        )

    # -- application roots -------------------------------------------------

    def root_of(self, app: str, source: str = "") -> SpanContext:
        """The application's root span, created lazily on first use.

        Every entry point (admission queue, ``submit``, the chaos
        harness, resume) shares root management through this method, so
        whichever runs first owns creation and the rest parent to it.
        """
        ctx = self._roots.get(app)
        if ctx is None:
            ctx = self.open(SpanKind.APP, app, source=source)
            self._roots[app] = ctx
        return ctx

    def close_root(self, app: str, source: str = "", status: str = "ok",
                   **attrs: Any) -> None:
        """Close the application's root span (idempotent)."""
        ctx = self._roots.pop(app, None)
        if ctx is not None:
            self.close(ctx, source=source, status=status, **attrs)

    def abandon_app(self, app: str, reason: str, source: str = "") -> None:
        """Orphan-mark every live span of one application (crash path).

        A checkpoint-restart of the same application afterwards gets a
        fresh root from :meth:`root_of`; the attribution engine treats
        the two roots as separate windows of the same application.
        """
        self._roots.pop(app, None)
        for span_id in sorted(
            (i for i, c in self._open.items() if c.app == app), reverse=True
        ):
            self.orphan(self._open[span_id], reason, source=source)

    def orphan_all(self, reason: str, source: str = "") -> None:
        """Orphan-mark every live span (end of a chaos campaign)."""
        self._roots.clear()
        for span_id in sorted(self._open, reverse=True):
            self.orphan(self._open[span_id], reason, source=source)

    # -- what a per-task owner keeps -----------------------------------------

    def hooks(self):
        """``(open, close, run)``: ``run(ctx, handler)`` gives the handler's
        value or a generator to ``yield from`` for it (:meth:`within`)."""
        return self.open, self.close, self.within

    def bind(self, app: str, source: str):
        """``(opener, closer)`` of one application's spans from one source:
        ``opener(kind, parent, **attrs)`` and ``closer(ctx, **attrs)``."""
        open_, close = self.open, self.close
        return (
            lambda kind, parent, **attrs: open_(
                kind, app, parent, source, **attrs),
            lambda ctx, **attrs: close(ctx, source, **attrs),
        )

    # -- ambient context (RPC handler-side propagation) --------------------

    def push(self, ctx: SpanContext) -> None:
        self._stack.append(ctx)

    def pop(self) -> None:
        self._stack.pop()

    @property
    def current(self) -> Optional[SpanContext]:
        """The innermost ambient context, or None outside any."""
        return self._stack[-1] if self._stack else None

    def within(self, ctx: SpanContext, handler):
        """Generator: ``handler()`` with ``ctx`` ambient; returns its value.

        A handler that returns a generator (server-side work that takes
        simulated time) is driven here.  The ambient stack must only
        hold ``ctx`` during the handler's *synchronous* segments: while
        it is suspended at a yield, other simulated processes run and
        must not inherit its context.  So instead of ``yield from`` the
        generator is advanced step by step, pushing before and popping
        after every resume.
        """
        self.push(ctx)
        try:
            gen = handler()
        finally:
            self.pop()
        if not inspect.isgenerator(gen):
            return gen
        send_value = None
        thrown = None
        while True:
            self.push(ctx)
            try:
                if thrown is not None:
                    exc, thrown = thrown, None
                    item = gen.throw(exc)
                else:
                    item = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
            finally:
                self.pop()
            try:
                send_value = yield item
            except BaseException as exc:  # forwarded into the handler
                thrown = exc

    # -- introspection -----------------------------------------------------

    @property
    def open_spans(self) -> Dict[int, SpanContext]:
        return dict(self._open)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanRecorder({len(self._open)} open)"


class NullSpanRecorder(SpanRecorder):
    """The disabled recorder: it opens nothing, so every span is NULL.

    Everything else is inherited — closing, orphaning or abandoning does
    nothing on a recorder that never opened a span.
    """

    enabled = False

    def __init__(self):
        super().__init__(tracer=None)  # type: ignore[arg-type]

    def open(self, kind, app, parent=None, source="", **attrs):
        return NULL_SPAN

    def root_of(self, app, source=""):
        return NULL_SPAN

    def hooks(self):
        return _null, _null, _run

    def bind(self, app, source):
        return _null, _null

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullSpanRecorder()"


def _null(*_args: Any, **_attrs: Any) -> SpanContext:
    """The null recorder's open and close: nothing is recorded."""
    return NULL_SPAN


def _run(_ctx: SpanContext, handler):
    return handler()


#: shared disabled recorder — safe because it never holds a span
NULL_SPANS = NullSpanRecorder()
