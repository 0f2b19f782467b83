"""Outside-in per-layer wall-clock accounting for the layer pass.

Nothing in ``src/`` is edited: :func:`installed` rebinds the public entry
points of each layer to timing wrappers for the duration of one traced
run and restores them afterwards.  A *site* is one accounting bucket,
named after the module it bills (``sim.kernel``, ``runtime.execution``,
``scheduler.host_selection`` ...); ``bench`` is the benchmark's own
root, so its self time is the time billed to no layer.

Two levels of detail share one span stack:

* coarse calls (phases, ``select_hosts``, ``schedule_with_trace``,
  ``run_campaign``, ``Simulator.run``, ``trace_hash``, ``snapshot_hash``,
  ``explain``) are kept as individual spans — name, site, start, end,
  parent — and written out when the run ends;
* the per-resume level (a million on ``bag_2k``: every kernel callback,
  every generator resume, every bid, prediction and trace event) is
  folded on the fly into ``calls`` / ``self_s`` / ``busy_s`` per site.

``self_s`` is a frame's duration minus the frames it encloses;
``busy_s`` is the duration of a site's outermost frames, i.e. including
what they call.  The wrappers' own cost lands mostly in the *enclosing*
frame's self time, so read shares at equal call counts and see
``layers.overhead_ratio`` for the total.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.afg.levels import compute_levels
from repro.metrics.registry import MetricsRegistry
from repro.net.rpc import ControlPlane
from repro.obs.attribution import explain, report_hash
from repro.scheduler.host_selection import (
    bid_for_task,
    candidate_hosts,
    select_hosts,
)
from repro.scheduler.prediction import PredictionModel
from repro.scheduler.site_scheduler import SiteScheduler
from repro.sim.chaos import run_campaign
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.trace.serialize import trace_hash
from repro.trace.tracer import Tracer

__all__ = ["Recorder", "installed", "stepping_shim", "ROOT_SITE"]

#: the benchmark's own frames; its self time is "billed to no layer"
ROOT_SITE = "bench"

#: kernel process-name prefix -> site billed for each resume
PROCESS_SITES = {
    "watch": "runtime.app_controller",
    "monitor": "runtime.monitor",
    "echo": "runtime.group_manager",
    "task": "runtime.execution",
    "xfer": "runtime.execution",
    "specwatch": "runtime.execution",
    "spectimer": "runtime.execution",
    "drain": "runtime.execution",
    "app": "runtime.execution",
    "alloc": "runtime.execution",
    "chan": "runtime.execution",
    "submit": "runtime.vdce_runtime",
    "sched-xchg": "runtime.vdce_runtime",
    "load": "sim.workload",
    "failinj": "sim.failures",
    "flapinj": "sim.failures",
    "chaos": "sim.failures",
}


def _site_of_module(module: Optional[str]) -> str:
    """``repro.sim.network`` -> ``sim.network``; anything else -> bench."""
    if module and module.startswith("repro."):
        return module[len("repro."):]
    return ROOT_SITE


class Recorder:
    """Span stack with on-the-fly folding; see the module docstring."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.busy_s: Dict[str, float] = defaultdict(float)
        #: event counts that are not frame counts (bids, watches, ...)
        self.counts: Dict[str, int] = defaultdict(int)
        #: coarse spans: [name, site, start, end, parent index or -1]
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        stack: List[List[Any]] = []
        depth: Dict[str, int] = defaultdict(int)
        calls, self_s, busy_s = self.calls, self.self_s, self.busy_s

        # the two hot functions close over locals instead of reading
        # attributes: they run twice per kernel event on bag_2k
        def enter(site: str) -> None:
            depth[site] += 1
            stack.append([site, 0.0, perf_counter()])

        def leave() -> None:
            end = perf_counter()
            site, child_s, start = stack.pop()
            duration = end - start
            calls[site] += 1
            self_s[site] += duration - child_s
            remaining = depth[site] - 1
            depth[site] = remaining
            if not remaining:
                busy_s[site] += duration
            if stack:
                stack[-1][1] += duration

        self.enter = enter
        self.leave = leave

    @contextmanager
    def span(self, name: str, site: str) -> Iterator[None]:
        """One coarse call, kept as an individual span."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, site, perf_counter(), None, parent])
        self._open.append(index)
        self.enter(site)
        try:
            yield
        finally:
            self.leave()
            self._open.pop()
            self.spans[index][3] = perf_counter()

    def sites(self) -> Dict[str, Dict[str, float]]:
        return {
            site: {"calls": self.calls[site], "self_s": self.self_s[site],
                   "busy_s": self.busy_s[site]}
            for site in sorted(self.calls)
        }

    def spans_document(self) -> Dict[str, Any]:
        """The ``bench/out/<workload>.spans.json`` payload."""
        origin = self.spans[0][2] if self.spans else 0.0
        return {
            "clock": "host seconds since the first span opened",
            "spans": [
                {"id": i, "name": name, "site": site,
                 "start_s": start - origin, "end_s": end - origin,
                 "parent": parent}
                for i, (name, site, start, end, parent)
                in enumerate(self.spans)
            ],
            "folded": self.sites(),
            "counts": dict(sorted(self.counts.items())),
        }


def stepping_shim(gen, site: str, enter: Callable[[str], None],
                  leave: Callable[[], None]):
    """Drive ``gen`` one resume at a time, billing each resume to ``site``.

    Forwards ``send`` values, thrown exceptions (an ``Interrupt`` thrown
    into the shim reaches ``gen`` at its current yield) and the return
    value unchanged, so the kernel cannot tell the shim from ``gen``.
    """
    send_value = None
    thrown: Optional[BaseException] = None
    while True:
        enter(site)
        try:
            if thrown is None:
                item = gen.send(send_value)
            else:
                try:
                    item = gen.throw(thrown)
                finally:
                    thrown = None
        except StopIteration as stop:
            return stop.value
        finally:
            leave()
        try:
            send_value = yield item
        except BaseException as exc:  # forwarded into ``gen``, never kept
            thrown = exc


def _bindings(target: Any) -> List[Tuple[Any, str]]:
    """Every ``repro``/``bench`` module-level name currently bound to
    ``target``: a function is patched where it is looked up, not only
    where it is defined."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name.split(".")[0] in ("repro", "bench")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                found.append((module, attr))
    return found


@contextmanager
def installed(rec: Recorder) -> Iterator[None]:
    """Install the wrappers, run the body, restore every binding."""
    enter, leave, span, counts = rec.enter, rec.leave, rec.span, rec.counts
    #: (wrapper, original) for module-level functions
    functions: List[Tuple[Callable, Callable]] = []
    #: (class, attribute, original) for methods
    methods: List[Tuple[type, str, Callable]] = []

    def wrap_function(original: Callable, make: Callable[[Callable], Callable]):
        wrapper = make(original)
        functions.append((wrapper, original))
        for module, attr in _bindings(original):
            setattr(module, attr, wrapper)

    def wrap_method(cls: type, attr: str, make: Callable[[Callable], Callable]):
        original = cls.__dict__[attr]
        methods.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def folded(site: str, count: Optional[str] = None):
        def make(original):
            def wrapper(*args, **kwargs):
                if count is not None:
                    counts[count] += 1
                enter(site)
                try:
                    return original(*args, **kwargs)
                finally:
                    leave()
            return wrapper
        return make

    def coarse(name: str, site: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with span(name, site):
                    return original(*args, **kwargs)
            return wrapper
        return make

    # -- sim.kernel: every calendar callback, every process resume ---------
    callback_sites: Dict[Any, str] = {}

    def site_of_callback(callback: Callable) -> str:
        owner = getattr(callback, "__self__", None)
        key = type(owner) if owner is not None else getattr(
            callback, "__code__", None)
        site = callback_sites.get(key)
        if site is None:
            module = (type(owner).__module__ if owner is not None
                      else getattr(callback, "__module__", None))
            site = _site_of_module(module)
            if key is not None:
                callback_sites[key] = site
        return site

    def make_call_at(original):
        def call_at(self, time, callback):
            site = site_of_callback(callback)
            if site == "sim.kernel":
                # timeouts and process starts: leaving them unwrapped
                # bills them to the enclosing Simulator.run frame, the
                # same site, at half the frames per event
                return original(self, time, callback)

            def billed():
                enter(site)
                try:
                    callback()
                finally:
                    leave()

            return original(self, time, billed)
        return call_at

    def make_process(original):
        def process(self, gen, name=""):
            # Process() would name an unnamed process after ``gen``
            name = name or getattr(gen, "__name__", "process")
            prefix = name.split(":", 1)[0]
            site = PROCESS_SITES.get(prefix)
            if site is None:
                frame = getattr(gen, "gi_frame", None)
                site = _site_of_module(
                    frame.f_globals.get("__name__") if frame else None)
            if prefix == "watch":
                counts["runtime.app_controller.watches"] += 1
            return original(
                self, stepping_shim(gen, site, enter, leave), name=name)
        return process

    wrap_method(Simulator, "call_at", make_call_at)
    wrap_method(Simulator, "process", make_process)
    wrap_method(Simulator, "run", coarse("Simulator.run", "sim.kernel"))

    # -- scheduler ----------------------------------------------------------
    wrap_method(SiteScheduler, "schedule_with_trace",
                coarse("schedule_with_trace", "scheduler.site_scheduler"))
    wrap_function(select_hosts,
                  coarse("select_hosts", "scheduler.host_selection"))
    wrap_function(bid_for_task, folded(
        "scheduler.host_selection", "scheduler.host_selection.bids"))

    def make_candidate_hosts(original):
        def wrapper(task, repo):
            found = original(task, repo)
            # one predict-cache lookup per candidate host scanned
            counts["repository.predict_cache.lookups"] += len(found)
            return found
        return wrapper

    wrap_function(candidate_hosts, make_candidate_hosts)
    wrap_method(PredictionModel, "predict", folded("scheduler.prediction"))
    wrap_function(compute_levels, folded("afg.levels"))

    # -- control plane and network ------------------------------------------
    def make_request(original):
        def request(self, *args, **kwargs):
            counts["net.rpc.requests"] += 1
            return stepping_shim(
                original(self, *args, **kwargs), "net.rpc", enter, leave)
        return request

    wrap_method(ControlPlane, "request", make_request)
    wrap_method(Network, "transfer", folded("sim.network"))

    # -- telemetry ------------------------------------------------------------
    wrap_method(Tracer, "emit", folded("trace.emit"))
    wrap_function(trace_hash, coarse("trace_hash", "trace.hash"))
    wrap_method(MetricsRegistry, "snapshot_hash",
                coarse("snapshot_hash", "metrics.snapshot_hash"))
    wrap_function(explain, coarse("explain", "obs.explain"))
    wrap_function(report_hash, coarse("report_hash", "obs.explain"))

    # -- chaos ----------------------------------------------------------------
    wrap_function(run_campaign, coarse("run_campaign", "sim.chaos"))

    try:
        yield
    finally:
        for cls, attr, original in methods:
            setattr(cls, attr, original)
        # scan again: a module imported while the wrappers were in place
        # bound the wrapper, not the original
        for wrapper, original in functions:
            for module, attr in _bindings(wrapper):
                setattr(module, attr, original)
