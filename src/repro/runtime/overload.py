"""Backpressure and brownout: graceful degradation under federation load.

The paper promises QoS management over shared resources (§1), but its
prototype control plane had no notion of *too much work*: every AFG
multicast got a bid, every submission got a slot eventually.  This
module adds the missing degradation ladder, modelled on how the grid
systems that followed VDCE (and every modern admission-controlled
service) survive arrival storms:

* Group Managers fold their echo round's per-host run-queue lengths
  into a per-group **occupancy** signal (load relative to the
  saturation threshold) that rides the existing echo bookkeeping — zero
  extra messages, zero RNG draws.
* Site Managers aggregate group occupancy and **exclude themselves
  from bidding** once saturated (:class:`SiteOverloaded`), so remote
  schedulers stop routing new work at a sick site instead of timing
  out against it.
* The federation-wide :class:`BrownoutController` maps mean occupancy
  onto a **brownout level** that progressively sheds optional work
  before refusing any:

  ========  ==========================  =================================
  level     trigger (mean occupancy)    effect
  ========  ==========================  =================================
  0 normal  below ``_BROWNOUT_DEGRADED`` none
  1 degraded ``>= _BROWNOUT_DEGRADED``  speculation disabled
  2 severe  ``>= _BROWNOUT_SEVERE``     + admission concurrency shrunk
  3 critical ``>= _BROWNOUT_CRITICAL``  + new submissions refused
  ========  ==========================  =================================

Everything here is pure bookkeeping on the virtual clock — no RNG, no
yields — and is built only when ``RuntimeConfig.overload`` is on.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.net.rpc import RpcError
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["BrownoutController", "NULL_BROWNOUT", "SiteOverloaded"]

#: mean federation occupancy entering brownout level 1 (degraded)
_BROWNOUT_DEGRADED = 0.7
#: level 2 (severe): admission concurrency shrinks
_BROWNOUT_SEVERE = 0.85
#: level 3 (critical): new submissions are refused
_BROWNOUT_CRITICAL = 0.95
#: multiplier applied to admission ``max_concurrent`` at level >= 2
_CONCURRENCY_SHRINK = 0.5
#: run-queue length at which one host counts as fully occupied
_SATURATION_LOAD = 4.0


class SiteOverloaded(RpcError):
    """A saturated site declined to bid (backpressure, not failure).

    Raised by :meth:`~repro.runtime.site_manager.SiteManager.
    handle_bid_request` when the site's occupancy crosses the
    bid-exclusion threshold; the scheduling exchange treats it like an
    unreachable site (placement proceeds with whoever answered).
    """

    def __init__(self, site: str, occupancy: float):
        super().__init__(
            f"site {site!r} is overloaded (occupancy {occupancy:.2f})"
        )
        self.site = site
        self.occupancy = occupancy


class BrownoutController:
    """Federation brownout level from per-group occupancy reports.

    Site Managers feed :meth:`update` from their Group Managers' echo
    rounds; the controller recomputes the mean occupancy and walks the
    level up or down, emitting one ``brownout`` trace event (and gauge
    update) per level change — never per report, so the signal stays
    cheap and the trace readable.
    """

    def __init__(self, sim, tracer: Tracer = NULL_TRACER):
        self.sim = sim
        self.tracer = tracer
        #: latest occupancy per (site, group)
        self._occupancy: Dict[Tuple[str, str], float] = {}
        self.level = 0
        #: (time, old_level, new_level) per transition
        self.shifts: List[Tuple[float, int, int]] = []

    # -- inputs ------------------------------------------------------------

    def observe_round(self, gm) -> None:
        """Fold a live Group Manager's echo round into its occupancy:
        the believed-up run-queue lengths over the saturation load.
        Rides the echo bookkeeping — no messages, no RNG draws."""
        if gm.alive:
            loads = [h.load_average() for h in gm.group
                     if gm._believed_up[h.name]]
            mean = sum(loads) / len(loads) if loads else 0.0
            gm.site_manager.receive_occupancy(gm.name, mean / _SATURATION_LOAD)

    def update(self, site: str, group: str, occupancy: float) -> None:
        self._occupancy[(site, group)] = float(occupancy)
        new_level = self._level_for(self.federation_occupancy())
        if new_level == self.level:
            return
        old, self.level = self.level, new_level
        self.shifts.append((self.sim.now, old, new_level))
        self.tracer.emit(
            EventKind.BROWNOUT, source="brownout",
            level=new_level, previous=old,
            occupancy=round(self.federation_occupancy(), 9),
        )

    # -- readouts ----------------------------------------------------------

    def federation_occupancy(self) -> float:
        if not self._occupancy:
            return 0.0
        return sum(self._occupancy.values()) / len(self._occupancy)

    def _level_for(self, occupancy: float) -> int:
        if occupancy >= _BROWNOUT_CRITICAL:
            return 3
        if occupancy >= _BROWNOUT_SEVERE:
            return 2
        if occupancy >= _BROWNOUT_DEGRADED:
            return 1
        return 0

    # -- the degradation ladder --------------------------------------------

    def speculation_allowed(self) -> bool:
        """Level >= 1: backup copies are optional work — shed them first."""
        return self.level < 1

    def concurrency_limit(self, base: int) -> int:
        """Level >= 2: shrink admission concurrency (never below 1)."""
        if self.level < 2:
            return base
        return max(1, int(base * _CONCURRENCY_SHRINK))

    def refuse_new_work(self) -> bool:
        """Level 3: admission refuses new submissions outright."""
        return self.level >= 3

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BrownoutController(level={self.level}, "
            f"occupancy={self.federation_occupancy():.2f})"
        )


class NullBrownout:
    """Overload protection off: level 0 for good, no host read."""

    level = 0
    shifts: Tuple[Tuple[float, int, int], ...] = ()

    def observe_round(self, gm) -> None:
        pass

    def speculation_allowed(self) -> bool:
        return True

    def concurrency_limit(self, base: int) -> int:
        return base

    def refuse_new_work(self) -> bool:
        return False


#: the shared "off" — safe because it holds no state
NULL_BROWNOUT = NullBrownout()
