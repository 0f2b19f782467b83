"""Background-load drivers the tests script hosts with.

The program's generators (:mod:`repro.sim.workload`) model real
contention; these two give tests a load they can write down: an exact
per-period timeline, and a bounded random walk that crosses a load
threshold often.  Both are plain :class:`LoadGenerator` subclasses, so
they drive a host through the same kernel process as the program's.
"""

from typing import Sequence

from repro.sim.workload import LoadGenerator


class TraceLoad(LoadGenerator):
    """Replays an explicit ``(load value per period)`` sequence, then holds."""

    def __init__(self, values: Sequence[float], period_s: float = 1.0):
        super().__init__(period_s)
        if not values:
            raise ValueError("trace must be non-empty")
        if any(v < 0 for v in values):
            raise ValueError("trace values must be non-negative")
        self.values = [float(v) for v in values]
        self._index = 0

    def initial(self, rng) -> float:
        self._index = 0
        return self.values[0]

    def next_value(self, current: float, rng) -> float:
        self._index = min(self._index + 1, len(self.values) - 1)
        return self.values[self._index]


class RandomWalkLoad(LoadGenerator):
    """Load takes uniform steps in ``[-step, +step]``, clamped to [lo, hi]."""

    def __init__(self, lo: float = 0.0, hi: float = 2.0, step: float = 0.2,
                 period_s: float = 1.0):
        super().__init__(period_s)
        if not (0 <= lo <= hi):
            raise ValueError("require 0 <= lo <= hi")
        self.lo, self.hi, self.step = float(lo), float(hi), float(step)

    def initial(self, rng) -> float:
        return rng.uniform(self.lo, self.hi)

    def next_value(self, current: float, rng) -> float:
        nxt = current + rng.uniform(-self.step, self.step)
        return min(self.hi, max(self.lo, nxt))
