"""Background-workload generators for non-dedicated hosts.

The paper targets non-dedicated networks of workstations: other users'
processes contend for CPU, and the Monitor daemons exist precisely to
track that contention (§4.1).  Each generator here is a kernel process
that periodically updates a host's background load (run-queue length).
Generators are deterministic given the simulator seed, so monitoring
and rescheduling experiments are reproducible.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.host import Host
from repro.sim.kernel import Process, Simulator, Timeout

__all__ = [
    "DiurnalLoad",
    "LoadGenerator",
    "OrnsteinUhlenbeckLoad",
    "SpikeLoad",
]


class LoadGenerator:
    """Base class: drives ``host.set_bg_load`` on a fixed period."""

    def __init__(self, period_s: float = 1.0):
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.period_s = float(period_s)
        self.updates = 0

    def start(self, sim: Simulator, host: Host) -> Process:
        """Spawn the generator process for ``host``."""
        return sim.process(self._run(sim, host), name=f"load:{host.name}")

    def _run(self, sim: Simulator, host: Host):
        rng = sim.rng(f"load:{host.name}")
        state = self.initial(rng)
        while True:
            host.set_bg_load(max(0.0, state))
            self.updates += 1
            yield Timeout(self.period_s)
            state = self.next_value(state, rng)

    # -- subclass hooks -----------------------------------------------------

    def initial(self, rng) -> float:
        raise NotImplementedError

    def next_value(self, current: float, rng) -> float:
        raise NotImplementedError


class OrnsteinUhlenbeckLoad(LoadGenerator):
    """Mean-reverting load — the standard model for CPU load averages.

    ``x' = x + theta * (mean - x) + sigma * N(0, 1)``, clamped at 0.
    High ``theta`` gives calm hosts; high ``sigma`` gives volatile ones
    (the knob for the monitoring-threshold experiment E5).
    """

    def __init__(self, mean: float = 0.5, theta: float = 0.2, sigma: float = 0.15,
                 period_s: float = 1.0):
        super().__init__(period_s)
        if mean < 0 or sigma < 0 or not (0 < theta <= 1):
            raise ValueError("require mean>=0, sigma>=0, 0<theta<=1")
        self.mean, self.theta, self.sigma = float(mean), float(theta), float(sigma)

    def initial(self, rng) -> float:
        return max(0.0, rng.normal(self.mean, self.sigma))

    def next_value(self, current: float, rng) -> float:
        nxt = (current + self.theta * (self.mean - current)
               + self.sigma * rng.normal())
        return max(0.0, nxt)


class SpikeLoad(LoadGenerator):
    """Mostly idle, with occasional sustained load spikes.

    Models a workstation owner returning to their desk: with probability
    ``spike_prob`` per period a spike of ``spike_level`` begins and lasts
    ``spike_duration_periods`` periods.  Drives experiment E7 (dynamic
    rescheduling under load spikes).
    """

    def __init__(self, base: float = 0.1, spike_level: float = 4.0,
                 spike_prob: float = 0.02, spike_duration_periods: int = 10,
                 period_s: float = 1.0):
        super().__init__(period_s)
        if spike_duration_periods < 1:
            raise ValueError("spike_duration_periods must be >= 1")
        if not (0 <= spike_prob <= 1):
            raise ValueError("spike_prob must be a probability")
        self.base = float(base)
        self.spike_level = float(spike_level)
        self.spike_prob = float(spike_prob)
        self.spike_duration_periods = int(spike_duration_periods)
        self._remaining_spike = 0

    def initial(self, rng) -> float:
        self._remaining_spike = 0
        return self.base

    def next_value(self, current: float, rng) -> float:
        if self._remaining_spike > 0:
            self._remaining_spike -= 1
            return self.spike_level
        if rng.uniform() < self.spike_prob:
            self._remaining_spike = self.spike_duration_periods - 1
            return self.spike_level
        return self.base


class DiurnalLoad(LoadGenerator):
    """Daily rhythm of a shared workstation: busy days, quiet nights.

    Load follows ``base + amplitude * max(0, sin(2pi (t - phase)/day))``
    plus mean-zero jitter — the canonical non-dedicated-NOW pattern the
    paper's monitoring subsystem exists to track across hours.
    """

    def __init__(self, base: float = 0.1, amplitude: float = 1.5,
                 day_length_s: float = 86400.0, phase_s: float = 0.0,
                 jitter: float = 0.1, period_s: float = 60.0):
        super().__init__(period_s)
        if base < 0 or amplitude < 0 or jitter < 0:
            raise ValueError("base, amplitude and jitter must be non-negative")
        if day_length_s <= 0:
            raise ValueError("day_length_s must be positive")
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.day_length_s = float(day_length_s)
        self.phase_s = float(phase_s)
        self.jitter = float(jitter)
        self._elapsed = 0.0

    def _level(self, t: float, rng) -> float:
        import math

        daytime = math.sin(2.0 * math.pi * (t - self.phase_s) / self.day_length_s)
        level = self.base + self.amplitude * max(0.0, daytime)
        if self.jitter > 0:
            level += self.jitter * rng.normal()
        return max(0.0, level)

    def initial(self, rng) -> float:
        self._elapsed = 0.0
        return self._level(0.0, rng)

    def next_value(self, current: float, rng) -> float:
        self._elapsed += self.period_s
        return self._level(self._elapsed, rng)


def attach_generators(
    sim: Simulator,
    hosts: Iterable[Host],
    generator_factory,
) -> list[Process]:
    """Attach a fresh generator (from ``generator_factory()``) to every host."""
    return [generator_factory().start(sim, host) for host in hosts]
