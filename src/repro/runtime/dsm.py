"""Distributed shared memory — the paper's §5 future work, implemented.

"We are also implementing a distributed shared memory model that will
allow VDCE users to describe their applications using a shared memory
paradigm."

This module provides that model over the same simulated network the
Data Manager uses: a home-based, write-invalidate protocol with
sequential consistency.

* Every variable has a *home host* (chosen at allocation).
* A read from a host with a valid cached copy is free; otherwise the
  value is fetched from the home (one transfer) and cached.
* A write goes to the home (one transfer), which invalidates every
  other cached copy (one control message each) **before** the write
  completes — writes are totally ordered at the home and no stale copy
  survives a write, which yields sequential consistency.

Reads and writes are generator methods to be driven from kernel
processes (``value = yield from dsm.read("x", host)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Set

from repro.sim.kernel import AllOf, Simulator, Timeout
from repro.sim.network import Network

__all__ = ["DSM", "DSMError", "DSMStats"]

#: wire size of one DSM value/control message (MB); small control traffic
_VALUE_MB = 0.001
_CONTROL_MB = 0.0001


class DSMError(RuntimeError):
    """Unknown variable or misuse of the DSM API."""


@dataclass
class DSMStats:
    reads: int = 0
    read_hits: int = 0
    read_misses: int = 0
    writes: int = 0
    invalidations: int = 0

    def hit_rate(self) -> float:
        return self.read_hits / self.reads if self.reads else 0.0


@dataclass
class _Variable:
    name: str
    home_host: str
    value: Any
    #: hosts (other than home) holding a valid cached copy
    copies: Set[str] = field(default_factory=set)
    version: int = 0


class DSM:
    """One shared-memory space spanning a deployment's hosts."""

    def __init__(self, sim: Simulator, network: Network):
        self.sim = sim
        self.network = network
        self._variables: Dict[str, _Variable] = {}
        #: per-host caches: host -> {var: (version, value)}
        self._cache: Dict[str, Dict[str, tuple]] = {}
        self.stats = DSMStats()

    # -- allocation ----------------------------------------------------------

    def allocate(self, name: str, home_host: str, initial: Any = None) -> None:
        """Create a shared variable homed at ``home_host``."""
        if name in self._variables:
            raise DSMError(f"variable {name!r} already allocated")
        self.network.site_of(home_host)  # validates the host exists
        self._variables[name] = _Variable(name=name, home_host=home_host,
                                          value=initial)

    def _get(self, name: str) -> _Variable:
        try:
            return self._variables[name]
        except KeyError:
            raise DSMError(f"unknown shared variable {name!r}") from None

    # -- reads ------------------------------------------------------------------

    def read(self, name: str, host: str):
        """Generator: read ``name`` from ``host`` (cache hit = free)."""
        variable = self._get(name)
        self.stats.reads += 1
        cached = self._cache.get(host, {}).get(name)
        if host == variable.home_host:
            self.stats.read_hits += 1
            return variable.value
        if cached is not None and cached[0] == variable.version:
            self.stats.read_hits += 1
            return cached[1]
        # miss: fetch from home
        self.stats.read_misses += 1
        yield self.network.transfer(
            variable.home_host, host, _VALUE_MB, label=f"dsm-read:{name}"
        ).done
        value, version = variable.value, variable.version
        self._cache.setdefault(host, {})[name] = (version, value)
        variable.copies.add(host)
        return value

    # -- writes ------------------------------------------------------------------

    def write(self, name: str, value: Any, host: str):
        """Generator: write ``name`` from ``host`` (sequentially consistent).

        The new value travels to the home; every other cached copy is
        invalidated before the write returns.
        """
        variable = self._get(name)
        self.stats.writes += 1
        if host != variable.home_host:
            yield self.network.transfer(
                host, variable.home_host, _VALUE_MB, label=f"dsm-write:{name}"
            ).done
        # invalidate all copies except the writer's own (which we refresh)
        victims = sorted(variable.copies - {host})
        invalidations = []
        for victim in victims:
            self.stats.invalidations += 1
            cache = self._cache.get(victim, {})
            cache.pop(name, None)
            invalidations.append(
                self.network.transfer(
                    variable.home_host, victim, _CONTROL_MB,
                    label=f"dsm-inval:{name}",
                ).done
            )
        if invalidations:
            yield AllOf(invalidations)
        variable.copies = {host} if host != variable.home_host else set()
        variable.value = value
        variable.version += 1
        if host != variable.home_host:
            self._cache.setdefault(host, {})[name] = (variable.version, value)

    # -- read-modify-write convenience ------------------------------------------------

    def fetch_add(self, name: str, delta: float, host: str):
        """Generator: atomic increment (runs entirely at the home)."""
        variable = self._get(name)
        if host != variable.home_host:
            transfer = self.network.transfer(
                host, variable.home_host, _CONTROL_MB,
                label=f"dsm-rmw:{name}",
            )
            yield transfer.done
        new_value = (variable.value or 0) + delta
        yield from self.write(name, new_value, variable.home_host)
        if host != variable.home_host:
            back = self.network.transfer(
                variable.home_host, host, _CONTROL_MB,
                label=f"dsm-rmw-reply:{name}",
            )
            yield back.done
        return new_value
