"""Per-site indexed host tables for the host-selection hot path.

A linear scan (:meth:`~repro.repository.store.SiteRepository.
runnable_up_hosts`) plus a name sort walks every registered host and
re-sorts the survivors on **every** ``Predict`` round — O(hosts log
hosts) per task per site.  The populations such a scan iterates over
change only on registration events (host or executable registered,
host decommissioned), which both member databases already version.

:class:`HostIndex` therefore caches, per task type, the name-sorted
list of hosts with that executable installed, keyed by the pair
``(resources.registration_version, constraints.version)``.  Dynamic
state — up/down status and membership state — is read per query from
the live :class:`~repro.repository.resources.HostRecord`, so a host
marked down (or draining) between monitor reports disappears from the
very next query without any rebuild.  Membership transitions bump one
of the two version counters (population changes bump
``registration_version``, in-place drains bump ``state_version``), so
every join/drain/depart/rejoin invalidates the cache by construction.

Equivalence argument (pinned by ``tests/scheduler/test_host_index.py``
against the scan + sort kept in ``tests/scheduler/_reference.py``):
filtering commutes with sorting, so
``sorted(filter(up, runnable)) == filter(up, sorted(runnable))`` — the
index returns exactly the scan's answer in name order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.repository.constraints import TaskConstraintsDB
from repro.repository.resources import (
    HostRecord,
    MembershipState,
    ResourcePerformanceDB,
)

__all__ = ["HostIndex"]


class HostIndex:
    """Name-sorted runnable-host tables, rebuilt only on registration."""

    def __init__(
        self, resources: ResourcePerformanceDB, constraints: TaskConstraintsDB
    ):
        self._resources = resources
        self._constraints = constraints
        self._key: Tuple[int, int] = (-1, -1)
        #: task_type -> name-sorted hosts with the executable installed
        self._tables: Dict[str, List[str]] = {}
        #: task_type -> materialised up-host record list, valid only for
        #: the exact (registration, constraints, state) version triple
        self._record_key: Tuple[int, int, int] = (-1, -1, -1)
        self._record_lists: Dict[str, List[HostRecord]] = {}
        self.rebuilds = 0

    def _table(self, task_type: str) -> List[str]:
        key = (self._resources.registration_version, self._constraints.version)
        if key != self._key:
            self._tables.clear()
            self._key = key
        table = self._tables.get(task_type)
        if table is None:
            is_runnable = self._constraints.is_runnable
            table = sorted(
                name
                for name in self._resources.host_names()
                if is_runnable(task_type, name)
            )
            self._tables[task_type] = table
            self.rebuilds += 1
        return table

    def version_key(self) -> Tuple[int, int, int]:
        """The version triple under which no host row has changed."""
        resources = self._resources
        return (
            resources.registration_version,
            self._constraints.version,
            resources.state_version,
        )

    def runnable_up_hosts(self, task_type: str) -> List[HostRecord]:
        """Up ACTIVE hosts with ``task_type`` installed, name-ordered.

        Same set and order as ``sorted(SiteRepository.runnable_up_hosts
        (task_type), key=name)``.  The materialised record list is
        reused verbatim while no host row has changed (rows are frozen
        and replaced on write, so ``state_version`` tells the whole
        truth); any dynamic write invalidates it.  The returned list is
        the cache itself and MUST be treated as read-only — callers
        that filter (preferences, quarantine) build new lists.
        """
        key = self.version_key()
        if key != self._record_key:
            self._record_lists.clear()
            self._record_key = key
        cached = self._record_lists.get(task_type)
        if cached is None:
            get = self._resources.get
            active = MembershipState.ACTIVE
            cached = [
                record
                for name in self._table(task_type)
                if (record := get(name)).up and record.state == active
            ]
            self._record_lists[task_type] = cached
        return cached
