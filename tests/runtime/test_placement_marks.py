"""A host found fit is checked again as soon as what the check reads moves.

``ExecutionCoordinator._placement_fault`` keeps, per site, the hosts it
found fit for an attempt, under the site's repository versions
(``registration_version``, ``state_version``) and its Site Manager's
``belief_mark`` (DESIGN §13.15).  A fault-free bag therefore checks
each host once, not each attempt.  That is exact only while every
change the check can see moves one of the three:

* behaviour: each case primes the cache, makes one such change, and the
  very next check must report it (a change that moved no mark would be
  hidden by the cache);
* shape (AST, like ``test_monitor_marks.py``): every
  ``ResourcePerformanceDB`` method that writes a host row bumps a
  version, and ``GroupManager._bump`` — which every writer of a belief or
  of a manager's liveness calls, gated there — moves the belief mark.
"""

import ast

import pytest

from repro.repository import resources
from repro.runtime import group_manager
from repro.runtime.execution import ExecutionCoordinator

from tests.runtime.conftest import build_runtime, chain_afg
from tests.runtime.test_monitor_marks import methods, writes
from tests.runtime.test_recovery_arms import manual_table

pytestmark = pytest.mark.gate


def primed():
    """A coordinator whose one task is bound to ``a1``, checked fit twice
    (a scan, then a hit)."""
    rt = build_runtime()
    coordinator = ExecutionCoordinator(
        rt, chain_afg(n=1), manual_table(chain_afg(n=1), {"t0": ("alpha", "a1")}))
    assignment = coordinator.assignment["t0"]
    scans = []
    scan = coordinator._stale_membership_hosts
    coordinator._stale_membership_hosts = lambda a: scans.append(a) or scan(a)
    for _ in range(2):
        assert coordinator._placement_fault(assignment) is None
    assert len(scans) == 1
    return rt, coordinator, assignment


def _believed_down(rt):
    gm = rt.site_managers["alpha"].group_managers[
        rt.topology.site("alpha").group_of("a1").name]
    gm._declare(rt.topology.site("alpha").hosts["a1"], up=False)


def _departed_and_back(rt):
    repo = rt.repositories["alpha"]
    spec = repo.resources.get("a1").spec
    repo.deregister_host("a1")  # the row and its constraints
    repo.resources.rejoin_host(spec)
    repo.resources.activate_host("a1", time=0.0)


CHANGES = {
    "marked down": lambda rt: rt.repositories["alpha"].resources.mark_down(
        "a1", time=0.0),
    "draining": lambda rt: rt.repositories["alpha"].resources.begin_draining(
        "a1", time=0.0),
    "rejoined at a new epoch": _departed_and_back,
    "believed down": _believed_down,
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_a_change_the_check_reads_is_seen_by_the_next_attempt(change):
    rt, coordinator, assignment = primed()
    CHANGES[change](rt)
    assert coordinator._placement_fault(assignment) is not None


def bumps(function, fields):
    return any(
        isinstance(node, ast.AugAssign)
        and getattr(node.target, "attr", None) in fields
        for node in ast.walk(function)
    )


def test_every_write_to_a_host_row_moves_a_version():
    found = {name: fn for name, fn in methods(resources)
             if name.startswith("ResourcePerformanceDB.")}
    writers = {name for name, fn in found.items()
               if any(field == "_hosts" for field, _ in writes(fn))}
    assert writers >= {
        f"ResourcePerformanceDB.{name}" for name in (
            "register_host", "deregister_host", "rejoin_host", "_transition",
            "update_workload", "mark_down", "mark_up")
    }
    unbumped = sorted(
        name for name in writers
        if not bumps(found[name], {"registration_version", "state_version"}))
    assert unbumped == [], unbumped


def test_every_group_manager_bump_moves_the_belief_mark():
    bump = dict(methods(group_manager))["GroupManager._bump"]
    assert bumps(bump, {"belief_mark"})
