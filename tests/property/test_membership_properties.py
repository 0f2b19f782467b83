"""Property: the cached prediction rows survive arbitrary churn.

Satellite 3 of issue 10.  For ANY randomized sequence of membership
operations — join, activate, drain, retire, rejoin, up/down flaps,
workload reports — the rows the repository's long-lived, version-keyed
:class:`~repro.repository.host_index.HostIndex` hands out must name
*exactly* (same hosts, same order)

* the hosts of a from-scratch index over the same databases, and
* the reference linear scan (up + ACTIVE + executable installed,
  name-sorted)

after every single step.  Any missed invalidation, over-eager cache
reuse or membership-state leak shows up as a divergence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.repository.host_index import HostIndex
from repro.repository.resources import MembershipState
from repro.repository.store import SiteRepository
from repro.scheduler.prediction import PredictionModel
from repro.sim.host import HostSpec

TASK_TYPES = ("math.lu_decompose", "signal.spectrum")
MODEL = PredictionModel()

# ops are drawn as (opcode, host_pick, coin) triples; illegal ops for
# the picked host's current state degrade to a no-op, so every drawn
# sequence is a valid lifecycle without rejection-sampling waste
OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=7),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def _install(repo, name, coin):
    for i, task_type in enumerate(TASK_TYPES):
        if coin or i == 0:
            repo.constraints.register(task_type, name, f"/bin/{name}")


def _reference(repo, task_type):
    return [
        r.name
        for r in sorted(repo.resources.up_hosts(), key=lambda r: r.name)
        if r.state == MembershipState.ACTIVE
        and repo.constraints.is_runnable(task_type, r.name)
    ]


def _apply(repo, step, opcode, pick, coin):
    """One membership-lifecycle mutation; returns a description."""
    names = repo.resources.host_names()
    time = float(step)
    if opcode == 0:  # join a brand-new host (JOINING, maybe activate)
        name = f"n{step:02d}"
        repo.resources.register_host(
            HostSpec(name=name), state=MembershipState.JOINING
        )
        _install(repo, name, coin)
        if coin:
            repo.resources.activate_host(name, time)
        return
    if not names:
        return
    name = names[pick % len(names)]
    state = repo.resources.membership_state(name)
    if opcode == 1:  # activate a joining/rejoining host
        if state in (MembershipState.JOINING, MembershipState.REJOINING):
            repo.resources.activate_host(name, time)
    elif opcode == 2:  # graceful drain
        if state == MembershipState.ACTIVE:
            repo.resources.begin_draining(name, time)
    elif opcode == 3:  # retire (constraints first, then the row)
        repo.constraints.remove_host(name, deregistering=True)
        repo.resources.deregister_host(name)
    elif opcode == 4:  # rejoin the oldest tombstone
        departed = sorted(repo.resources.departed_hosts())
        if departed:
            back = departed[pick % len(departed)]
            repo.resources.rejoin_host(HostSpec(name=back), time=time)
            _install(repo, back, coin)
            if coin:
                repo.resources.activate_host(back, time)
    elif opcode == 5:  # up/down flap
        if repo.resources.get(name).up:
            repo.resources.mark_down(name, time)
        else:
            repo.resources.mark_up(name, time)
    else:  # workload report: dynamic write, membership unchanged
        repo.resources.update_workload(
            name, load=float(pick), available_memory_mb=64, time=time
        )


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_cached_table_equals_rebuild_under_churn(ops):
    repo = SiteRepository("prop-site")
    for i in range(3):
        name = f"h{i:02d}"
        repo.resources.register_host(HostSpec(name=name))
        _install(repo, name, coin=True)

    for step, (opcode, pick, coin) in enumerate(ops):
        _apply(repo, step, opcode, pick, coin)
        fresh = HostIndex(repo.resources, repo.constraints, repo.task_perf)
        for task_type in TASK_TYPES:
            cached = [row[0] for row in
                      repo.host_index.rows(task_type, MODEL)]
            rebuilt = [r.name for r in fresh.runnable_up_hosts(task_type)]
            assert cached == rebuilt == _reference(repo, task_type), (
                f"step {step} op {opcode} on pick {pick}: cached={cached} "
                f"rebuilt={rebuilt} reference={_reference(repo, task_type)}"
            )


@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_epochs_only_ever_increase(ops):
    """A host's membership epoch is monotone across any churn sequence."""
    repo = SiteRepository("prop-site")
    for i in range(3):
        name = f"h{i:02d}"
        repo.resources.register_host(HostSpec(name=name))
        _install(repo, name, coin=True)

    high_water = {}
    for step, (opcode, pick, coin) in enumerate(ops):
        _apply(repo, step, opcode, pick, coin)
        for name in repo.resources.host_names():
            epoch = repo.resources.membership_epoch(name)
            assert epoch >= high_water.get(name, 0)
            high_water[name] = epoch
        for name, epoch in repo.resources.departed_hosts().items():
            assert epoch >= high_water.get(name, 0)
            high_water[name] = epoch
