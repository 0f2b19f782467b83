"""The chaos presets: ``repro chaos --<name>`` as plain data.

Each preset holds only the :class:`~repro.sim.chaos.ChaosConfig` fields
that differ from the defaults, and :func:`repro.sim.chaos.preset` builds
the config.  The table lives apart from the campaign so that building
the CLI parser imports nothing from the simulator.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["PRESETS"]

#: the shared base: 3 sites x 3 hosts, applications 35 s apart over a
#: nominal 240 s
_SMALL = dict(hosts_per_site=3, duration_s=240.0, app_spacing_s=35.0)
#: no stochastic link faults and light message loss: the background of
#: every preset that studies one fault family alone
_QUIET = dict(n_flaky_links=0, message_loss_prob=0.02, echo_loss_prob=0.02)

#: ``repro chaos --<name>``: the one-line help and the fields that differ
#: from :class:`ChaosConfig`'s defaults.  The pinned campaign hashes
#: (``campaign:*`` in ``tests/pins.json``) pin every value here.
PRESETS: Dict[str, Dict[str, Any]] = {
    "smoke": dict(
        doc="the small, fast campaign CI runs",
        **_SMALL, n_apps=3,
        host_mtbf_s=90.0, host_mttr_s=25.0,
        link_mtbf_s=120.0, link_mttr_s=15.0,
        partition_at_s=40.0, partition_duration_s=30.0,
        gm_crash_at_s=70.0, sm_crash_at_s=100.0,
    ),
    "slowdown-smoke": dict(
        doc="the straggler-defense campaign CI runs (slowdowns + flapping, "
            "speculation on)",
        **_SMALL, n_apps=3, **_QUIET, partition_at_s=None,
        n_flaky_hosts=1, host_mttr_s=25.0,
        n_slow_hosts=6, slowdown_at_s=20.0, slowdown_duration_s=90.0,
        n_flapping_hosts=3,
        detector="phi", speculation=True, health=True,
    ),
    # the partition is there so the breakers actually trip
    "storm": dict(
        doc="the overload campaign: an arrival storm against a bounded "
            "admission queue, with brownout and circuit breakers armed",
        **_QUIET, partition_at_s=30.0, partition_duration_s=25.0,
        n_sites=2, hosts_per_site=2, n_apps=2,
        duration_s=180.0, app_spacing_s=30.0,
        n_flaky_hosts=1, host_mtbf_s=90.0, host_mttr_s=20.0,
        storm_apps=18, storm_deadline_s=60.0, storm_user_rate_per_s=0.25,
        overload=True, breakers=True,
    ),
    # every WAN link flips or truncates payloads, one host's staged
    # artifacts vanish, one journal rots; the Site Manager crash keeps
    # checkpoint-resume in play so the journal fault has somewhere to bite
    "corruption": dict(
        doc="the data-integrity campaign: payload corruption, artifact loss "
            "and journal rot against end-to-end checksums and the repair "
            "ladder (invariants I12/I13)",
        **_SMALL, **_QUIET, partition_at_s=None,
        n_flaky_hosts=0, sm_crash_at_s=90.0,
        data_integrity=True, n_corrupt_links=3,
        link_corrupt_prob=0.35, link_truncate_prob=0.10,
        artifact_loss_at_s=60.0, journal_corrupt_at_s=80.0,
    ),
    # every non-leader host drains, departs and rejoins under a fresh
    # epoch; the 2 s grace is shorter than a task slice, so resident work
    # is genuinely preempted, and with crash / partition faults off every
    # reschedule is attributable to churn
    "churn": dict(
        doc="the elastic-membership campaign: graceful drains, hard "
            "decommissions and rejoins under load (invariants I14/I15/I16)",
        **_QUIET, partition_at_s=None,
        app_spacing_s=40.0, n_flaky_hosts=0,
        n_churn_hosts=9, churn_start_s=25.0, churn_window_s=70.0,
        churn_drain_deadline_s=2.0, churn_rejoin_after_s=50.0,
    ),
    # the smoke preset's deployment and application stream, nothing armed
    "calm": dict(
        doc="the fault-free campaign: nothing armed, so any RPC timeout or "
            "missing bid is the system's own doing (invariant I17)",
        **_SMALL, n_apps=3,
        n_flaky_hosts=0, n_flaky_links=0, partition_at_s=None,
        message_loss_prob=0.0, echo_loss_prob=0.0,
    ),
}
