"""The shape each experiment E1–E15 predicts, asserted on its rows.

Each test reads the tables ``repro experiments`` prints (run once a
session, shared with the EXPERIMENTS.md check), so a scheduler or
runtime regression fails here, not only a number in a table.  A row
holds the value as printed, except where an assert needs it exact
(E11's scheduling time at one site, E15's makespans and speedups).
The E1 and E12 solver residuals and the Fig. 3 bid count are not in
any table: their tests run their own application.
"""

import pytest

from repro.experiments.placement import execute, grid, mean
from repro.experiments.runtime import submitted
from repro.scheduler import SiteScheduler, select_hosts
from repro.workloads import (
    RandomDAGConfig,
    linear_solver_afg,
    random_dag,
    surveillance_afg,
)


def keyed(rows, *columns):
    """Rows by the value of ``columns`` (one column: the bare value)."""
    return {row[columns[0]] if len(columns) == 1
            else tuple(row[c] for c in columns): row for row in rows}


def test_e1_the_figure1_properties_are_honoured(measured):
    tasks, (totals,) = measured("E1")
    tasks = keyed(tasks, "task")
    assert len(tasks["LU_Decomposition"]["hosts"].split(",")) == 2, (
        "parallel LU must be placed on 2 machines")
    assert tasks["Matrix_Multiplication"]["os"] == "solaris", (
        "machine-type preference violated")
    assert totals["makespan_s"] > 0


def test_e1b_the_computational_solver_solves_its_system():
    runtime = grid(2, 4, seed=2)
    afg = linear_solver_afg(scale=0.2, parallel_lu_nodes=2)
    table = SiteScheduler(k=1).schedule(afg, runtime.federation_view())
    result = execute(runtime, afg, table, execute_payloads=True)
    (residual,) = result.outputs["verify"]
    assert residual < 1e-8


def test_e2_vdce_beats_the_naive_baselines(measured):
    (rows,) = measured("E2")
    for row in rows:
        assert row["vdce"] <= row["random"] * 1.05, (
            f"VDCE lost to random at n={row['n_tasks']}")
        assert row["vdce"] <= row["round-robin"] * 1.05, (
            f"VDCE lost to round-robin at n={row['n_tasks']}")
        # same list-scheduling family: within 2x of HEFT
        assert row["vdce"] <= row["heft"] * 2.0


def test_e3_prediction_beats_load_blind_placement_under_skew(measured):
    (rows,) = measured("E3")
    rows = keyed(rows, "load_skew")
    for skew in (2.0, 6.0):
        assert rows[skew]["predictive"] <= rows[skew]["load-blind"] * 1.02
        assert rows[skew]["predictive"] <= rows[skew]["random"] * 1.02
    # under skew, awareness must actually help, not just tie
    assert rows[6.0]["predictive"] < rows[6.0]["load-blind"]


def test_e3_host_selection_bids_for_every_task():
    runtime = grid(1, 16, seed=0)
    afg = random_dag(RandomDAGConfig(n_tasks=100, seed=0))
    assert len(select_hosts(afg, runtime.repositories["site-0"])) == 100


def test_e4_more_sites_help_a_bag_and_a_slow_wan_keeps_work_home(measured):
    k_sweep, wan_sweep = measured("E4")
    k_sweep = keyed(k_sweep, "k")
    # compute-bound: more sites must help (or at worst tie)
    assert k_sweep[3]["bag_makespan_s"] <= k_sweep[0]["bag_makespan_s"] * 1.02
    # chatty: the transfer term keeps the pipeline co-located
    assert (k_sweep[3]["chatty_makespan_s"]
            <= k_sweep[0]["chatty_makespan_s"] * 1.25)
    shares = {row["wan_mbps"]: row["local_share"] for row in wan_sweep}
    # slow WAN -> stay home; fast WAN -> chase the faster remote hosts
    assert shares[0.05] > shares[50.0]
    assert shares[0.05] == 1.0


def test_e5_a_higher_threshold_forwards_less(measured):
    (rows,) = measured("E5")
    cells = keyed(rows, "sigma", "threshold")
    for sigma in (0.05, 0.3):
        low, high = cells[(sigma, 0.0)], cells[(sigma, 1.0)]
        assert high["forwarded"] < low["forwarded"], (
            "higher threshold must forward fewer messages")
        assert high["belief_err"] >= low["belief_err"] * 0.9, (
            "suppression cannot reduce belief error")
    # calm hosts suppress more than volatile hosts at the same threshold
    assert cells[(0.05, 0.25)]["forwarded"] <= cells[(0.3, 0.25)]["forwarded"]


def test_e6_detection_latency_follows_the_echo_period(measured):
    rows, (dead,) = measured("E6")
    for row in rows:
        period = row["echo_period_s"]
        assert row["detected"] == row["crashes"], "a crash was never detected"
        assert row["mean_latency_s"] <= period * 1.05
        assert row["worst_latency_s"] <= period * 1.05
    rows = keyed(rows, "echo_period_s")
    # latency grows, traffic shrinks with the period
    assert rows[20.0]["mean_latency_s"] > rows[1.0]["mean_latency_s"]
    assert rows[20.0]["echo_packets"] < rows[1.0]["echo_packets"]
    # after detection, host selection excludes the dead host
    assert dead["believed_up"] is False
    assert dead["tasks_placed_on_it"] == 0


def test_e7_rescheduling_recovers_from_spikes(measured):
    (rows,) = measured("E7")
    quiet, resched, riding = rows
    assert resched["makespan_s"] <= riding["makespan_s"] * 1.02, (
        "rescheduling should not be slower than riding out the spikes")
    assert resched["reschedules"] > 0, (
        "spikes this strong must trigger at least one reschedule")
    assert quiet["makespan_s"] <= resched["makespan_s"] * 1.02, (
        "spikes cannot speed things up")


def test_e8_the_protocol_sets_up_and_feeds_every_edge(measured):
    ((row,),) = measured("E8")
    assert row["channels"] == 4
    assert row["acks"] == 4
    assert row["payload_frames"] == 4


def test_e9_level_priority_wins_in_aggregate(measured):
    (rows,) = measured("E9")
    # per workload the heuristic may trade a few percent either way...
    for row in rows:
        assert row["level_makespan_s"] <= row["fifo_makespan_s"] * 1.15, (
            f"level priority badly lost on {row['workload']}")
    # ...but in aggregate level priority must win
    assert (mean(row["level_makespan_s"] for row in rows)
            <= mean(row["fifo_makespan_s"] for row in rows))


def test_e10_noise_degrades_and_calibration_cancels_it(measured):
    by_noise, calibration = measured("E10")
    makespan = {row["noise"]: row["makespan_s"] for row in by_noise}
    assert makespan[0.0] <= makespan[0.9] * 1.02, (
        "oracle predictions must beat heavily-noised ones")
    # weak monotonicity across the sweep (noise can occasionally luck out)
    assert makespan[0.0] <= makespan[0.5] * 1.05
    errors = [row["mean_rel_error"] for row in calibration]
    assert errors[-1] < errors[0] * 0.5, (
        "calibration must cancel the systematic prediction error")


def test_e11_the_exchange_is_2k_messages_and_sites_add_capacity(measured):
    (rows,) = measured("E11")
    for row in rows:
        # multicast out + bids back
        assert row["sched_msgs"] == 2 * (row["sites"] - 1)
    rows = keyed(rows, "sites")
    # more sites -> more capacity -> no worse makespan
    assert rows[8]["makespan_s"] <= rows[1]["makespan_s"] * 1.02
    # scheduling overhead grows with the federation but stays bounded
    assert rows[1]["sched_virtual_s"] == 0.0
    assert rows[8]["sched_virtual_s"] >= rows[2]["sched_virtual_s"]


def test_e12_execution_dominates(measured):
    (rows,) = measured("E12")
    for row in rows:
        assert row["execute_s"] > row["setup_s"]
        assert row["execute_s"] > row["schedule_s"]


def test_e12b_the_pipeline_produces_correct_outputs():
    _, solver = submitted(linear_solver_afg(scale=0.2, parallel_lu_nodes=2),
                          True)
    (residual,) = solver.outputs["verify"]
    _, c3i = submitted(surveillance_afg(n_sensors=3, scale=0.4), True)
    (summary,) = c3i.outputs["archive"]
    assert residual < 1e-8
    assert summary["tracks"] > 0


def test_e13_accounting_never_loses_and_ties_on_chains(measured):
    (rows,) = measured("E13")
    rows = keyed(rows, "workload")
    bag, chain, rnd = rows["bag-24"], rows["chain-8"], rows["random-40"]
    assert bag["accounting_s"] < bag["literal_fig3_s"] / 2, (
        "accounting must be multiples better on independent bags")
    assert chain["accounting_s"] == pytest.approx(
        chain["literal_fig3_s"], rel=0.02), "chains must tie"
    assert rnd["accounting_s"] <= rnd["literal_fig3_s"] * 1.02


def test_e14_writes_trade_hits_for_invalidations(measured):
    sharing, homes = measured("E14")
    rows = keyed(sharing, "write_frac")
    assert rows[0.0]["hit_rate"] > 0.9, "read-only sharing must cache well"
    assert rows[0.0]["invalidations"] == 0, "no writes, no invalidations"
    assert rows[0.9]["hit_rate"] < rows[0.1]["hit_rate"], (
        "hit rate must fall with write fraction")
    assert rows[0.9]["invalidations"] > rows[0.1]["invalidations"] * 2, (
        "invalidation traffic must grow with write fraction")
    home = {row["home"]: row["virtual_ms"] for row in homes}
    assert home["remote"] > home["local"] * 10, (
        "WAN home must cost a round trip per write")


def test_e15_speculation_halves_the_straggled_makespan(measured):
    (rows,) = measured("E15")
    *straggled, healthy = rows
    for row in straggled:
        # speculation safety: outputs match the pure-evaluation oracle no
        # matter which copy of each task won its race
        assert row["oracle_outputs"], (
            f"seed {row['seed']}: backup win corrupted terminal outputs")
        assert row["backups"] >= 1
        assert row["wins"] >= 1
    speedups = [row["speedup"] for row in straggled]
    assert min(speedups) >= 2.0, (
        f"speculation must at least halve the straggled makespan "
        f"(worst seed ratio {min(speedups):.2f})")
    assert mean(speedups) >= 2.0
    # zero-overhead guard: without a straggler, speculation changes
    # nothing — no backups, and the disabled config's makespan
    assert healthy["backups"] == 0, "a healthy run must never launch backups"
    assert healthy["spec_s"] == pytest.approx(healthy["no_spec_s"]), (
        "enabled-but-idle speculation must cost nothing")
