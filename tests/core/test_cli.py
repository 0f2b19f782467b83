"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import main

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


class TestCLI:
    def test_libraries_lists_all_menus(self, capsys):
        assert main(["libraries"]) == 0
        out = capsys.readouterr().out
        for library in ("matrix:", "c3i:", "generic:", "signal:"):
            assert library in out
        assert "matrix.lu_decomposition" in out
        assert "[parallel]" in out

    def test_experiments_index(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        listed = re.findall(r"^  (E\d+) ", out, flags=re.MULTILINE)
        reported = re.findall(r"^## (E\d+) —", EXPERIMENTS_MD.read_text(),
                              flags=re.MULTILINE)
        assert reported and set(reported) <= set(listed)
        assert "bench_fig2_site_scheduler.py" in out
        assert "pytest tests/runtime/test_integrity.py\n" in out

    def test_run_linear_solver(self, capsys):
        assert main(["run", "linear-solver", "--scale", "0.15",
                     "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "makespan=" in out
        assert "slr=" in out
        assert "verify" in out  # placement row + output
        assert "scheduler=vdce" in out  # gantt header

    def test_run_figure1(self, capsys):
        assert main(["run", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "LU_Decomposition" in out

    def test_run_c3i_with_monitoring(self, capsys):
        assert main(["run", "c3i", "--scale", "0.25", "--monitoring"]) == 0
        out = capsys.readouterr().out
        assert "archive" in out

    def test_run_dsp_prints_outputs(self, capsys):
        assert main(["run", "dsp", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "peaks:" in out

    def test_run_random_dag(self, capsys):
        assert main(["run", "random-dag", "--sites", "3", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "30 tasks on 3 sites" in out

    def test_run_unknown_app_exits(self):
        with pytest.raises(SystemExit, match="unknown application"):
            main(["run", "nonsense"])

    def test_run_repeat_without_max_concurrent_is_an_error(self, capsys):
        # only the admission path submits copies: without it a repeat
        # would silently run once
        assert main(["run", "figure1", "--repeat", "3"]) == 1
        assert capsys.readouterr().out.strip() == (
            "error: --max-queued/--deadline/--ttl/--repeat need "
            "--max-concurrent"
        )

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_run_repeat_below_one_is_an_error(self, capsys, repeat):
        assert main(["run", "figure1", "--max-concurrent", "1",
                     "--repeat", repeat]) == 1
        assert capsys.readouterr().out.strip() == (
            "error: --repeat must be >= 1"
        )

    @pytest.mark.parametrize("argv, message", [
        (["run", "random-dag", "--k", "-1"], "--k must be >= 0"),
        (["run", "random-dag", "--sites", "0"], "--sites must be >= 1"),
        (["run", "random-dag", "--hosts", "0"], "--hosts must be >= 1"),
        (["run", "random-dag", "--seed", "-3"], "--seed must be >= 0"),
        (["chaos", "--smoke", "--seed", "-1"], "--seed must be >= 0"),
        (["chaos", "--sites", "0"], "--sites must be >= 1"),
        (["chaos", "--apps", "0"], "--apps must be >= 1"),
        (["chaos", "--duration", "0"], "--duration must be > 0"),
        (["topology", "--sites", "0"], "--sites must be >= 1"),
        (["topology", "--hosts", "0"], "--hosts must be >= 1"),
        (["monitor", "--sites", "0"], "--sites must be >= 1"),
        (["monitor", "--hosts", "0"], "--hosts must be >= 1"),
        (["monitor", "--duration", "-5"], "--duration must be > 0"),
        (["metrics", "--sites", "0"], "--sites must be >= 1"),
        (["metrics", "--hosts", "0"], "--hosts must be >= 1"),
        (["run", "linear-solver", "--scale", "0"], "--scale must be > 0"),
        (["run", "dsp", "--scale", "0"], "--scale must be > 0"),
        (["run", "c3i", "--scale", "-1"], "--scale must be > 0"),
        (["run", "figure1", "--max-concurrent", "0"],
         "--max-concurrent must be >= 1"),
        (["run", "figure1", "--max-concurrent", "1", "--max-queued", "-1"],
         "--max-queued must be >= 1"),
        (["run", "figure1", "--max-concurrent", "1", "--ttl", "-1"],
         "--ttl must be > 0"),
        (["run", "figure1", "--max-concurrent", "1", "--deadline", "-1"],
         "--deadline must be >= 0"),
        (["explain", "--scenario", "end_to_end", "--top", "-1"],
         "--top must be >= 0"),
        (["serve", "--sites", "0"], "--sites must be >= 1"),
        (["monitor", "--seed", "-1"], "--seed must be >= 0"),
    ])
    def test_numbers_below_their_minimum_are_errors(self, capsys, argv,
                                                    message):
        # these used to end in a ValueError / SimulationError traceback
        # from whatever first consumed the number (scheduler,
        # deployment, SeedSequence, admission, the kernel clock) — or,
        # for --top, silently drop a row
        assert main(argv) == 1
        assert capsys.readouterr().out.strip() == f"error: {message}"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv, flag", [
        (["chaos"], "duration"),
        (["chaos"], "slowdown-factor"),
        (["monitor"], "duration"),
        (["run", "figure1"], "scale"),
        (["run", "figure1", "--max-concurrent", "1"], "ttl"),
        (["run", "figure1", "--max-concurrent", "1"], "deadline"),
        (["resume", "no-such-dir"], "limit"),
    ])
    def test_a_non_finite_float_flag_is_an_error(self, capsys, argv, flag,
                                                 bad):
        # NaN is below no bound: unchecked, a NaN --duration runs a chaos
        # campaign or a monitor loop that never ends
        assert main([*argv, f"--{flag}={bad}"]) == 1
        assert capsys.readouterr().out.strip() == (
            f"error: --{flag} must be finite")

    def test_monitor_prints_sparklines_and_stats(self, capsys):
        assert main(["monitor", "--duration", "20", "--hosts", "2"]) == 0
        out = capsys.readouterr().out
        assert "monitor_reports" in out
        assert "max=" in out  # sparkline scale labels

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_chaos_with_an_unwritable_log_reports_and_exits_1(
            self, tmp_path, capsys):
        log = tmp_path / "no-such-dir" / "campaign.json"
        code = main(["chaos", "--sites", "2", "--hosts", "2", "--apps", "1",
                     "--duration", "5", "--log", str(log)])
        out = capsys.readouterr().out
        assert code == 1
        assert f"error: cannot write campaign log to {log}" in out

    @pytest.mark.parametrize("extra", (
        ["--apps", "64"], ["--slow-hosts", "0"], ["--detector", "phi"],
        ["--speculation"], ["--health", "--duration", "10"],
    ), ids=lambda extra: extra[0])
    def test_chaos_rejects_a_preset_combined_with_a_shape_flag(
            self, extra, capsys):
        """A preset fixes the campaign's shape; ``--smoke --apps 64``
        used to run 3 applications without a word."""
        assert main(["chaos", "--smoke", *extra]) == 1
        out = capsys.readouterr().out
        assert "error: --smoke fixes the campaign's shape" in out
        assert all(flag in out for flag in extra if flag.startswith("--"))
        assert "chaos campaign" not in out  # nothing ran

    def test_chaos_presets_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--smoke", "--churn"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_chaos_unset_shape_flags_fall_back_to_the_config_defaults(
            self, capsys):
        from repro.sim.chaos import ChaosConfig, run_campaign

        assert main(["chaos", "--seed", "1", "--apps", "2"]) == 0
        expected = run_campaign(ChaosConfig(seed=1, n_apps=2)).campaign_hash()
        assert f"campaign hash: {expected}" in capsys.readouterr().out
