"""Tests for the command-line interface."""

import pytest

from repro.cli import main


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
        for exp in ("E1", "E7", "E13"):
            assert exp in out
        assert "bench_fig2_site_scheduler.py" in out

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
