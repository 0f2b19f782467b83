"""Smoke test of the benchmark: the quick run, the contract of
BENCHMARK.json, and the layer-pass wrappers."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, layers
from bench.metrics import contract_blocks
from bench.workloads import WORKLOADS
from repro.sim.kernel import Interrupt, Simulator, Timeout

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [entry["name"] for block in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[block]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = [e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in BENCHMARK["end_to_end"])}]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    for block, metrics in contract_blocks().items():
        assert [(e["name"], e["unit"], e["better"]) for e in BENCHMARK[block]] \
            == [(m.name, m.unit, m.better) for m in metrics]


def test_quick_run_prints_every_metric_and_passes_every_check(quick):
    stdout, result, _ = quick(0)
    assert result["quick"] is True
    printed = {tuple(line.split()[:2]): line.split()
               for line in stdout.splitlines() if len(line.split()) >= 4}
    for workload in WORKLOADS:
        detail = result["workloads"][workload]
        # the layer pass reproduced the timed pass's digests and counts
        # (events_processed among them), else these would be recorded
        assert detail["failures"] == [] and detail["correct"] is True
        assert detail["events"] == detail["per_layer"]["sim.kernel.events"]["value"]
        assert (ROOT / "bench" / "out" / f"{workload}.spans.json").exists()
        for block in ("end_to_end", "per_layer"):
            for entry in BENCHMARK[block]:
                fields = printed[(workload, entry["name"])]
                float(fields[2])
                assert fields[3] == entry["unit"]
    for key in ("nproc", "loadavg_start", "python", "commit", "seed",
                "repeats", "calib_s"):
        assert key in result["env"]
    # instrumentation-off workloads emit no trace event at all
    for workload in ("bag_2k", "dag_3x512", "place_4x1k"):
        assert result["workloads"][workload]["per_layer"]["trace.events"]["value"] == 0
    assert result["workloads"]["place_4x1k"]["events"] == 0


def test_driver_form_ends_with_the_contract_line():
    """`--workload W --seed N --trace 0`, at a small `--size`: the last
    line of standard output is the JSON object the driver reads."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "place_4x1k",
         "--seed", "3", "--size", "64", "--repeats", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == 2 * 4 * 64     # rounds x applications x size
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        e["name"]: e["unit"] for e in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_shim_forwards_send_throw_and_return():
    seen = []

    def inner():
        try:
            got = yield "first"
            seen.append(got)
            yield "second"
        except KeyError as exc:
            seen.append(exc)
            got = yield "caught"
            seen.append(got)
        return "done"

    rec = layers.Recorder()
    shim = layers.stepping_shim(inner(), "test.site", rec.enter, rec.leave)
    assert next(shim) == "first"
    assert shim.send("a") == "second"
    error = KeyError("boom")
    assert shim.throw(error) == "caught"
    with pytest.raises(StopIteration) as stop:
        shim.send("b")
    assert stop.value.value == "done"
    assert seen == ["a", error, "b"]
    assert rec.calls["test.site"] == 4


def test_interrupt_reaches_a_wrapped_process():
    rec = layers.Recorder()
    with layers.installed(rec):
        sim = Simulator(seed=0)

        def sleeper():
            try:
                yield Timeout(10.0)
            except Interrupt as interrupt:
                return ("interrupted", sim.now, interrupt.cause)
            return "slept"

        proc = sim.process(sleeper(), name="watch:h0:t0")
        sim.call_at(1.0, lambda: proc.interrupt("load"))
        assert sim.run_until_complete(proc) == ("interrupted", 1.0, "load")
    assert rec.calls["runtime.app_controller"] == 2
    assert rec.counts["runtime.app_controller.watches"] == 1


def test_wrappers_are_removed():
    import repro.runtime.site_manager as site_manager
    import repro.scheduler.host_selection as host_selection

    before = (Simulator.process, Simulator.call_at, Simulator.run,
              host_selection.select_hosts, site_manager.select_hosts)
    with layers.installed(layers.Recorder()):
        assert Simulator.process is not before[0]
        assert site_manager.select_hosts is not before[4]
        assert site_manager.select_hosts is host_selection.select_hosts
    assert (Simulator.process, Simulator.call_at, Simulator.run,
            host_selection.select_hosts, site_manager.select_hosts) == before


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "dag_3x512", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
