"""Tests: the ``repro resume`` command end to end."""

import json

import pytest

from repro import VDCE
from repro.cli import main
from repro.repository import users
from repro.runtime.checkpoint import (
    create_checkpoint_dir,
    expected_output_hashes,
)
from repro.scheduler import SiteScheduler
from repro.workloads import linear_pipeline


def interrupted_run(tmp_path, seed=21, crash_at=6.0):
    env = VDCE.standard(n_sites=2, hosts_per_site=2, seed=seed)
    afg = linear_pipeline(n_stages=4, cost=4.0, edge_mb=1.0)
    expected = expected_output_hashes(afg, env.runtime.registry)
    journal = create_checkpoint_dir(env, str(tmp_path))
    table = SiteScheduler(k=1).schedule(afg, env.runtime.federation_view())
    env.runtime.execute_process(afg, table, journal=journal)
    env.sim.run(until=crash_at)
    env.save_repositories(str(tmp_path / "repos"))
    return expected


class TestResumeCommand:
    def test_resume_verifies_expected_hashes(self, tmp_path, capsys):
        expected = interrupted_run(tmp_path)
        expect_file = tmp_path / "expected_hashes.json"
        expect_file.write_text(json.dumps(expected))
        hashes_file = tmp_path / "hashes.json"

        code = main([
            "resume", str(tmp_path),
            "--expect", str(expect_file),
            "--hashes", str(hashes_file),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed and completed" in out
        assert "resume equivalence verified" in out
        assert json.loads(hashes_file.read_text()) == expected

    def test_hash_mismatch_exits_nonzero_with_a_diff(self, tmp_path, capsys):
        expected = interrupted_run(tmp_path)
        wrong = dict(expected)
        task = sorted(wrong)[0]
        wrong[task] = "0" * 64
        expect_file = tmp_path / "wrong.json"
        expect_file.write_text(json.dumps(wrong))

        code = main(["resume", str(tmp_path), "--expect", str(expect_file)])
        out = capsys.readouterr().out
        assert code == 1
        assert "resume equivalence FAILED" in out
        assert task in out

    @pytest.mark.parametrize("content", ['["t0", "t1"]', '{"t0": 1}', "{oops"],
                             ids=["list", "non-string-hash", "not-json"])
    def test_malformed_expect_file_is_refused_before_resuming(
            self, tmp_path, capsys, content):
        interrupted_run(tmp_path)
        expect_file = tmp_path / "expected.json"
        expect_file.write_text(content)
        code = main(["resume", str(tmp_path), "--expect", str(expect_file)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("error: ")
        assert str(expect_file) in out
        assert "resumed" not in out  # refused before any resume ran

    def test_missing_checkpoint_directory_is_a_clean_error(
        self, tmp_path, capsys
    ):
        code = main(["resume", str(tmp_path / "nope")])
        out = capsys.readouterr().out
        assert code == 1
        assert "cannot resume" in out



def test_a_journalled_run_is_reproducible_but_for_its_salts(
        tmp_path, capsys, monkeypatch):
    """Two ``run --journal`` processes of one seed write byte-identical
    directories but for every account's ``salt`` and ``password_hash``:
    salts stay ``os.urandom`` (DESIGN §10), because a seeded salt would
    make every deployment's hashes predictable."""
    runs = []
    for name in ("a", "b"):
        # a fresh process: no account derived yet
        monkeypatch.setattr(users, "_BRINGUP_HASHES", {})
        assert main(["run", "linear-solver", "--scale", "0.1",
                     "--journal", str(tmp_path / name)]) == 0
        runs.append(tmp_path / name)
    capsys.readouterr()
    first, second = runs
    for name in ("meta.json", "journal.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    repos = sorted(path.name for path in (first / "repos").iterdir())
    assert repos == ["site-0.json", "site-1.json"]
    assert repos == sorted(p.name for p in (second / "repos").iterdir())
    for name in repos:
        (a, salts_a), (b, salts_b) = (
            unsalted(root / "repos" / name) for root in runs)
        assert a == b
        assert salts_a != salts_b


def unsalted(path):
    """A repository snapshot with its accounts' salts and hashes taken
    out, and the (salt, hash) pairs taken."""
    snapshot = json.loads(path.read_text())
    salts = [(account.pop("salt"), account.pop("password_hash"))
             for account in snapshot["users"]]
    return snapshot, salts
