"""Tests: the saved application JSONs load, validate and run."""

import json
import os

import pytest

from repro.editor import EditorSession

from tests.runtime.conftest import build_runtime

APP_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                       "examples", "applications")


def load(name):
    with open(os.path.join(APP_DIR, name), encoding="utf-8") as fh:
        return fh.read()


class TestSavedApplications:
    def session(self):
        rt = build_runtime()
        return EditorSession(rt, "alpha", "admin", "vdce-admin")

    def test_all_saved_files_import_cleanly(self):
        session = self.session()
        files = [f for f in os.listdir(APP_DIR) if f.endswith(".json")]
        assert len(files) >= 3
        for filename in files:
            afg = session.import_application(load(filename))
            assert len(afg) > 0

    def test_saved_solver_runs_and_is_correct(self):
        session = self.session()
        afg = session.import_application(load("linear_solver.json"))
        result = session.submit(afg.name, k=1)
        (residual,) = result.outputs["verify"]
        assert residual < 1e-8
        lu = result.records["lu"]
        assert len(lu.hosts) == 2  # parallel LU preserved through JSON

    def test_saved_surveillance_runs(self):
        session = self.session()
        afg = session.import_application(load("surveillance.json"))
        result = session.submit(afg.name, k=1)
        (summary,) = result.outputs["archive"]
        assert summary["tracks"] > 0

    def test_saved_wavefront_runs_shape_only(self):
        session = self.session()
        afg = session.import_application(load("wavefront_6x6.json"))
        result = session.submit(afg.name, k=1, execute_payloads=False)
        assert len(result.records) == 36

    def test_files_match_generators(self):
        """The committed JSONs are exactly what the generators produce."""
        from repro.afg import afg_to_dict
        from repro.workloads import linear_solver_afg, surveillance_afg

        from tests.workloads._wavefront import wavefront

        expected = {
            "linear_solver.json": linear_solver_afg(scale=0.25,
                                                    parallel_lu_nodes=2),
            "surveillance.json": surveillance_afg(n_sensors=3, scale=0.5),
            "wavefront_6x6.json": wavefront(n=6, cost=1.5, edge_mb=0.5),
        }
        for filename, afg in expected.items():
            assert load(filename) == json.dumps(afg_to_dict(afg), indent=1,
                                                sort_keys=True)
