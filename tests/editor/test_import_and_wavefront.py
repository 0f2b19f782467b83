"""Tests: application import (session + web) and the wavefront workload."""

import json

import pytest

from repro.afg import AFGValidationError, afg_to_dict, validate_afg
from repro.editor import EditorSession, SessionError
from repro.scheduler import SiteScheduler
from repro.workloads import surveillance_afg

from tests.runtime.conftest import build_runtime
from tests.workloads._wavefront import wavefront


class TestWavefront:
    def test_structure(self):
        afg = wavefront(n=4, cost=1.0)
        assert len(afg) == 16
        assert afg.entry_tasks() == ["c00_00"]
        assert afg.exit_tasks() == ["c03_03"]
        assert validate_afg(afg) == []
        # corner cells have one parent, interior cells two
        assert afg.task("c00_01").n_in_ports == 1
        assert afg.task("c01_01").n_in_ports == 2

    def test_frontier_parallelism_is_visible_in_execution(self):
        """The anti-diagonal widens: peak concurrency ~ n on n hosts."""
        rt = build_runtime(
            site_hosts={"alpha": [(f"h{i}", 1.0, 256) for i in range(4)]}
        )
        afg = wavefront(n=4, cost=1.0, edge_mb=0.0)
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        result = rt.sim.run_until_complete(
            rt.execute_process(afg, table, execute_payloads=False)
        )
        starts = [r.started_at for r in result.records.values()]
        peak = max(sum(r.started_at <= t < r.finished_at
                       for r in result.records.values()) for t in starts)
        assert peak >= 3  # near the main anti-diagonal

    def test_validation(self):
        with pytest.raises(ValueError):
            wavefront(n=0)

    def test_executes_end_to_end(self):
        rt = build_runtime()
        afg = wavefront(n=3, cost=0.5)
        table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        result = rt.sim.run_until_complete(
            rt.execute_process(afg, table, execute_payloads=False)
        )
        assert len(result.records) == 9


class TestImport:
    def test_session_import_dict_and_submit(self):
        rt = build_runtime()
        session = EditorSession(rt, "alpha", "admin", "vdce-admin")
        data = afg_to_dict(surveillance_afg(n_sensors=2, scale=0.3))
        afg = session.import_application(data)
        assert afg.name == "c3i-surveillance-2"
        result = session.submit("c3i-surveillance-2", k=1)
        assert "archive" in result.outputs

    def test_session_import_json_string(self):
        rt = build_runtime()
        session = EditorSession(rt, "alpha", "admin", "vdce-admin")
        afg = session.import_application(
            json.dumps(afg_to_dict(wavefront(n=2, cost=1.0)))
        )
        assert afg.name == "wavefront-2x2"
        result = session.submit("wavefront-2x2", k=1, execute_payloads=False)
        assert sorted(result.records) == sorted(t.id for t in afg)

    def test_duplicate_import_rejected(self):
        rt = build_runtime()
        session = EditorSession(rt, "alpha", "admin", "vdce-admin")
        data = afg_to_dict(wavefront(n=2))
        session.import_application(data)
        with pytest.raises(SessionError, match="already imported"):
            session.import_application(data)

    def test_import_validates_against_registry(self):
        rt = build_runtime()
        session = EditorSession(rt, "alpha", "admin", "vdce-admin")
        data = afg_to_dict(wavefront(n=2))
        data["tasks"][0]["task_type"] = "nope.missing"
        with pytest.raises(AFGValidationError):
            session.import_application(data)

    def test_unknown_imported_name(self):
        rt = build_runtime()
        session = EditorSession(rt, "alpha", "admin", "vdce-admin")
        with pytest.raises(SessionError, match="unknown application"):
            session.submit("ghost")

    def test_web_import_endpoint(self):
        pytest.importorskip("flask")
        from repro.editor.webapp import create_webapp

        rt = build_runtime()
        app = create_webapp(rt, site="alpha")
        app.config["TESTING"] = True
        client = app.test_client()
        token = client.post("/login", json={"user": "admin",
                                            "password": "vdce-admin"}
                            ).get_json()["token"]
        headers = {"X-VDCE-Token": token}
        data = afg_to_dict(wavefront(n=2, cost=1.0))
        response = client.post("/applications/import", json=data,
                               headers=headers)
        assert response.status_code == 201
        assert response.get_json() == {"application": "wavefront-2x2",
                                       "tasks": 4}
        # submitting the imported application works through the API
        response = client.post("/applications/wavefront-2x2/submit",
                               json={"k": 1, "execute_payloads": False},
                               headers=headers)
        assert response.status_code == 200
        assert len(response.get_json()["tasks"]) == 4

    def test_web_import_invalid_is_422(self):
        pytest.importorskip("flask")
        from repro.editor.webapp import create_webapp

        rt = build_runtime()
        app = create_webapp(rt, site="alpha")
        app.config["TESTING"] = True
        client = app.test_client()
        token = client.post("/login", json={"user": "admin",
                                            "password": "vdce-admin"}
                            ).get_json()["token"]
        headers = {"X-VDCE-Token": token}
        data = afg_to_dict(wavefront(n=2))
        data["tasks"][0]["task_type"] = "nope.missing"
        response = client.post("/applications/import", json=data,
                               headers=headers)
        assert response.status_code == 422
