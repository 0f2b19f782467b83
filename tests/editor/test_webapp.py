"""Tests for the Flask web editor (paper §2's web pipeline over HTTP)."""

import pytest

flask = pytest.importorskip("flask")

from repro.editor.webapp import create_webapp

from tests.runtime.conftest import build_runtime


@pytest.fixture
def client():
    rt = build_runtime()
    app = create_webapp(rt, site="alpha")
    app.config["TESTING"] = True
    return app.test_client()


def login(client, user="admin", password="vdce-admin"):
    response = client.post("/login", json={"user": user, "password": password})
    assert response.status_code == 200
    return {"X-VDCE-Token": response.get_json()["token"]}


class TestAuth:
    def test_login_success_returns_account_info(self, client):
        response = client.post("/login", json={"user": "admin",
                                               "password": "vdce-admin"})
        body = response.get_json()
        assert response.status_code == 200
        assert body["user"] == "admin"
        assert body["site"] == "alpha"
        assert body["access_domain"] == "global"

    def test_bad_password_is_401(self, client):
        response = client.post("/login", json={"user": "admin", "password": "x"})
        assert response.status_code == 401

    def test_missing_token_is_401(self, client):
        assert client.get("/libraries").status_code == 401
        assert client.get("/libraries",
                          headers={"X-VDCE-Token": "bogus"}).status_code == 401


class TestEditorFlow:
    def test_libraries_menu(self, client):
        headers = login(client)
        body = client.get("/libraries", headers=headers).get_json()
        assert set(body) == {"c3i", "generic", "matrix", "signal"}

    def test_full_build_and_submit_flow(self, client):
        headers = login(client)
        assert client.post("/applications", json={"name": "solver"},
                           headers=headers).status_code == 201

        def add(task_type, scale=0.2, **kw):
            response = client.post(
                "/applications/solver/tasks",
                json={"task_type": task_type, "workload_scale": scale, **kw},
                headers=headers,
            )
            assert response.status_code == 201
            return response.get_json()["task_id"]

        gen = add("matrix.generate_system")
        lu = add("matrix.lu_decomposition")
        solve = add("matrix.triangular_solve")
        for src, dst, sp, dp in [(gen, lu, 0, 0), (gen, solve, 1, 1),
                                 (lu, solve, 0, 0)]:
            response = client.post(
                "/applications/solver/edges",
                json={"src": src, "dst": dst, "src_port": sp, "dst_port": dp},
                headers=headers,
            )
            assert response.status_code == 201

        # inspect the canvas
        afg_json = client.get("/applications/solver", headers=headers).get_json()
        assert len(afg_json["tasks"]) == 3
        assert len(afg_json["edges"]) == 3

        # validate then submit
        response = client.post("/applications/solver/validate", headers=headers)
        assert response.status_code == 200
        assert response.get_json()["problems"] == []

        response = client.post("/applications/solver/submit", json={"k": 1},
                               headers=headers)
        assert response.status_code == 200
        body = response.get_json()
        assert body["makespan_s"] > 0
        assert len(body["tasks"]) == 3
        assert all(t["attempts"] == 1 for t in body["tasks"].values())

    def test_validation_reports_problems(self, client):
        headers = login(client)
        client.post("/applications", json={"name": "bad"}, headers=headers)
        client.post("/applications/bad/tasks",
                    json={"task_type": "matrix.lu_decomposition"},
                    headers=headers)
        response = client.post("/applications/bad/validate", headers=headers)
        assert response.status_code == 422
        assert response.get_json()["problems"]

    def test_patch_task_properties(self, client):
        headers = login(client)
        client.post("/applications", json={"name": "app"}, headers=headers)
        response = client.post("/applications/app/tasks",
                               json={"task_type": "matrix.lu_decomposition"},
                               headers=headers)
        task_id = response.get_json()["task_id"]
        response = client.patch(
            f"/applications/app/tasks/{task_id}",
            json={"mode": "parallel", "n_nodes": 2},
            headers=headers,
        )
        assert response.status_code == 200
        afg_json = client.get("/applications/app", headers=headers).get_json()
        (task,) = afg_json["tasks"]
        assert task["properties"]["mode"] == "parallel"
        assert task["properties"]["n_nodes"] == 2

    def test_bind_file_endpoint(self, client):
        headers = login(client)
        client.post("/applications", json={"name": "filey"}, headers=headers)
        response = client.post("/applications/filey/tasks",
                               json={"task_type": "matrix.lu_decomposition"},
                               headers=headers)
        task_id = response.get_json()["task_id"]
        response = client.post(
            "/applications/filey/files",
            json={"task": task_id, "port": 0,
                  "path": "/u/users/VDCE/user_k/matrix_A.dat",
                  "size_mb": 124.88},
            headers=headers,
        )
        assert response.status_code == 201
        response = client.post("/applications/filey/validate", headers=headers)
        assert response.status_code == 200

    def test_builder_errors_are_400(self, client):
        headers = login(client)
        client.post("/applications", json={"name": "app"}, headers=headers)
        response = client.post("/applications/app/tasks",
                               json={"task_type": "nope.missing"},
                               headers=headers)
        assert response.status_code == 400
        assert "unknown task type" in response.get_json()["error"]

    def test_unknown_application_is_400(self, client):
        headers = login(client)
        response = client.get("/applications/ghost", headers=headers)
        assert response.status_code == 400

    def test_list_applications(self, client):
        headers = login(client)
        client.post("/applications", json={"name": "a"}, headers=headers)
        client.post("/applications", json={"name": "b"}, headers=headers)
        body = client.get("/applications", headers=headers).get_json()
        assert body["applications"] == ["a", "b"]


class TestMetricsRoute:
    def test_metrics_route_serves_prometheus_text(self):
        from repro.metrics.registry import MetricsRegistry
        from repro.runtime import RuntimeConfig, VDCERuntime
        from repro.sim import TopologyBuilder

        builder = TopologyBuilder(seed=0).wan_defaults(0.02, 2.0)
        builder.site("alpha", hosts=[("a1", 1.0, 256), ("a2", 2.0, 256)])
        topo = builder.build()
        rt = VDCERuntime(topo, config=RuntimeConfig(),
                         metrics=MetricsRegistry())
        rt.start_monitoring()
        rt.sim.run(until=10.0)

        app = create_webapp(rt, site="alpha")
        app.config["TESTING"] = True
        client = app.test_client()

        # no auth required: /metrics is a scrape target
        response = client.get("/metrics")
        assert response.status_code == 200
        assert response.content_type.startswith("text/plain")
        body = response.get_data(as_text=True)
        assert "# TYPE sim_events_total counter" in body
        assert "vdce_monitor_reports_by_host_total" in body

    def test_metrics_route_with_disabled_registry_is_empty(self, client):
        response = client.get("/metrics")
        assert response.status_code == 200
        assert response.get_data(as_text=True) == ""


class TestAdmissionIntegration:
    def make_client(self, rt=None, **policy_kwargs):
        from repro.runtime.admission import AdmissionPolicy, AdmissionQueue

        rt = rt or build_runtime()
        queue = AdmissionQueue(
            rt, max_concurrent=2, site="alpha",
            policy=AdmissionPolicy(**policy_kwargs),
        )
        app = create_webapp(rt, site="alpha", admission=queue)
        app.config["TESTING"] = True
        return app.test_client(), rt, queue

    def import_chain(self, client, headers, name="hose"):
        from repro.afg.serialize import afg_to_dict

        from tests.runtime.conftest import chain_afg

        response = client.post(
            "/applications/import",
            json=afg_to_dict(chain_afg(n=2, name=name)),
            headers=headers,
        )
        assert response.status_code == 201

    def test_submit_reports_queue_occupancy(self):
        client, rt, queue = self.make_client(max_queued=4)
        headers = login(client)
        self.import_chain(client, headers)
        response = client.post("/applications/hose/submit", json={"k": 1},
                               headers=headers)
        assert response.status_code == 200
        body = response.get_json()
        assert body["makespan_s"] > 0
        assert body["admission"] == {"queued": 0, "running": 0}
        assert queue.admitted_order == ["hose"]

    def test_brownout_rejection_is_429(self):
        client, rt, queue = self.make_client(rt=build_runtime(overload=True))
        rt.brownout.update("alpha", "g0", 1.0)  # critical: refuse work
        headers = login(client)
        self.import_chain(client, headers)
        response = client.post("/applications/hose/submit", json={"k": 1},
                               headers=headers)
        assert response.status_code == 429
        assert "brownout" in response.get_json()["error"]

    def test_submission_under_deleted_account_is_403(self):
        # the account disappears between login and submit: admission
        # looks the user up again and refuses with the typed error
        client, rt, queue = self.make_client(max_queued=4)
        headers = login(client)
        self.import_chain(client, headers)
        rt.repositories["alpha"].users.remove("admin")
        response = client.post("/applications/hose/submit", json={"k": 1},
                               headers=headers)
        assert response.status_code == 403
        assert "admin" in response.get_json()["error"]
