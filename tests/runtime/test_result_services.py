"""Tests for result serialisation and the I/O service's URL flavour."""

import json

import pytest

from repro.afg import (
    ApplicationFlowGraph,
    FileSpec,
    InputBinding,
    TaskNode,
    TaskProperties,
)
from repro.runtime import StagedFile
from repro.scheduler import SiteScheduler

from tests.runtime.conftest import build_runtime, chain_afg


class TestResultSerialisation:
    def run(self):
        rt = build_runtime()
        afg = chain_afg(n=3, scale=1.5)
        table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        return rt.sim.run_until_complete(
            rt.execute_process(afg, table, execute_payloads=False)
        )

    def test_to_dict_is_json_safe_and_complete(self):
        result = self.run()
        data = result.to_dict()
        text = json.dumps(data)  # must not raise
        restored = json.loads(text)
        assert restored["application"] == "chain"
        assert restored["scheduler"] == "vdce"
        assert set(restored["tasks"]) == {"t0", "t1", "t2"}
        assert restored["makespan_s"] == pytest.approx(result.makespan)
        task = restored["tasks"]["t1"]
        assert task["attempts"] == 1
        assert task["finished_at"] >= task["started_at"]
        # every recovery counter: per task, and totalled per application
        for counter in ("transfer_retries", "channel_reestablishes",
                        "repair_refetches", "repair_regenerations"):
            assert task[counter] == 0
            assert restored[counter] == getattr(result, counter) == 0
        result.records["t1"].repair_refetches = 2
        result.records["t0"].repair_regenerations = 1
        repaired = result.to_dict()
        assert repaired["repair_refetches"] == 2
        assert repaired["repair_regenerations"] == 1
        assert repaired["tasks"]["t1"]["repair_refetches"] == 2

    def test_to_dict_omits_payload_outputs(self):
        result = self.run()
        assert "outputs" not in result.to_dict()


class TestURLInput:
    def afg_with(self, path):
        afg = ApplicationFlowGraph("urly")
        afg.add_task(
            TaskNode(
                id="t",
                task_type="generic.compute",
                n_in_ports=1,
                n_out_ports=1,
                properties=TaskProperties(
                    inputs=(InputBinding(0, FileSpec(path, 2.0)),)
                ),
            )
        )
        return afg

    def test_url_inputs_counted_separately(self):
        rt = build_runtime()
        afg = self.afg_with("http://data.example.edu/matrix_A.dat")
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        result = rt.sim.run_until_complete(rt.execute_process(afg, table))
        (out,) = result.outputs["t"]
        assert out == StagedFile("http://data.example.edu/matrix_A.dat", 2.0)
        assert rt.io_service.url_staged_count == 1
        assert rt.io_service.staged_count == 1

    def test_plain_file_is_not_url(self):
        rt = build_runtime()
        afg = self.afg_with("/u/users/VDCE/user_k/matrix_A.dat")
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        result = rt.sim.run_until_complete(rt.execute_process(afg, table))
        (out,) = result.outputs["t"]
        assert out.path == "/u/users/VDCE/user_k/matrix_A.dat"
        assert rt.io_service.url_staged_count == 0
        assert rt.io_service.staged_count == 1


class TestWebResultEndpoints:
    @pytest.fixture
    def client_and_headers(self):
        flask = pytest.importorskip("flask")
        from repro.editor.webapp import create_webapp

        rt = build_runtime()
        app = create_webapp(rt, site="alpha")
        app.config["TESTING"] = True
        client = app.test_client()
        response = client.post("/login", json={"user": "admin",
                                               "password": "vdce-admin"})
        headers = {"X-VDCE-Token": response.get_json()["token"]}
        return client, headers

    def submit_app(self, client, headers):
        client.post("/applications", json={"name": "app"}, headers=headers)
        src = client.post(
            "/applications/app/tasks",
            json={"task_type": "generic.source"}, headers=headers,
        ).get_json()["task_id"]
        snk = client.post(
            "/applications/app/tasks",
            json={"task_type": "generic.sink"}, headers=headers,
        ).get_json()["task_id"]
        client.post("/applications/app/edges",
                    json={"src": src, "dst": snk}, headers=headers)
        response = client.post("/applications/app/submit", json={"k": 1},
                               headers=headers)
        assert response.status_code == 200

    def test_result_endpoint_returns_full_dict(self, client_and_headers):
        client, headers = client_and_headers
        self.submit_app(client, headers)
        response = client.get("/applications/app/result", headers=headers)
        assert response.status_code == 200
        body = response.get_json()
        assert body["application"] == "app"
        assert len(body["tasks"]) == 2

    def test_gantt_endpoint_returns_text_chart(self, client_and_headers):
        client, headers = client_and_headers
        self.submit_app(client, headers)
        response = client.get("/applications/app/gantt", headers=headers)
        assert response.status_code == 200
        assert response.content_type.startswith("text/plain")
        assert b"makespan" in response.data

    def test_result_before_submit_is_400(self, client_and_headers):
        client, headers = client_and_headers
        client.post("/applications", json={"name": "app"}, headers=headers)
        response = client.get("/applications/app/result", headers=headers)
        assert response.status_code == 400
