"""Tests: task/edge removal through graph, builder and web layers."""

import pytest

from repro.afg import ApplicationFlowGraph, TaskNode, validate_afg
from repro.editor import AFGBuilder, BuilderError

from tests.runtime.conftest import build_runtime


def small_graph():
    afg = ApplicationFlowGraph("g")
    afg.add_task(TaskNode(id="a", task_type="generic.source", n_out_ports=1))
    afg.add_task(TaskNode(id="b", task_type="generic.compute",
                          n_in_ports=1, n_out_ports=1))
    afg.add_task(TaskNode(id="c", task_type="generic.sink", n_in_ports=1))
    afg.connect("a", "b", size_mb=1.0)
    afg.connect("b", "c", size_mb=2.0)
    return afg


class TestGraphRemoval:
    def test_remove_task_drops_incident_edges(self):
        afg = small_graph()
        afg.remove_task("b")
        assert "b" not in afg
        assert afg.edges == []
        assert afg.children("a") == []
        assert afg.parents("c") == []
        with pytest.raises(KeyError):
            afg.remove_task("b")

    def test_removed_port_can_be_rewired(self):
        afg = small_graph()
        afg.remove_task("b")
        afg.add_task(TaskNode(id="b2", task_type="generic.compute",
                              n_in_ports=1, n_out_ports=1))
        afg.connect("a", "b2")
        afg.connect("b2", "c")
        assert validate_afg(afg) == []

    def test_disconnect_single_edge(self):
        afg = small_graph()
        edge = afg.disconnect("a", "b")
        assert edge.size_mb == 1.0
        assert afg.children("a") == []
        assert len(afg.edges) == 1
        with pytest.raises(KeyError):
            afg.disconnect("a", "b")

    def test_disconnect_frees_the_input_port(self):
        afg = small_graph()
        afg.disconnect("a", "b")
        afg.add_task(TaskNode(id="a2", task_type="generic.source",
                              n_out_ports=1))
        afg.connect("a2", "b")  # port 0 is free again
        assert afg.parents("b") == ["a2"]

    def test_disconnect_unknown_endpoints(self):
        afg = small_graph()
        with pytest.raises(KeyError):
            afg.disconnect("zz", "b")
        with pytest.raises(KeyError):
            afg.disconnect("a", "b", src_port=5)


class TestBuilderRemoval:
    def test_remove_and_rebuild(self):
        b = AFGBuilder("app")
        src = b.add("generic.source")
        mid = b.add("generic.compute")
        snk = b.add("generic.sink")
        b.connect(src, mid)
        b.connect(mid, snk)
        b.remove(mid)
        assert mid not in [t.id for t in b.preview()]
        # re-wire around the removed node
        mid2 = b.add("generic.compute")
        b.connect(src, mid2)
        b.connect(mid2, snk)
        afg = b.build()
        assert len(afg) == 3

    def test_remove_drops_file_bindings(self):
        b = AFGBuilder("app")
        lu = b.add("matrix.lu_decomposition")
        b.bind_file(lu, 0, "/a.dat", 1.0)
        b.remove(lu)
        lu2 = b.add("matrix.lu_decomposition", id=lu)
        b.bind_file(lu2, 0, "/b.dat", 2.0)  # no "already fed" conflict
        afg = b.build()
        assert afg.task(lu2).properties.inputs[0].file.path == "/b.dat"

    def test_errors(self):
        b = AFGBuilder("app")
        with pytest.raises(BuilderError):
            b.remove("ghost")
        src = b.add("generic.source")
        snk = b.add("generic.sink")
        with pytest.raises(BuilderError):
            b.disconnect(src, snk)


class TestWebRemoval:
    @pytest.fixture
    def client_headers(self):
        pytest.importorskip("flask")
        from repro.editor.webapp import create_webapp

        rt = build_runtime()
        app = create_webapp(rt, site="alpha")
        app.config["TESTING"] = True
        client = app.test_client()
        token = client.post("/login", json={"user": "admin",
                                            "password": "vdce-admin"}
                            ).get_json()["token"]
        return client, {"X-VDCE-Token": token}

    def test_delete_task_and_edge(self, client_headers):
        client, headers = client_headers
        client.post("/applications", json={"name": "app"}, headers=headers)
        src = client.post("/applications/app/tasks",
                          json={"task_type": "generic.source"},
                          headers=headers).get_json()["task_id"]
        snk = client.post("/applications/app/tasks",
                          json={"task_type": "generic.sink"},
                          headers=headers).get_json()["task_id"]
        client.post("/applications/app/edges",
                    json={"src": src, "dst": snk}, headers=headers)

        response = client.delete("/applications/app/edges",
                                 json={"src": src, "dst": snk},
                                 headers=headers)
        assert response.status_code == 200
        response = client.delete(f"/applications/app/tasks/{src}",
                                 headers=headers)
        assert response.status_code == 200
        afg_json = client.get("/applications/app", headers=headers).get_json()
        assert len(afg_json["tasks"]) == 1
        assert afg_json["edges"] == []

    def test_delete_unknown_task_is_400(self, client_headers):
        client, headers = client_headers
        client.post("/applications", json={"name": "app"}, headers=headers)
        response = client.delete("/applications/app/tasks/ghost",
                                 headers=headers)
        assert response.status_code == 400
