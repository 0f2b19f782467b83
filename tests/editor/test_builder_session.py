"""Tests for the programmatic Application Editor."""

import pytest

from repro.afg import AFGValidationError, ComputationMode
from repro.editor import AFGBuilder, BuilderError, EditorSession, SessionError
from repro.repository import AuthenticationError

from tests.runtime.conftest import build_runtime


class TestAFGBuilder:
    def test_add_autogenerates_ids_and_ports(self):
        b = AFGBuilder("app")
        id1 = b.add("matrix.generate_system")
        id2 = b.add("matrix.lu_decomposition")
        assert id1 != id2
        node = b.preview().task(id2)
        assert node.n_in_ports == 1
        assert node.n_out_ports == 1

    def test_unknown_task_type_rejected(self):
        with pytest.raises(BuilderError, match="unknown task type"):
            AFGBuilder("app").add("nope.missing")

    def test_connect_with_default_size(self):
        b = AFGBuilder("app")
        gen = b.add("matrix.generate_system", workload_scale=2.0)
        lu = b.add("matrix.lu_decomposition")
        b.connect(gen, lu, src_port=0)
        edge = b.preview().edges[0]
        # generate_system comm_size 4.0 MB x scale 2.0
        assert edge.size_mb == pytest.approx(8.0)

    def test_connect_explicit_size_and_errors(self):
        b = AFGBuilder("app")
        gen = b.add("matrix.generate_system")
        lu = b.add("matrix.lu_decomposition")
        b.connect(gen, lu, src_port=1, size_mb=3.0)
        assert b.preview().edges[0].size_mb == 3.0
        with pytest.raises(BuilderError):
            b.connect("ghost", lu)
        with pytest.raises(BuilderError):
            b.connect(gen, lu, src_port=9)

    def test_build_synthesises_dataflow_bindings(self):
        b = AFGBuilder("app")
        gen = b.add("matrix.generate_system")
        lu = b.add("matrix.lu_decomposition")
        b.connect(gen, lu, src_port=0)
        # lu has 1 in-port fed by edge; triangular solve left out
        afg = b.build()
        binding = afg.task(lu).properties.inputs[0]
        assert binding.is_dataflow

    def test_bind_file(self):
        b = AFGBuilder("app")
        lu = b.add("matrix.lu_decomposition")
        b.bind_file(lu, 0, "/data/matrix_A.dat", 124.88)
        afg = b.build()
        binding = afg.task(lu).properties.inputs[0]
        assert not binding.is_dataflow
        assert binding.file.size_mb == pytest.approx(124.88)

    def test_bind_file_errors(self):
        b = AFGBuilder("app")
        gen = b.add("matrix.generate_system")
        lu = b.add("matrix.lu_decomposition")
        with pytest.raises(BuilderError):
            b.bind_file(lu, 5, "/x", 1.0)
        with pytest.raises(BuilderError):
            b.bind_file("ghost", 0, "/x", 1.0)
        b.connect(gen, lu, src_port=0)
        with pytest.raises(BuilderError, match="already fed"):
            b.bind_file(lu, 0, "/x", 1.0)

    def test_build_validates_unbound_ports(self):
        b = AFGBuilder("app")
        b.add("matrix.lu_decomposition")  # input port left dangling
        with pytest.raises(AFGValidationError):
            b.build()
        # but build(validate=False) returns the raw graph
        afg = b.build(validate=False)
        assert len(afg) == 1

    def test_set_properties(self):
        b = AFGBuilder("app")
        lu = b.add("matrix.lu_decomposition")
        b.set_properties(lu, mode="parallel", n_nodes=4)
        node = b.preview().task(lu)
        assert node.properties.mode is ComputationMode.PARALLEL
        assert node.properties.n_nodes == 4
        with pytest.raises(BuilderError):
            b.set_properties(lu, n_nodes=0)
        with pytest.raises(BuilderError):
            b.set_properties("ghost", n_nodes=2)

    def test_parallel_on_nonparallel_task_caught_at_build(self):
        b = AFGBuilder("app")
        src = b.add("generic.source", mode="parallel", n_nodes=2)
        with pytest.raises(AFGValidationError, match="no parallel"):
            b.build()

    def test_task_ids_listing(self):
        b = AFGBuilder("app")
        a = b.add("generic.source", id="mysrc")
        assert [t.id for t in b.preview()] == ["mysrc"]
        with pytest.raises(BuilderError):
            b.add("generic.source", id="mysrc")


class TestEditorSession:
    def test_authentication_required(self):
        rt = build_runtime()
        with pytest.raises(AuthenticationError):
            EditorSession(rt, "alpha", "admin", "wrong")
        session = EditorSession(rt, "alpha", "admin", "vdce-admin")
        assert session.account.user_name == "admin"

    def test_unknown_site_rejected(self):
        rt = build_runtime()
        with pytest.raises(SessionError):
            EditorSession(rt, "mars", "admin", "vdce-admin")

    def test_libraries_menu(self):
        rt = build_runtime()
        session = EditorSession(rt, "alpha", "admin", "vdce-admin")
        menu = session.libraries()
        assert set(menu) == {"c3i", "generic", "matrix", "signal"}
        lu = [e for e in menu["matrix"] if e["name"] == "matrix.lu_decomposition"]
        assert lu and lu[0]["parallelizable"]

    def test_application_lifecycle_and_submit(self):
        rt = build_runtime()
        session = EditorSession(rt, "alpha", "admin", "vdce-admin")
        builder = session.new_application("solver")
        gen = builder.add("matrix.generate_system", workload_scale=0.2)
        lu = builder.add("matrix.lu_decomposition", workload_scale=0.2)
        solve = builder.add("matrix.triangular_solve", workload_scale=0.2)
        builder.connect(gen, lu, src_port=0)
        builder.connect(gen, solve, src_port=1, dst_port=1)
        builder.connect(lu, solve, dst_port=0)
        result = session.submit("solver", k=1)
        assert result.makespan > 0
        assert session.result("solver") is result
        assert session.applications() == ["solver"]

    def test_duplicate_application_rejected(self):
        rt = build_runtime()
        session = EditorSession(rt, "alpha", "admin", "vdce-admin")
        session.new_application("x")
        with pytest.raises(SessionError):
            session.new_application("x")
        with pytest.raises(SessionError):
            session.application("ghost")
        with pytest.raises(SessionError):
            session.result("ghost")

    def test_closed_session_refuses_work(self):
        rt = build_runtime()
        session = EditorSession(rt, "alpha", "admin", "vdce-admin")
        session.close()
        with pytest.raises(SessionError, match="closed"):
            session.new_application("x")
        with pytest.raises(SessionError):
            session.libraries()
