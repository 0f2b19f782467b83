"""Tests for task signatures, registry and library implementations."""

import numpy as np
import pytest

from repro.tasklib import ParallelModel, TaskRegistry, TaskSignature, default_registry
from repro.tasklib import c3i, generic, matrix


class TestParallelModel:
    def test_speedup_one_node_is_one(self):
        assert ParallelModel(overhead=0.1).speedup(1) == pytest.approx(1.0)

    def test_zero_overhead_is_linear(self):
        assert ParallelModel(overhead=0.0).speedup(8) == pytest.approx(8.0)

    def test_overhead_saturates_speedup(self):
        m = ParallelModel(overhead=0.25)
        assert m.speedup(4) < 4.0
        # speedup is monotone but sub-linear
        assert m.speedup(8) > m.speedup(4)
        assert m.speedup(8) / 8 < m.speedup(4) / 4

    def test_per_node_work(self):
        sig = TaskSignature(name="x", library="l", n_in_ports=0,
                            n_out_ports=0, base_comp_size=100.0,
                            parallel=ParallelModel(overhead=0.0))
        assert sig.span_work(1.0, 4) == pytest.approx(25.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelModel(overhead=-0.1)
        with pytest.raises(ValueError):
            ParallelModel().speedup(0)


class TestTaskSignature:
    def sig(self, **kw):
        defaults = dict(
            name="t", library="lib", n_in_ports=1, n_out_ports=1,
            base_comp_size=10.0, fn=lambda inputs, scale: [inputs[0]],
        )
        defaults.update(kw)
        return TaskSignature(**defaults)

    def test_qualified_name(self):
        assert self.sig().qualified_name == "lib.t"

    def test_comp_size_scales(self):
        assert self.sig().comp_size(2.5) == pytest.approx(25.0)

    def test_comp_size_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            self.sig().comp_size(0.0)

    def test_memory_ceil_and_floor(self):
        s = self.sig(base_memory_mb=10)
        assert s.memory_mb(0.01) == 1
        assert s.memory_mb(1.55) == 16

    def test_span_work_sequential(self):
        assert self.sig().span_work(2.0, 1) == pytest.approx(20.0)

    def test_span_work_parallel(self):
        s = self.sig(parallel=ParallelModel(overhead=0.0))
        assert s.span_work(1.0, 4) == pytest.approx(2.5)

    def test_span_work_parallel_without_model_raises(self):
        with pytest.raises(ValueError, match="no parallel"):
            self.sig().span_work(1.0, 4)

    def test_run_checks_arity(self):
        s = self.sig()
        assert s.run(["x"]) == ["x"]
        with pytest.raises(ValueError, match="expects 1"):
            s.run([])

    def test_run_checks_output_arity(self):
        s = self.sig(fn=lambda inputs, scale: [])
        with pytest.raises(RuntimeError, match="produced 0"):
            s.run(["x"])

    def test_run_without_implementation(self):
        s = self.sig(fn=None)
        with pytest.raises(RuntimeError, match="no implementation"):
            s.run(["x"])

    def test_name_validation(self):
        with pytest.raises(ValueError):
            self.sig(name="dotted.name")
        with pytest.raises(ValueError):
            self.sig(name="")
        with pytest.raises(ValueError):
            self.sig(library="")
        with pytest.raises(ValueError):
            self.sig(base_comp_size=-1.0)


class TestRegistry:
    def test_default_registry_contains_three_libraries(self):
        reg = default_registry()
        assert set(reg.libraries()) == {"c3i", "generic", "matrix", "signal"}
        assert len(reg) >= 20

    def test_default_registry_is_cached(self):
        assert default_registry() is default_registry()

    def test_get_and_has(self):
        reg = default_registry()
        assert reg.has("matrix.lu_decomposition")
        assert "matrix.lu_decomposition" in reg
        sig = reg.get("matrix.lu_decomposition")
        assert sig.parallelizable
        with pytest.raises(KeyError):
            reg.get("matrix.nonexistent")

    def test_library_entries_sorted(self):
        entries = default_registry().library_entries("matrix")
        names = [e.name for e in entries]
        assert names == sorted(names)
        with pytest.raises(KeyError):
            default_registry().library_entries("nope")

    def test_double_registration_rejected(self):
        reg = TaskRegistry()
        sig = TaskSignature(name="x", library="l", n_in_ports=0, n_out_ports=0,
                            base_comp_size=1.0)
        reg.register(sig)
        with pytest.raises(ValueError):
            reg.register(sig)


class TestMatrixLibrary:
    def test_linear_solver_pipeline_is_numerically_correct(self):
        """generate -> lu -> solve actually solves Ax=b."""
        reg = default_registry()
        a, b = reg.get("matrix.generate_system").run([], scale=0.2)
        (factored,) = reg.get("matrix.lu_decomposition").run([a], scale=0.2)
        (x,) = reg.get("matrix.triangular_solve").run([factored, b], scale=0.2)
        (res,) = reg.get("matrix.residual_norm").run([a, x, b], scale=0.2)
        assert res < 1e-8

    def test_matrix_multiply(self):
        reg = default_registry()
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        (c,) = reg.get("matrix.matrix_multiply").run([a, b])
        assert np.allclose(c, [[3.0], [7.0]])

    def test_generate_system_is_deterministic_per_scale(self):
        reg = default_registry()
        a1, b1 = reg.get("matrix.generate_system").run([], scale=0.3)
        a2, b2 = reg.get("matrix.generate_system").run([], scale=0.3)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_qr_and_cholesky(self):
        reg = default_registry()
        a, _ = reg.get("matrix.generate_system").run([], scale=0.1)
        q, r = reg.get("matrix.qr_decomposition").run([a])
        assert np.allclose(q @ r, a, atol=1e-8)
        (l,) = reg.get("matrix.cholesky").run([a])
        assert np.allclose(l @ l.T, a, atol=1e-6)

    def test_transpose_and_add(self):
        reg = default_registry()
        a = np.arange(6.0).reshape(2, 3)
        (t,) = reg.get("matrix.transpose").run([a])
        assert t.shape == (3, 2)
        (s,) = reg.get("matrix.matrix_add").run([a, a])
        assert np.allclose(s, 2 * a)


class TestC3ILibrary:
    def test_pipeline_end_to_end(self):
        reg = default_registry()
        (sweep1,) = reg.get("c3i.sensor_sweep").run([], scale=0.5)
        (sweep2,) = reg.get("c3i.sensor_sweep").run([], scale=0.5)
        (t1,) = reg.get("c3i.track_filter").run([sweep1])
        (t2,) = reg.get("c3i.track_filter").run([sweep2])
        (fused,) = reg.get("c3i.track_correlation").run([t1, t2])
        assert fused.shape[1] == 5
        (assessed,) = reg.get("c3i.threat_assessment").run([fused])
        assert assessed.shape[1] == 6
        # scores sorted descending
        scores = assessed[:, 5]
        assert np.all(np.diff(scores) <= 1e-12)
        (text,) = reg.get("c3i.display_format").run([assessed])
        assert "track 000" in text
        (summary,) = reg.get("c3i.intel_archive").run([assessed])
        assert summary["tracks"] == assessed.shape[0]
        assert summary["max_threat"] >= summary["mean_threat"]

    def test_sweep_size_scales(self):
        reg = default_registry()
        (small,) = reg.get("c3i.sensor_sweep").run([], scale=0.25)
        (large,) = reg.get("c3i.sensor_sweep").run([], scale=1.0)
        assert large.shape[0] > small.shape[0]


class TestGenericLibrary:
    def test_split_join_shapes(self):
        reg = default_registry()
        (token,) = reg.get("generic.source").run([], scale=1.0)
        a, b = reg.get("generic.split").run([token])
        (joined,) = reg.get("generic.join").run([a, b])
        assert joined == [token, token]
        assert reg.get("generic.sink").run([joined]) == []

    def test_all_entries_have_consistent_implementations(self):
        """Every library entry with 0 inputs can run; declared arities hold."""
        reg = default_registry()
        for name in reg.names():
            sig = reg.get(name)
            assert sig.fn is not None, f"{name} lacks an implementation"
            if sig.n_in_ports == 0:
                outputs = sig.run([], scale=0.5)
                assert len(outputs) == sig.n_out_ports
