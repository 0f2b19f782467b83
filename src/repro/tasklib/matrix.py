"""The matrix algebra library — the palette behind Figure 1.

Entries are real numpy/scipy computations sized by ``workload_scale``:
scale 1.0 corresponds to a 128x128 dense system.  Base computation
sizes follow the asymptotic cost ratios of the operations (an LU
decomposition is ~n^3/3 flops, a matmul ~2 n^3, a triangular solve
~n^2) so the level-based priorities the scheduler derives from the
task-performance database are physically sensible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Sequence

from repro.tasklib.base import ParallelModel, TaskSignature

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SIGNATURES", "BASE_N"]

#: matrix dimension at workload_scale == 1.0
BASE_N = 128


def _dim(scale: float) -> int:
    return max(2, int(round(BASE_N * scale ** (1.0 / 3.0))))


def _as_matrix(value: Any) -> np.ndarray:
    import numpy as np

    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={arr.ndim}")
    return arr


def generate_spd(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Generate a well-conditioned system (A, b); the AFG's data source."""
    import numpy as np

    n = _dim(scale)
    rng = np.random.default_rng(n)  # deterministic per problem size
    a = rng.standard_normal((n, n))
    a = a @ a.T + n * np.eye(n)  # symmetric positive definite
    b = rng.standard_normal(n)
    return [a, b]


def lu_decomposition(inputs: Sequence[Any], scale: float) -> List[Any]:
    import scipy.linalg

    a = _as_matrix(inputs[0])
    lu, piv = scipy.linalg.lu_factor(a)
    return [(lu, piv)]


def triangular_solve(inputs: Sequence[Any], scale: float) -> List[Any]:
    import numpy as np
    import scipy.linalg

    (lu, piv), b = inputs
    x = scipy.linalg.lu_solve((lu, piv), np.asarray(b, dtype=float))
    return [x]


def matrix_multiply(inputs: Sequence[Any], scale: float) -> List[Any]:
    import numpy as np

    a = _as_matrix(inputs[0])
    b = np.asarray(inputs[1], dtype=float)
    return [a @ b]


def matrix_add(inputs: Sequence[Any], scale: float) -> List[Any]:
    import numpy as np

    a = np.asarray(inputs[0], dtype=float)
    b = np.asarray(inputs[1], dtype=float)
    return [a + b]


def transpose(inputs: Sequence[Any], scale: float) -> List[Any]:
    return [_as_matrix(inputs[0]).T.copy()]


def residual_norm(inputs: Sequence[Any], scale: float) -> List[Any]:
    """||Ax - b||: the Linear Equation Solver's verification step."""
    import numpy as np

    a = _as_matrix(inputs[0])
    x = np.asarray(inputs[1], dtype=float)
    b = np.asarray(inputs[2], dtype=float)
    return [float(np.linalg.norm(a @ x - b))]


def cholesky(inputs: Sequence[Any], scale: float) -> List[Any]:
    import numpy as np

    return [np.linalg.cholesky(_as_matrix(inputs[0]))]


def qr_decomposition(inputs: Sequence[Any], scale: float) -> List[Any]:
    import numpy as np

    q, r = np.linalg.qr(_as_matrix(inputs[0]))
    return [q, r]


SIGNATURES = [
    TaskSignature(
        name="generate_system",
        library="matrix",
        n_in_ports=0,
        n_out_ports=2,
        base_comp_size=2.0,
        base_memory_mb=24,
        comm_size_mb=4.0,
        fn=generate_spd,
        description="Generate a dense SPD system (A, b)",
    ),
    TaskSignature(
        name="lu_decomposition",
        library="matrix",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=12.0,
        base_memory_mb=32,
        comm_size_mb=4.0,
        parallel=ParallelModel(overhead=0.08),
        fn=lu_decomposition,
        description="LU factorisation with partial pivoting",
    ),
    TaskSignature(
        name="triangular_solve",
        library="matrix",
        n_in_ports=2,
        n_out_ports=1,
        base_comp_size=1.5,
        base_memory_mb=16,
        comm_size_mb=0.5,
        fn=triangular_solve,
        description="Solve LUx = b from a factorisation",
    ),
    TaskSignature(
        name="matrix_multiply",
        library="matrix",
        n_in_ports=2,
        n_out_ports=1,
        base_comp_size=20.0,
        base_memory_mb=48,
        comm_size_mb=4.0,
        parallel=ParallelModel(overhead=0.04),
        fn=matrix_multiply,
        description="Dense matrix-matrix / matrix-vector product",
    ),
    TaskSignature(
        name="matrix_add",
        library="matrix",
        n_in_ports=2,
        n_out_ports=1,
        base_comp_size=0.5,
        base_memory_mb=24,
        comm_size_mb=4.0,
        parallel=ParallelModel(overhead=0.01),
        fn=matrix_add,
        description="Elementwise matrix addition",
    ),
    TaskSignature(
        name="transpose",
        library="matrix",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=0.3,
        base_memory_mb=24,
        comm_size_mb=4.0,
        fn=transpose,
        description="Matrix transpose",
    ),
    TaskSignature(
        name="residual_norm",
        library="matrix",
        n_in_ports=3,
        n_out_ports=1,
        base_comp_size=1.0,
        base_memory_mb=16,
        comm_size_mb=0.01,
        fn=residual_norm,
        description="Residual norm ||Ax - b|| (verification)",
    ),
    TaskSignature(
        name="cholesky",
        library="matrix",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=6.0,
        base_memory_mb=32,
        comm_size_mb=4.0,
        parallel=ParallelModel(overhead=0.08),
        fn=cholesky,
        description="Cholesky factorisation of an SPD matrix",
    ),
    TaskSignature(
        name="qr_decomposition",
        library="matrix",
        n_in_ports=1,
        n_out_ports=2,
        base_comp_size=16.0,
        base_memory_mb=48,
        comm_size_mb=4.0,
        parallel=ParallelModel(overhead=0.10),
        fn=qr_decomposition,
        description="QR factorisation",
    ),
]
