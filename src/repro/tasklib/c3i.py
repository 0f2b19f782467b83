"""The C3I library — command, control, communication and intelligence.

The paper's project was funded by Rome Laboratory and lists a "C3I
(command and control applications) library" as an editor palette.  The
actual Rome Lab applications are not public, so this library implements
the canonical C3I processing pipeline stages with synthetic but real
computations: sensor sweeps produce contact reports, tracking filters
smooth them, correlation fuses multi-sensor tracks, threat assessment
scores them, and a display formatter renders the picture.  DAG shapes
built from these stages (see :mod:`repro.workloads.c3i_apps`) have the
fan-in/fan-out structure that makes distributed scheduling interesting.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.tasklib.base import ParallelModel, TaskSignature

__all__ = ["SIGNATURES", "BASE_CONTACTS"]

#: contacts per sensor sweep at workload_scale == 1.0
BASE_CONTACTS = 64


def _n_contacts(scale: float) -> int:
    return max(4, int(round(BASE_CONTACTS * scale)))


def sensor_sweep(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Produce one radar sweep: rows of (x, y, vx, vy, snr)."""
    import numpy as np

    n = _n_contacts(scale)
    rng = np.random.default_rng(n)
    positions = rng.uniform(-100.0, 100.0, size=(n, 2))
    velocities = rng.uniform(-5.0, 5.0, size=(n, 2))
    snr = rng.uniform(1.0, 30.0, size=(n, 1))
    return [np.hstack([positions, velocities, snr])]


def track_filter(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Alpha-beta filter pass over a sweep (smooths kinematics)."""
    import numpy as np

    sweep = np.asarray(inputs[0], dtype=float)
    alpha, beta = 0.85, 0.005
    smoothed = sweep.copy()
    predicted = sweep[:, 0:2] + sweep[:, 2:4]
    smoothed[:, 0:2] = predicted + alpha * (sweep[:, 0:2] - predicted)
    smoothed[:, 2:4] = sweep[:, 2:4] + beta * (sweep[:, 0:2] - predicted)
    return [smoothed]


def track_correlation(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Fuse two sensors' track sets by nearest-neighbour gating."""
    import numpy as np

    a = np.asarray(inputs[0], dtype=float)
    b = np.asarray(inputs[1], dtype=float)
    # pairwise position distances; greedy gate at radius 25
    d = np.linalg.norm(a[:, None, 0:2] - b[None, :, 0:2], axis=2)
    fused_rows = []
    used_b: set[int] = set()
    for i in range(a.shape[0]):
        j = int(np.argmin(d[i]))
        if d[i, j] < 25.0 and j not in used_b:
            used_b.add(j)
            fused_rows.append((a[i] + b[j]) / 2.0)
        else:
            fused_rows.append(a[i])
    unmatched = [b[j] for j in range(b.shape[0]) if j not in used_b]
    fused = np.vstack(fused_rows + unmatched) if unmatched else np.vstack(fused_rows)
    return [fused]


def threat_assessment(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Score tracks: closing speed toward the origin weighted by SNR."""
    import numpy as np

    tracks = np.asarray(inputs[0], dtype=float)
    positions, velocities, snr = tracks[:, 0:2], tracks[:, 2:4], tracks[:, 4]
    dist = np.linalg.norm(positions, axis=1) + 1e-9
    closing = -np.sum(positions * velocities, axis=1) / dist
    score = np.clip(closing, 0.0, None) * np.log1p(snr) / (1.0 + dist / 50.0)
    order = np.argsort(-score)
    return [np.hstack([tracks[order], score[order, None]])]


def display_format(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Render the top of the threat picture as display lines."""
    import numpy as np

    assessed = np.asarray(inputs[0], dtype=float)
    lines = [
        f"track {i:03d}: pos=({row[0]:+8.2f},{row[1]:+8.2f}) threat={row[5]:6.3f}"
        for i, row in enumerate(assessed[:10])
    ]
    return ["\n".join(lines)]


def intel_archive(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Summarise a threat picture into archive statistics."""
    import numpy as np

    assessed = np.asarray(inputs[0], dtype=float)
    return [
        {
            "tracks": int(assessed.shape[0]),
            "max_threat": float(assessed[:, 5].max()) if assessed.size else 0.0,
            "mean_threat": float(assessed[:, 5].mean()) if assessed.size else 0.0,
        }
    ]


SIGNATURES = [
    TaskSignature(
        name="sensor_sweep",
        library="c3i",
        n_in_ports=0,
        n_out_ports=1,
        base_comp_size=3.0,
        base_memory_mb=16,
        comm_size_mb=2.0,
        fn=sensor_sweep,
        description="Radar sweep producing contact reports",
    ),
    TaskSignature(
        name="track_filter",
        library="c3i",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=5.0,
        base_memory_mb=24,
        comm_size_mb=2.0,
        parallel=ParallelModel(overhead=0.03),
        fn=track_filter,
        description="Alpha-beta kinematic smoothing",
    ),
    TaskSignature(
        name="track_correlation",
        library="c3i",
        n_in_ports=2,
        n_out_ports=1,
        base_comp_size=9.0,
        base_memory_mb=32,
        comm_size_mb=2.5,
        parallel=ParallelModel(overhead=0.07),
        fn=track_correlation,
        description="Multi-sensor track fusion by gating",
    ),
    TaskSignature(
        name="threat_assessment",
        library="c3i",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=4.0,
        base_memory_mb=16,
        comm_size_mb=2.5,
        fn=threat_assessment,
        description="Threat scoring and ranking",
    ),
    TaskSignature(
        name="display_format",
        library="c3i",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=0.5,
        base_memory_mb=8,
        comm_size_mb=0.05,
        fn=display_format,
        description="Operator display rendering",
    ),
    TaskSignature(
        name="intel_archive",
        library="c3i",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=0.8,
        base_memory_mb=8,
        comm_size_mb=0.01,
        fn=intel_archive,
        description="Archive summary statistics",
    ),
]
