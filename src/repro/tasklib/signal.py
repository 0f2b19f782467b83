"""The signal-processing library — the "etc." of paper §2's library list.

The Application Editor's palettes are extensible ("task libraries that
are grouped in terms of their functionality, such as the matrix algebra
library, C3I ... library, etc.").  This library supplies the classic
radar/communications DSP chain — synthesis, filtering, spectral
analysis, detection — with real numpy/scipy implementations, sized by
``workload_scale`` (scale 1.0 = 16384 samples).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.tasklib.base import ParallelModel, TaskSignature

__all__ = ["SIGNATURES", "BASE_SAMPLES"]

#: samples per frame at workload_scale == 1.0
BASE_SAMPLES = 16384

#: normalised frequencies of the synthetic tones (cycles/sample)
_TONES = (0.05, 0.12, 0.31)


def _n_samples(scale: float) -> int:
    return max(64, int(round(BASE_SAMPLES * scale)))


def synthesize(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Generate a noisy multi-tone test signal (deterministic per size)."""
    import numpy as np

    n = _n_samples(scale)
    rng = np.random.default_rng(n)
    t = np.arange(n, dtype=float)
    clean = sum(np.sin(2.0 * np.pi * f * t) for f in _TONES)
    noisy = clean + 0.8 * rng.standard_normal(n)
    return [noisy]


def lowpass_filter(inputs: Sequence[Any], scale: float) -> List[Any]:
    """4th-order Butterworth low-pass at 0.2 cycles/sample."""
    import numpy as np
    import scipy.signal

    signal = np.asarray(inputs[0], dtype=float)
    b, a = scipy.signal.butter(4, 0.4)  # 0.2 cycles/sample = 0.4 Nyquist
    return [scipy.signal.filtfilt(b, a, signal)]


def spectrum(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Welch power spectral density estimate."""
    import numpy as np
    import scipy.signal

    signal = np.asarray(inputs[0], dtype=float)
    nperseg = min(1024, len(signal))
    freqs, psd = scipy.signal.welch(signal, nperseg=nperseg)
    return [np.vstack([freqs, psd])]


def detect_peaks(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Peak frequencies from a PSD, strongest first."""
    import numpy as np
    import scipy.signal

    spec = np.asarray(inputs[0], dtype=float)
    freqs, psd = spec[0], spec[1]
    indices, _ = scipy.signal.find_peaks(psd, prominence=psd.max() * 0.05)
    order = np.argsort(-psd[indices])
    return [freqs[indices][order]]


def correlate_frames(inputs: Sequence[Any], scale: float) -> List[Any]:
    """Normalised cross-correlation peak between two frames (lag, value)."""
    import numpy as np
    import scipy.signal

    a = np.asarray(inputs[0], dtype=float)
    b = np.asarray(inputs[1], dtype=float)
    a = (a - a.mean()) / (a.std() + 1e-12)
    b = (b - b.mean()) / (b.std() + 1e-12)
    corr = scipy.signal.correlate(a, b, mode="full") / min(len(a), len(b))
    lag = int(np.argmax(corr)) - (len(b) - 1)
    return [(lag, float(corr.max()))]


def decimate(inputs: Sequence[Any], scale: float) -> List[Any]:
    """8x decimation with anti-aliasing."""
    import numpy as np
    import scipy.signal

    signal = np.asarray(inputs[0], dtype=float)
    return [scipy.signal.decimate(signal, 8)]


SIGNATURES = [
    TaskSignature(
        name="synthesize",
        library="signal",
        n_in_ports=0,
        n_out_ports=1,
        base_comp_size=1.5,
        base_memory_mb=8,
        comm_size_mb=0.5,
        fn=synthesize,
        description="Noisy multi-tone test signal",
    ),
    TaskSignature(
        name="lowpass_filter",
        library="signal",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=4.0,
        base_memory_mb=16,
        comm_size_mb=0.5,
        parallel=ParallelModel(overhead=0.02),
        fn=lowpass_filter,
        description="Zero-phase Butterworth low-pass",
    ),
    TaskSignature(
        name="spectrum",
        library="signal",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=6.0,
        base_memory_mb=24,
        comm_size_mb=0.1,
        parallel=ParallelModel(overhead=0.05),
        fn=spectrum,
        description="Welch PSD estimate",
    ),
    TaskSignature(
        name="detect_peaks",
        library="signal",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=1.0,
        base_memory_mb=8,
        comm_size_mb=0.01,
        fn=detect_peaks,
        description="Spectral peak detection",
    ),
    TaskSignature(
        name="correlate_frames",
        library="signal",
        n_in_ports=2,
        n_out_ports=1,
        base_comp_size=8.0,
        base_memory_mb=24,
        comm_size_mb=0.01,
        parallel=ParallelModel(overhead=0.06),
        fn=correlate_frames,
        description="Cross-correlation lag estimate",
    ),
    TaskSignature(
        name="decimate",
        library="signal",
        n_in_ports=1,
        n_out_ports=1,
        base_comp_size=2.0,
        base_memory_mb=12,
        comm_size_mb=0.0625,
        fn=decimate,
        description="8x anti-aliased decimation",
    ),
]
