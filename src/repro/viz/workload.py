"""Workload visualisations (paper §4.2): load sparklines.

:func:`workload_sparkline` renders a sampled load series; ``repro
monitor`` samples each host's load average while a simulation runs and
renders one per host.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["workload_sparkline"]

_BLOCKS = " .:-=+*#%@"


def workload_sparkline(samples: Sequence[float], label: str = "",
                       max_value: float | None = None) -> str:
    """One-line load chart: each sample becomes a density character.

    ``max_value`` fixes the scale (default: max of the samples), so
    multiple hosts can be rendered comparably.
    """
    if not samples:
        return f"{label}|" if label else "|"
    if any(s < 0 for s in samples):
        raise ValueError("samples must be non-negative")
    top = max_value if max_value is not None else max(samples)
    if top <= 0:
        body = _BLOCKS[0] * len(samples)
    else:
        body = "".join(
            _BLOCKS[min(len(_BLOCKS) - 1, int(s / top * (len(_BLOCKS) - 1)))]
            for s in samples
        )
    prefix = f"{label} " if label else ""
    return f"{prefix}|{body}| max={top:.2f}"
