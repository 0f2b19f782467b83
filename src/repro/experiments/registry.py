"""The experiment registry: id -> (title, tables).

The paper has no tables, so E1–E17 are this reproduction's claims.
E1–E15 are each one row function here: it runs its federations and
returns its tables, each a list of rows.  ``render`` turns them into
the fenced blocks under the experiment's **Measured** in
EXPERIMENTS.md, and ``tests/experiments`` checks that file against it
byte for byte.  A table holds virtual-time values and counts only; the
simulator's wall-clock cost is ``python -m bench``'s (DESIGN §13.3).
E16 and E17 are measured by the tests named in ``MEASURED_BY_TESTS``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.experiments import periphery, placement, runtime
from repro.experiments.placement import Rows
from repro.metrics.tables import format_table

__all__ = ["EXPERIMENTS", "Experiment", "MEASURED_BY_TESTS", "render"]


class Experiment(NamedTuple):
    #: the experiment's heading in EXPERIMENTS.md, after "EN — "
    title: str
    tables: Callable[[], List[Rows]]


EXPERIMENTS: Dict[str, Experiment] = {
    "E1": Experiment("Figure 1: the Linear Equation Solver", placement.e1),
    "E2": Experiment("Figure 2: the site scheduler vs. baselines",
                     placement.e2),
    "E3": Experiment("Figure 3: prediction-driven host selection",
                     placement.e3),
    "E4": Experiment("locality: scheduling within nearest-neighbour sites",
                     placement.e4),
    "E5": Experiment("Figure 4: the significant-change monitoring filter",
                     runtime.e5),
    "E6": Experiment("echo-packet failure detection", runtime.e6),
    "E7": Experiment("load-threshold task rescheduling", runtime.e7),
    "E8": Experiment("the Data Manager over real TCP sockets",
                     periphery.e8),
    "E9": Experiment("ablation: level priority vs. FIFO ready order",
                     placement.e9),
    "E10": Experiment("prediction accuracy sensitivity + the calibration "
                      "loop", placement.e10),
    "E11": Experiment("scaling to several geographically distributed sites",
                      placement.e11),
    "E12": Experiment("end-to-end pipeline breakdown", runtime.e12),
    "E13": Experiment("ablation of the reproduction's one algorithmic "
                      "interpolation", placement.e13),
    "E14": Experiment("the distributed shared memory model (§5 future "
                      "work)", periphery.e14),
    "E15": Experiment("straggler defense: speculation under a scripted "
                      "slowdown", runtime.e15),
}

#: id -> (title, the test that measures and asserts its table)
MEASURED_BY_TESTS: Dict[str, Tuple[str, str]] = {
    "E16": ("data-plane integrity: what repair costs",
            "tests/runtime/test_integrity.py"),
    "E17": ("elastic membership: what a graceful drain buys",
            "tests/runtime/test_membership_runtime.py::TestDrainPrices"),
}


def render(tables: List[Rows]) -> List[str]:
    """Each table as its fenced block's body in EXPERIMENTS.md."""
    return [format_table(rows) for rows in tables]
