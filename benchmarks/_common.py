"""Shared helpers for the experiment benches (E1-E12).

Each bench module regenerates one experiment from DESIGN.md §4: it
prints the experiment's table (captured into EXPERIMENTS.md) and
asserts the *shape* the paper's design predicts, so regressions in the
scheduler/runtime break the bench, not just the numbers.  A bench
builds a bare ``VDCERuntime`` over ``DeploymentSpec.grid(...)
.build_topology()`` or ``star_topology(...)``.
"""

from __future__ import annotations


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def execute(runtime, afg, table, **kwargs):
    """Run ``afg`` as ``table`` placed it, to completion; the result."""
    return runtime.sim.run_until_complete(
        runtime.execute_process(afg, table, **kwargs))
