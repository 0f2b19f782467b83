"""The scenario pins: three fixed-seed runs reproduce their hashes.

``src/`` has one path per algorithm and no switch to compare against, so
this is what says a change to host selection, the site scheduler, the
kernel or the monitor/echo bookkeeping left behaviour alone: each of
``repro.core.scenario.SCENARIOS`` reproduces its trace and metrics
hashes, kernel event count and scheduled tasks (``scenario:<name>`` in
``tests/pins.json``).
"""

import pytest

from repro.core.scenario import SCENARIOS, run
from repro.metrics.registry import MetricsRegistry
from repro.trace.serialize import trace_hash
from repro.trace.tracer import Tracer

pytestmark = pytest.mark.gate


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_scenario_reproduces_its_pins(name, pin):
    """One instrumented pass: the oracle hashes and the two counts that
    size the run, nothing about how long it took."""
    scenario, tracer, metrics = SCENARIOS[name], Tracer(), MetricsRegistry()
    rt, result = run(scenario, tracer, metrics)
    rt.export_metrics()
    pin(f"scenario:{name}", trace=trace_hash(tracer),
        metrics=metrics.snapshot_hash(), sim_events=rt.sim.events_processed,
        tasks_scheduled=len(result.records if scenario.executed else result))
