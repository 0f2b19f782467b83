"""The scenario pins: three fixed-seed runs reproduce their hashes.

``src/`` has one path per algorithm and no switch to compare against, so
this is what says a change to host selection, the site scheduler, the
kernel or the monitor/echo bookkeeping left behaviour alone: each
scenario of ``benchmarks/harness.py`` reproduces its trace and metrics
hashes, kernel event count and scheduled tasks (``scenario:<name>`` in
``tests/pins.json``).
"""

import pytest

from benchmarks import harness


@pytest.mark.parametrize("name", list(harness.SCENARIOS))
def test_a_scenario_reproduces_its_pins(name, pin):
    pin(f"scenario:{name}", **harness.run_scenario(name))
