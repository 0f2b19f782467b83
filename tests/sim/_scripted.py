"""Scripted host faults for tests.

The program fails hosts at random (``FailureInjector.start_random``);
tests also need a host to go down, or come back, at an instant they
write down.  ``host_fault`` schedules that through the injector's own
``_apply_host``, the step ``start_random`` takes, so ``injector.log``
stays the ground truth.
"""

from repro.sim.failures import FailureInjector
from repro.sim.host import Host


def host_fault(injector: FailureInjector, host: Host, time: float,
               kind: str = "down") -> None:
    """Take ``host`` down (``kind="up"``: bring it back) at ``time``."""
    assert kind in ("down", "up"), kind
    injector.sim.call_at(time, lambda: injector._apply_host(host, kind))
