"""Reference echo loop: every member's echo goes through a full round.

``GroupManager._echo_loop`` used to read every member's echo through
the detector (``_echo_round``), which emitted one ``echo`` event each —
a quiet one (answered in time after an answer, no reset between) as
much as any other.  That loop lives on here as the oracle the loop in
``src/`` is compared against (``test_echo_round_equivalence.py``):
under :func:`every_echo_traced` a Group Manager's echo process runs it.
It draws the same loss stream, counts the same ``RuntimeStats`` and
per-group totals, and feeds the brownout controller the same occupancy.
"""

from contextlib import contextmanager

from repro.runtime.group_manager import GroupManager
from repro.runtime.overload import _SATURATION_LOAD, NULL_BROWNOUT
from repro.sim.kernel import Timeout


def _echo_loop(self, generation: int):
    rng = None  # echo:{gm}, taken on the first lossy echo
    while True:
        yield Timeout(self.echo_period_s)
        if generation != self._generation:
            return  # crashed (or failed over) since our last tick
        self.stats.echo_packets += len(self.group)
        self.echoes += len(self.group)
        for host in self.group:
            responded = host.is_up()
            if responded and self.echo_loss_prob > 0.0:
                if rng is None:
                    rng = self.sim.rng(f"echo:{self.name}")
                if float(rng.uniform()) < self.echo_loss_prob:
                    responded = False  # packet lost, host fine
            rtt_s = 2.0 * self.lan_latency_s * max(1.0, host.slowdown)
            self._echo_round(host, responded, rtt_s)
        if self.site_manager.brownout is not NULL_BROWNOUT and self.alive:
            loads = [
                h.load_average() for h in self.group
                if self._believed_up[h.name]
            ]
            occupancy = (
                (sum(loads) / len(loads)) / _SATURATION_LOAD
                if loads else 0.0
            )
            self.site_manager.receive_occupancy(self.name, occupancy)


@contextmanager
def every_echo_traced():
    """Within the body, every Group Manager echoes through the reference."""
    original = GroupManager._echo_loop
    GroupManager._echo_loop = _echo_loop
    try:
        yield
    finally:
        GroupManager._echo_loop = original
