"""The two echo disciplines, driven directly — no Group Manager, no kernel.

``PhiAccrualDetector``'s arithmetic is pinned in ``test_phi_detector.py``;
these are the rounds around it (and around the miss counter), fed
hand-written echo sequences: ``round(host, responded, rtt_s, now,
believed_up)`` in, :class:`EchoVerdict` out.  The caller owns the
belief, as the Group Manager does.
"""

import math

import pytest

from repro.runtime.straggler import (
    CountEchoDetector,
    EchoVerdict,
    PhiEchoDetector,
)

RTT = 0.001
_LN10 = math.log(10.0)


def drive(detector, echoes, period=1.0, believed=True):
    """Feed one host's ``(responded, rtt_s)`` echoes, one per period."""
    verdicts = []
    for i, (responded, rtt_s) in enumerate(echoes, start=1):
        verdict = detector.round("a1", responded, rtt_s, i * period, believed)
        if verdict.transition in ("down", "up"):
            believed = verdict.transition == "up"
        verdicts.append(verdict)
    return verdicts


def transitions(verdicts):
    return [v.transition for v in verdicts]


class TestCountEchoDetector:
    def test_down_after_threshold_consecutive_misses(self):
        detector = CountEchoDetector(3, hosts=["a1"])
        verdicts = drive(detector, [(False, RTT)] * 4)
        assert transitions(verdicts) == [None, None, "down", None]
        assert verdicts[2] == EchoVerdict(False, "down")  # no evidence, no charge

    def test_an_answer_resets_the_count(self):
        detector = CountEchoDetector(2, hosts=["a1"])
        echoes = [(False, RTT), (True, RTT)] * 3
        assert transitions(drive(detector, echoes)) == [None] * 6
        assert detector.missed["a1"] == 0
        # however slow, an answer within the round is an answer
        patient = CountEchoDetector(1, hosts=["a1"])
        assert drive(patient, [(True, 20 * RTT)]) == [EchoVerdict(True)]

    def test_a_believed_down_host_comes_back_on_its_first_answer(self):
        detector = CountEchoDetector(1, hosts=["a1"])
        verdicts = drive(detector, [(False, RTT), (False, RTT), (True, RTT)])
        assert transitions(verdicts) == ["down", None, "up"]

    def test_membership(self):
        detector = CountEchoDetector(1)
        detector.reset("b1")
        assert detector.missed == {"b1": 0}
        assert not detector.suspects("b1")
        detector.retire("b1")
        detector.retire("never-there")
        assert detector.missed == {}


class TestPhiEchoDetector:
    def detector(self):
        return PhiEchoDetector(1.0, hosts=["a1"])

    def test_a_regular_host_is_never_suspected(self):
        verdicts = drive(self.detector(), [(True, RTT)] * 10)
        assert transitions(verdicts) == [None] * 10
        # phi is read before the round's arrival is recorded: one
        # period of silence over a one-period mean
        assert verdicts[-1].echo["phi"] == pytest.approx(1 / _LN10, rel=1e-2)
        assert verdicts[-1].echo["rtt_s"] == RTT

    def test_trust_suspect_down_recover(self):
        detector = self.detector()
        silence = [(False, RTT)] * 5
        verdicts = drive(detector, [(True, RTT)] * 3 + silence + [(True, RTT)])
        # arrivals at 1, 2, 3 (+rtt); phi at t is (t - 3) / ln 10:
        # >= 1 from t=6 (suspect), >= 2 from t=8 (down); answer at t=9
        assert transitions(verdicts) == [
            None, None, None, None, None, "suspect", None, "down", "up",
        ]
        suspect, down, up = verdicts[5], verdicts[7], verdicts[8]
        assert suspect.penalty == "suspect"
        assert suspect.evidence["phi"] == pytest.approx(3 / _LN10, rel=1e-2)
        assert down.penalty == "declared_down"
        assert down.evidence["phi"] == pytest.approx(5 / _LN10, rel=1e-2)
        assert down.echo == {"rtt_s": None, "phi": down.evidence["phi"]}
        # the history was reset at the declaration: nothing accrued since
        assert up == EchoVerdict(True, "up", {"rtt_s": RTT, "phi": 0.0})
        assert not detector.suspects("a1")

    def test_resumed_arrivals_retrust_a_suspect(self):
        detector = self.detector()
        echoes = [(True, RTT)] * 3 + [(False, RTT)] * 3 + [(True, RTT)] * 2
        verdicts = drive(detector, echoes)
        assert transitions(verdicts) == [
            None, None, None, None, None, "suspect", None, "trust",
        ]
        assert verdicts[-1].penalty is None
        assert not detector.suspects("a1")

    def test_a_late_answer_is_an_arrival_not_a_miss(self):
        # a slowed host answers every round, just late: trusted throughout
        verdicts = drive(self.detector(), [(True, 0.4)] * 12)
        assert transitions(verdicts) == [None] * 12
        assert all(v.responded for v in verdicts)

    def test_silence_while_believed_down_changes_nothing(self):
        verdicts = drive(self.detector(), [(False, RTT)] * 3, believed=False)
        assert transitions(verdicts) == [None] * 3

    def test_membership(self):
        detector = PhiEchoDetector(1.0)
        detector.reset("b1")
        assert detector.round("b1", True, RTT, 1.0, True) == EchoVerdict(
            True, None, {"rtt_s": RTT, "phi": 0.0}
        )
        detector.retire("b1")
        detector.retire("never-there")
        assert not detector.suspects("b1")
