"""A counter family is unlabelled or labelled, never both.

``RuntimeStats.export_to`` writes every stats field as an unlabelled
``vdce_<field>_total``.  A call site that counts the same thing per
group or per host into that family as well makes Prometheus ``sum()``
report each event twice, so it keeps its own ``*_by_group_total`` /
``*_by_host_total`` family.  The smoke campaign fails a Group Manager
over and the slowdown campaign launches speculative backups, so both
labelled families are non-zero here.
"""

import pytest

from repro.sim.chaos import _play, preset


@pytest.mark.parametrize("name", ["smoke", "slowdown-smoke"])
def test_no_counter_family_mixes_an_unlabelled_total_with_labels(name):
    vdce, _run = _play(preset(name, 0))
    counters = vdce.metrics_snapshot()["counters"]
    mixed = {
        family: sorted(entry["values"])
        for family, entry in counters.items()
        if "" in entry["values"] and len(entry["values"]) > 1
    }
    assert mixed == {}
    labelled = {
        "smoke": "vdce_failovers_by_group_total",
        "slowdown-smoke": "vdce_speculative_launches_by_host_total",
    }[name]
    assert sum(counters[labelled]["values"].values()) > 0
