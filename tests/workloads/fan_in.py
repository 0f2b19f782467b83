"""Random DAGs at a fan-in other than the generator's constant.

``repro.workloads.random_dag`` samples at most ``_MAX_FAN_IN`` parents
per task; the property tests draw that bound too, and this sets it for
one generation.
"""

import importlib

import pytest

from repro.workloads import random_dag

GENERATOR = importlib.import_module("repro.workloads.random_dag")


def random_dag_at(config, max_fan_in):
    """``random_dag(config)`` with ``_MAX_FAN_IN`` at ``max_fan_in``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GENERATOR, "_MAX_FAN_IN", max_fan_in)
        return random_dag(config)
