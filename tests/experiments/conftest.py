import functools

import pytest

from repro.experiments import EXPERIMENTS


@pytest.fixture(scope="session")
def measured():
    """id -> the experiment's tables: each experiment runs once a session,
    for the EXPERIMENTS.md check and the shape asserts alike."""
    return functools.lru_cache(maxsize=None)(
        lambda exp_id: EXPERIMENTS[exp_id].tables())
