"""The pin table: every behaviour pin of the suite, one file, one fixture.

``tests/pins.json`` maps an entry name (``campaign:smoke:0``,
``scenario:end_to_end``, ``recovery:stage_outage_retried``,
``preset:smoke``) to the values a gate computed when the entry was last
written: trace, metrics and campaign hashes, config digests, counts.
A gate calls ``pin(name, **values)``; by default that asserts the values
are the committed ones.  ``pytest --write-pins`` records instead, and at
the end of the session rewrites the entries the session checked — only
at a commit whose behaviour change is intended, never to make a gate
pass.

A run of the whole suite also fails on an entry no test checked: a pin
nothing reproduces is not a gate.
"""

import json
from pathlib import Path

import pytest

PINS = Path(__file__).with_name("pins.json")
REGENERATE = "PYTHONPATH=src python -m pytest --write-pins"

_TABLE = pytest.StashKey()
_DESELECTED = pytest.StashKey()
_UNCHECKED = pytest.StashKey()


def pytest_addoption(parser):
    parser.addoption(
        "--write-pins", action="store_true",
        help="rewrite the tests/pins.json entries this session checks "
             "from the values it computes",
    )


class PinTable:
    """The committed entries plus what this session computed."""

    def __init__(self, write: bool):
        self.write = write
        self.committed = json.loads(PINS.read_text())
        self.checked = {}

    def __call__(self, name: str, **values) -> None:
        self.checked[name] = values
        if self.write:
            return
        committed = self.committed.get(name)
        if committed is None:
            pytest.fail(f"pin {name!r} is not in tests/pins.json; add it "
                        f"with {REGENERATE}", pytrace=False)
        mismatches = [
            f"  {field}: committed {committed.get(field)!r}, "
            f"now {values.get(field)!r}"
            for field in sorted(committed.keys() | values.keys())
            if committed.get(field) != values.get(field)
        ]
        if mismatches:
            pytest.fail(
                f"pin {name!r} moved:\n" + "\n".join(mismatches)
                + "\nan intended behaviour change regenerates tests/pins.json "
                  f"with {REGENERATE}",
                pytrace=False,
            )

    def save(self) -> None:
        entries = {**self.committed, **self.checked}
        text = json.dumps(entries, indent=2, sort_keys=True) + "\n"
        if text != PINS.read_text():
            PINS.write_text(text)


def pytest_configure(config):
    config.stash[_TABLE] = PinTable(config.getoption("--write-pins"))
    config.stash[_DESELECTED] = False


def pytest_deselected(items):
    if items:
        items[0].config.stash[_DESELECTED] = True


@pytest.fixture(scope="session")
def pin(pytestconfig):
    """``pin(name, **values)``: assert (or, under ``--write-pins``,
    record) one entry of ``tests/pins.json``."""
    return pytestconfig.stash[_TABLE]


def _whole_suite(config) -> bool:
    """Did this session collect every test under ``tests/``?"""
    if config.stash[_DESELECTED] or config.option.collectonly:
        return False
    here = Path(__file__).parent
    for arg in config.args:
        if "::" in arg:
            continue
        path = (config.invocation_params.dir / arg).resolve()
        if path == here or path in here.parents:
            return True
    return False


def pytest_sessionfinish(session, exitstatus):
    table = session.config.stash[_TABLE]
    if table.write:
        table.save()
    elif exitstatus == pytest.ExitCode.OK and _whole_suite(session.config):
        unchecked = sorted(table.committed.keys() - table.checked.keys())
        if unchecked:
            session.config.stash[_UNCHECKED] = unchecked
            session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    unchecked = config.stash.get(_UNCHECKED, [])
    if unchecked:
        terminalreporter.section("unchecked pins", red=True)
        terminalreporter.write_line(
            "no test checked these tests/pins.json entries (remove them, "
            "or add the gate that pins them):"
        )
        for name in unchecked:
            terminalreporter.write_line(f"  {name}")
