"""EXPERIMENTS.md is checked against the experiment registry.

For E1–E15, every fenced block under the experiment's ``**Measured**``
is byte-identical to what ``repro.experiments.render`` makes of its
row function's tables; a mismatch prints the fresh blocks.  The ids of
DESIGN §4, the ``## EN —`` headings of EXPERIMENTS.md and the registry
(with the test-measured E16 and E17) are the same set, under the same
titles.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS, MEASURED_BY_TESTS, render

ROOT = Path(__file__).resolve().parents[2]
HEADING = re.compile(r"^## (E\d+) — (.*)$", re.MULTILINE)


def sections():
    """id -> (title, the section's text up to the next heading or rule)."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    found = {}
    for match in HEADING.finditer(text):
        end = re.compile(r"^(## |---$)", re.MULTILINE).search(
            text, match.end())
        found[match.group(1)] = (match.group(2),
                                 text[match.end():end.start() if end else None])
    return found


def measured_blocks(section: str):
    """The fenced blocks after the section's ``**Measured**``."""
    _, marker, rest = section.partition("**Measured**")
    assert marker, "the section has no **Measured**"
    return re.findall(r"^```\n(.*?)\n```$", rest, re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_the_measured_blocks_are_the_registrys(exp_id, measured):
    fresh = render(measured(exp_id))
    committed = measured_blocks(sections()[exp_id][1])
    assert committed == fresh, (
        f"{exp_id} in EXPERIMENTS.md differs from `repro experiments "
        f"{exp_id}`; the fresh blocks:\n\n"
        + "\n\n".join(f"```\n{block}\n```" for block in fresh))


@pytest.mark.gate
def test_design_experiments_md_and_the_registry_name_the_same_experiments():
    design = (ROOT / "DESIGN.md").read_text()
    index = design[design.index("## 4. "):design.index("## 5. ")]
    design_ids = re.findall(r"^\| (E\d+) \|", index, re.MULTILINE)
    titles = {exp_id: title for exp_id, (title, _) in sections().items()}
    registry = {exp_id: title for exp_id, (title, _) in
                [*EXPERIMENTS.items(), *MEASURED_BY_TESTS.items()]}
    assert sorted(design_ids) == sorted(titles) == sorted(registry)
    assert titles == registry


def test_an_experiment_prints_its_measured_blocks(capsys, measured):
    assert main(["experiments", "E4", "E13"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("E4", "E13"):
        assert f"## {exp_id} — {EXPERIMENTS[exp_id].title}\n" in out
        for block in render(measured(exp_id)):
            assert f"\n{block}\n" in out


@pytest.mark.gate
@pytest.mark.parametrize("argv", [["E99"], ["E2", "E99"]])
def test_an_unknown_id_is_an_error_before_anything_runs(capsys, argv):
    assert main(["experiments", *argv]) == 1
    assert capsys.readouterr().out == "error: unknown experiment E99\n"
