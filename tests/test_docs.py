"""The repository's own documents: the CI workflows parse and run Tier-1, and README's library tour stays short."""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
WORKFLOWS = sorted((ROOT / ".github" / "workflows").glob("*.yml"))
TOUR_WORDS, ROW_WORDS = 1500, 80


def test_workflows_found():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_workflow_parses(path):
    # a plain-scalar step name holding ": " breaks the whole file, and GitHub then runs none of its jobs
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(path.read_text())
    for job in doc["jobs"].values():
        assert all("run" in step or "uses" in step for step in job["steps"])


def test_ci_runs_the_tier1_command():
    # the suite is the one home of every check: CI installs, runs the console script and runs Tier-1
    yaml = pytest.importorskip("yaml")
    command = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(), re.M).group(1)
    steps = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())["jobs"]["tests"]["steps"]
    assert [step.get("name") for step in steps] == [None, None, "Install", "Entry point", "Tier-1 tests"]
    assert steps[-1]["run"].startswith(command + " ")


def tour() -> str:
    """README from ``## Library tour`` to the end of the file."""
    text = (ROOT / "README.md").read_text()
    return text[text.index("## Library tour"):]


def test_readme_tour_is_short():
    # the tour points at each module's docstring, the one home of its design
    rows = [line for line in tour().splitlines() if line.startswith("| `colorgraph.")]
    assert len(rows) >= 9
    long_rows = {row.split("`")[1]: len(row.split()) for row in rows if len(row.split()) > ROW_WORDS}
    assert not long_rows, f"tour rows over {ROW_WORDS} words: {long_rows}"
    assert len(tour().split()) < TOUR_WORDS
