"""Smoke tests: every example script must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[path.stem for path in EXAMPLES]
)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, (
        f"{script.name} failed:\n{completed.stderr[-2000:]}"
    )
    assert completed.stdout.strip(), f"{script.name} printed nothing"


def test_expected_examples_present():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart",
        "scheme_design_advisor",
        "query_answering",
        "paper_tour",
        "synthesis_pipeline",
    } <= names
