import os
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

# make tests/synth.py importable from any test module
sys.path.insert(0, str(Path(__file__).parent))
# tests that run `python -m retweet_reg.cli` in a child process import the
# package from this checkout too, as pyproject's pythonpath does in-process
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def fixture_tsv() -> Path:
    return FIXTURES / "tweets_120.tsv"


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def criterion(request):
    """Record one acceptance line, echoed in the terminal summary."""

    def record(name: str, passed: bool, detail: str) -> None:
        word = "PASS" if passed else "FAIL"
        request.config._criterion_lines.append(f"{word}  {name}: {detail}")

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
