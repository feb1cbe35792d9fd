"""Every demo runs to completion against this checkout's sources."""

from pathlib import Path

import pytest

from tests.helpers import run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    result = run_python(demo)
    assert result.returncode == 0, result.stderr
