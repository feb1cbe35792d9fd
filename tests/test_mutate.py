"""``tools/mutate.py`` judges mutants only by tests that pass on the unmutated checkout.

Its ``run`` is replaced by a stub that records what each test run would
have run and read, so no pytest child process starts.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TARGET = "src/dgn/nn.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def probe(monkeypatch, passes, runs):
    """Run the probe over the line of ``TARGET`` that sets ``TILE_ROWS``, one mutation point.

    ``passes(i)`` is whether the ``i``-th test run passes; ``runs`` gets
    the ``(pytest arguments, TARGET's text)`` of every run.
    """
    mutate = load_tool()

    def run(cwd, tests, timeout):
        runs.append((tests, (Path(cwd) / TARGET).read_text()))
        return passes(len(runs) - 1)

    monkeypatch.setattr(mutate, "run", run)
    lines = (ROOT / TARGET).read_text().splitlines()
    line = next(i for i, text in enumerate(lines, 1) if text.startswith("TILE_ROWS = "))
    mutate.main([TARGET, "--lines", str(line), "--fast", "tests/test_nn.py -k tile"])


FAST = ["tests/test_nn.py", "-k", "tile"]


@pytest.mark.parametrize("failing, name", [(0, "--fast tests"), (1, "whole suite")])
def test_a_failure_on_the_unmutated_checkout_makes_no_mutant(failing, name, monkeypatch, capsys):
    runs = []
    with pytest.raises(SystemExit) as exited:
        probe(monkeypatch, lambda i: i != failing, runs)
    assert str(exited.value.code).startswith(f"error: the {name} failed on the unmutated checkout")
    # the failing run was the last, and every run read the unmutated source
    assert [tests for tests, _ in runs] == [FAST, []][: failing + 1]
    assert all(text == (ROOT / TARGET).read_text() for _, text in runs)
    assert capsys.readouterr().out == ""


def test_the_mutants_run_after_the_unmutated_checkout_passes(monkeypatch, capsys):
    runs = []
    probe(monkeypatch, lambda i: True, runs)
    source = (ROOT / TARGET).read_text()
    assert [tests for tests, _ in runs] == [FAST, [], FAST, []]
    assert [text == source for _, text in runs] == [True, True, False, False]
    assert "TILE_ROWS = 513" in runs[2][1]
    assert "1 of 1 mutants survived" in capsys.readouterr().out
