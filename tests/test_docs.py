"""README's "Command line" section names every command, flag and exit code the CLI has,
and every module attribute README names, such as `graph.LabelAdjacency`, exists."""

import argparse
import importlib
import re
from pathlib import Path

from dgn import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_section(text):
    """The text of README's ``## Command line`` section, up to the next ``## `` heading."""
    return re.search(r"^## Command line\n(.*?)(?=^## )", text, re.S | re.M).group(1)


def cli_surface():
    """{subcommand: its ``--flag`` spellings} as ``cli._build_parser()`` defines them, help left out."""
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            flag
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
            if flag.startswith("--")
        }
        for name, parser in sub.choices.items()
    }


def exit_code_sentence():
    """The ``cli`` module docstring's "Exit codes: 0 success, ... failure." on one line."""
    return " ".join(re.search(r"Exit codes:.*?\.(?=\s)", cli.__doc__, re.S).group(0).split())


def undocumented(section):
    """The commands and flags that ``section`` does not name, and the exit-code sentence if it lacks it."""
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    missing = []
    for name, flags in cli_surface().items():
        if f"dgn {name}" not in section:
            missing.append(f"dgn {name}")
        missing += sorted(flags - named)
    if exit_code_sentence() not in " ".join(section.split()):
        missing.append(exit_code_sentence())
    return missing


def test_cli_docstring_states_exit_codes_0_to_3():
    assert re.findall(r"\b(\d) [a-z]", exit_code_sentence()) == ["0", "1", "2", "3"]


def test_readme_names_every_command_flag_and_exit_code():
    assert undocumented(command_line_section(README.read_text())) == []


def test_a_flag_deleted_from_readme_is_caught():
    section = command_line_section(README.read_text())
    assert undocumented(section.replace("--hidden-dim", "")) == ["--hidden-dim"]
    assert undocumented(section.replace("dgn inspect", "")) == ["dgn inspect"]


MODULES = ("graph", "nn", "model", "corpus", "prototype", "fileio", "oracle", "cli")
# `module.name` at the start of a name, not the `graph.py` of a file path
MODULE_NAME = re.compile(rf"(?<![\w/.])({'|'.join(MODULES)})\.(?!py\b)(\w+(?:\.\w+)*)")


def unresolved_names(text):
    """The ``module.name`` spellings in ``text``'s backtick spans that are no attribute of ``dgn.module``."""
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        for module, dotted in MODULE_NAME.findall(span):
            target = importlib.import_module(f"dgn.{module}")
            for attr in dotted.split("."):
                if not hasattr(target, attr):
                    missing.append(f"{module}.{dotted}")
                    break
                target = getattr(target, attr)
    return missing


def test_every_module_name_in_readme_exists():
    assert unresolved_names(README.read_text()) == []


def test_a_name_deleted_from_the_code_is_caught():
    text = README.read_text()
    assert "`graph.LabelAdjacency`" in text
    renamed = text.replace("`graph.LabelAdjacency`", "`graph.DenseAdjacency`", 1)
    assert unresolved_names(renamed) == ["graph.DenseAdjacency"]
    assert unresolved_names("`nn.backward(model)` and `model.TrainConfig.lr`") == []
    assert unresolved_names("`model.TrainConfig.rate`, `src/dgn/graph.py`, `graph.py`") == [
        "model.TrainConfig.rate"
    ]
