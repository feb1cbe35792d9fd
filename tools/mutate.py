#!/usr/bin/env python3
"""Mutation probe: make one small fault at a time in a source file and see whether a test fails.

    python3 tools/mutate.py src/dgn/nn.py --lines 190-260 --fast "tests/test_nn.py -k backward"

Each mutation point on the chosen lines is an arithmetic operator swapped
(``+`` and ``-``, ``*`` and ``/``, ``**`` to ``*``), a comparison swapped
(``<`` and ``<=``, ``==`` and ``!=``, ``is`` and ``is not``, ...) or a
numeric constant plus one.  Each mutant is written into a copy of the
checkout, where the ``--fast`` tests run first and the whole suite runs on
every mutant they did not kill; a run past ``--timeout`` seconds counts as
killed.  Survivors print as ``file:line old -> new``.  Before the first
mutant, the ``--fast`` tests and then the whole suite run on the unmutated
copy; if either fails (a ``--fast`` string pytest cannot run fails too),
no mutant is made and the probe exits 1, since a test that fails already
would count every mutant as killed.  Not part of the test suite: a file of
a few hundred points takes tens of minutes.
"""

import argparse
import ast
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**", ast.FloorDiv: "//",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.Pow: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", ".bench_*", "__pycache__", ".hypothesis", ".pytest_cache")


def points(tree, lines):
    """(node, field, index or None, old, new, line) for every mutation point on ``lines``."""
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) not in lines:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            yield node, "op", None, node.op, SWAPS[type(node.op)](), node.lineno
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, "ops", i, op, SWAPS[type(op)](), node.lineno
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            yield node, "value", None, node.value, node.value + 1, node.lineno


def show(x):
    return SYMBOLS[type(x)] if isinstance(x, ast.AST) else repr(x)


def run(cwd, tests, timeout):
    """Whether the tests pass on the mutant; a time-out counts as a failure."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file", help="source file, relative to the checkout root")
    parser.add_argument("--lines", default="", help="e.g. 10-40,52; every line by default")
    parser.add_argument("--fast", default="tests", help='pytest arguments of the subset run first, e.g. "tests/test_nn.py -k adam"')
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per test run")
    args = parser.parse_args(argv)
    source = (ROOT / args.file).read_text()
    lines = set()
    for part in filter(None, args.lines.split(",")):
        first, _, last = part.partition("-")
        lines.update(range(int(first), int(last or first) + 1))
    lines = lines or set(range(1, source.count("\n") + 2))
    count = len(list(points(ast.parse(source), lines)))
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        for name, tests in (("the --fast tests", shlex.split(args.fast)), ("the whole suite", [])):
            if not run(copy, tests, args.timeout):
                sys.exit(f"error: {name} failed on the unmutated checkout; no mutant can be judged by them")
        for i in range(count):
            tree = ast.parse(source)
            node, field, index, old, new, line = list(points(tree, lines))[i]
            if index is None:
                setattr(node, field, new)
            else:
                getattr(node, field)[index] = new
            (copy / args.file).write_text(ast.unparse(tree))
            fast = run(copy, shlex.split(args.fast), args.timeout)
            alive = fast and run(copy, [], args.timeout)
            status = "SURVIVED" if alive else "killed by the suite" if fast else "killed by the subset"
            print(f"{i + 1}/{count} {args.file}:{line} {show(old)} -> {show(new)}: {status}", flush=True)
            if alive:
                survivors.append(f"{args.file}:{line} {show(old)} -> {show(new)}")
        (copy / args.file).write_text(source)
    print(f"\n{len(survivors)} of {count} mutants survived")
    print("\n".join(survivors))


if __name__ == "__main__":
    main()
