"""Run Python in a child process, or the ``dgn`` CLI in this one, against this checkout's sources."""

import contextlib
import io
import os
import subprocess
import sys
import traceback
from pathlib import Path

from dgn import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args, cwd=None):
    """Run ``python *args`` with ``src`` first on the child's ``PYTHONPATH``.

    Warnings are errors in the child, as pytest makes them in process, so a
    numeric warning in a command fails its test instead of scrolling past.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=SRC if not path else f"{SRC}{os.pathsep}{path}",
        PYTHONWARNINGS="error",
    )
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, cwd=cwd, env=env
    )


def run_cli(*args):
    """Run ``dgn *args`` through ``cli.main`` in this process, as ``python -m dgn`` would.

    Returns a ``CompletedProcess`` with the exit status, from ``main``'s
    return value or from ``SystemExit``, and the captured stdout and
    stderr.  An uncaught exception leaves its traceback on stderr and exit
    status 1, as the interpreter gives them.  The suite's
    ``filterwarnings = error`` makes warnings errors, as the child's
    ``PYTHONWARNINGS=error`` does.
    """
    argv = [str(a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return subprocess.CompletedProcess(["dgn", *argv], code, out.getvalue(), err.getvalue())
