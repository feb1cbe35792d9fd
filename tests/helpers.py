"""Child-process helpers: run Python or the ``dgn`` CLI against this checkout's sources."""

import os
import subprocess
import sys
from pathlib import Path

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


def run_cli(*args, cwd=None):
    return run_python("-m", "dgn", *args, cwd=cwd)
