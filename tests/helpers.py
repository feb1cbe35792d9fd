"""Run Python in a child process, or the ``dgn`` CLI in this one, against this
checkout's sources; build the dense adjacency that a label-space graph stands for;
build a graph-mode model from its parameter blocks and take its loss and its
gradients, for the gradient checks."""

import contextlib
import io
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

from dgn import cli
from dgn import model as md
from dgn import nn, oracle
from dgn.model import AblationMode

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


def dense_adjacency(semantics, prototype):
    """The n x n adjacency over the node ids ``semantics``, built from the prototype.

    The label-space graph holds no n x n matrix; this is the one place the
    tests build it, to check the graph and to feed the scalar-loop oracles.
    It is the oracle's scalar-loop definition, so no check of graph.py
    takes graph.py's own dense code.
    """
    return oracle.naive_adjacency(semantics, prototype)


def model_of(mode, lam, classes, blocks):
    """The graph-mode model of ``mode`` made of the five ``blocks``, in ``DgnModel.blocks()`` order.

    The blocks are used, not copied.  ``lam`` weights the auxiliary loss in
    the full mode; every other mode has lam 0, as ``model.init_model`` gives.
    """
    c, d = blocks[0].shape
    return md.DgnModel(
        mode, c, d, classes, lam if mode is AblationMode.FULL else 0.0,
        nn.ClassifierParams(blocks[1], blocks[2]),
        gc_weight=blocks[0], aux_head=nn.ClassifierParams(blocks[3], blocks[4]),
    )


def loss_and_record(model, graph, target):
    """The training loss of ``model`` on one graph, ``loss_main + lam * loss_aux``, and its record."""
    record = md.forward_parts(model, graph)
    loss_aux = 0.0 if record.aux_logits is None else nn.softmax_ce(record.aux_logits, target)
    return md.total_loss(nn.softmax_ce(record.main_logits, target), loss_aux, model.lam), record


def gradients(model, record, target):
    """The gradients of one instance: ``nn.backward`` of ``record`` into zeros.

    One array per block of ``model.blocks()``, in that order; the aux head's
    blocks only when the record ran it.  Each entry is ``0.0 + g`` for the
    gradient ``g``, so a gradient's ``-0.0`` reads ``+0.0``.
    """
    sums = [np.zeros_like(p) for p in model.blocks(aux=record.aux_logits is not None)]
    nn.backward(model, record, target, sums)
    return sums
