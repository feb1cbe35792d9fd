"""Artifacts keep their bytes across BLAS thread counts.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when numpy loads it, so each run is
a child process that sets the variable before its first import of numpy.
The children run the narrow criterion-8 pipeline, and a pipeline whose
graphs have 576 nodes, more than one ``nn.TILE_ROWS`` tile, so the tiled
products and the weight gradient's sum over tiles run at both counts.
Every artifact's sha256 must be equal at one thread and at two.
"""

import json
from pathlib import Path

from dgn import nn
from tests.helpers import run_cli, run_python
from tests.test_criterion_8_pins import RUNS, blas_build, criterion_8_digests, sha256, tree_sha256

ROOT = Path(__file__).resolve().parent.parent

# the child's OPENBLAS_NUM_THREADS is set before anything imports numpy
CHILD = """
import json, os, sys
os.environ["OPENBLAS_NUM_THREADS"] = sys.argv[1]
from pathlib import Path
from tests.test_blas_threads import digests
print(json.dumps(digests(Path(sys.argv[2]))))
"""

# 24 x 24 nodes over 32 channels, trained with a 32-wide hidden layer
TILED_CELLS = 24


def tiled_digests(root):
    """Artifact name -> sha256 of a full-mode train and eval on 576-node graphs."""

    def dgn(*args):
        result = run_cli(*args)
        assert result.returncode == 0, result.stderr
        return result.stdout.replace(str(root), "<run>").encode()

    corpus, proto, ckpt = root / "corpus", root / "p.dgnp", root / "full.dgnm"
    dgn(
        "gen", "--classes", 3, "--objects", 10, "--per-class", 4, "--cells", TILED_CELLS,
        "--channels", 32, "--seed", 304, "--out", corpus,
    )
    dgn("iodp", "--manifest", corpus / "train.manifest", "--out", proto)
    dgn(
        "train", "--manifest", corpus / "train.manifest", "--prototype", proto, "--mode", "full",
        "--epochs", 2, "--seed", 304, "--checkpoint", ckpt, "--out", root / "full.trace.csv",
    )
    stdout = dgn(
        "eval", "--manifest", corpus / "test.manifest", "--checkpoint", ckpt, "--prototype", proto,
        "--mode", "full", "--out", root / "full.eval.csv",
    )
    files = sorted(p for p in root.iterdir() if p.is_file())
    return {
        "corpus": tree_sha256(corpus),
        **{p.name: sha256(p.read_bytes()) for p in files},
        "eval stdout": sha256(stdout),
    }


def digests(root):
    """The narrow criterion-8 digests and the tiled pipeline's, each run in its own directory."""
    (root / "narrow").mkdir()
    (root / "tiled").mkdir()
    return {
        "narrow": criterion_8_digests(root / "narrow", *RUNS["narrow"]),
        "tiled": tiled_digests(root / "tiled"),
    }


def test_artifact_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    assert TILED_CELLS**2 > nn.TILE_ROWS
    runs = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads-{threads}"
        root.mkdir()
        child = run_python("-c", CHILD, threads, root, cwd=ROOT)
        assert child.returncode == 0, child.stderr
        runs[threads] = json.loads(child.stdout)
    for name, one in runs["1"].items():
        assert one.keys() == runs["2"][name].keys()
        moved = [artifact for artifact, digest in one.items() if runs["2"][name][artifact] != digest]
        assert not moved, f"{name} run: {', '.join(moved)} differ between 1 and 2 BLAS threads ({blas_build()})"
