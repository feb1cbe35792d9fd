"""Criterion 8's runs keep their bytes: every artifact's sha256 is pinned.

``test_criterion_8_cli_determinism`` compares two runs of one checkout; the
digests below were recorded once, so a change that moves any artifact by
one ulp fails here.  Each run generates a corpus, builds its prototype,
trains the four checkpoints and evaluates each in the modes it supports,
all in process through ``cli.main``.  Checkpoint bytes rest on the BLAS
kernels: the values were recorded with numpy 2.4.6 on OpenBLAS 0.3.31, and
a mismatch prints the build it ran on.  A change that moves these bytes on
purpose re-pins them and lists the old and new digests.
"""

import hashlib

import numpy as np
import pytest

from tests.helpers import run_cli

# (cells, channels): 16 nodes over 8 channels hold label sums, 9 nodes over
# 16 channels do not
RUNS = {"narrow": (4, 8), "wide": (3, 16)}
# checkpoint name -> its train flags and the eval modes that can score it
TRAININGS = {
    "baseline": (["--mode", "baseline"], ("baseline", "eval-only-iodp")),
    "train-eval-iodp": (["--mode", "train-eval-iodp"], ("train-eval-iodp", "full")),
    "full": (["--mode", "full"], ("full", "train-eval-iodp")),
    "full-lambda-0": (["--mode", "full", "--lambda", 0], ("full", "train-eval-iodp")),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def tree_sha256(root):
    """The sha256 over a directory's files in sorted order, each path then its bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def criterion_8_digests(root, cells, channels):
    """Artifact name -> sha256 of one criterion-8 run written under ``root``."""

    def dgn(*args):
        result = run_cli(*args)
        assert result.returncode == 0, result.stderr
        # the run's own directory is not part of what it prints
        return result.stdout.replace(str(root), "<run>").encode()

    corpus, proto = root / "corpus", root / "p.dgnp"
    dgn(
        "gen", "--classes", 3, "--objects", 10, "--per-class", 12, "--cells", cells,
        "--channels", channels, "--noise", 2.0, "--seed", 304, "--out", corpus,
    )
    dgn("iodp", "--manifest", corpus / "train.manifest", "--out", proto)
    digests = {"corpus": tree_sha256(corpus), "prototype": sha256(proto.read_bytes())}
    for name, (flags, _) in TRAININGS.items():
        ckpt, trace = root / f"{name}.dgnm", root / f"{name}.trace.csv"
        dgn(
            "train", "--manifest", corpus / "train.manifest", "--prototype", proto, *flags,
            "--epochs", 5, "--seed", 304, "--checkpoint", ckpt, "--out", trace,
        )
        digests[f"{name} checkpoint"] = sha256(ckpt.read_bytes())
        digests[f"{name} trace"] = sha256(trace.read_bytes())
    for name, (_, modes) in TRAININGS.items():
        for mode in modes:
            report = root / f"{name}.{mode}.csv"
            stdout = dgn(
                "eval", "--manifest", corpus / "test.manifest", "--checkpoint", root / f"{name}.dgnm",
                "--prototype", proto, "--mode", mode, "--out", report,
            )
            digests[f"{name} eval {mode} stdout"] = sha256(stdout)
            digests[f"{name} eval {mode} report"] = sha256(report.read_bytes())
    return digests


# recorded before the cached graphs stopped holding their k x n one-hot
PINNED = {
    "narrow": {
        "corpus": "5ebc3fed172dfe7cb25a3f3d0ebcd748556d1fc3365270e87e15535820985880",
        "prototype": "255d986e9d3de413a8e3402d05b0635921732ac9ccf8bf5d61e7b25f1d9874d5",
        "baseline checkpoint": "21f673ccbd20da3965083a536723c9ff6309ea215a238a1a57d5931a2f38e69c",
        "baseline trace": "e911bcceb15154a4f9c25c714f4a0dae5a8654f5999330ab2dc8a1816664d46c",
        "train-eval-iodp checkpoint": "ce2cfa1375fbb92a8022d4bd566b496ceb41ddfd420844fc5b7c1f17c6563adf",
        "train-eval-iodp trace": "3c49acea9189c6a55c94721f377c9f9c5a96cbdecbe7bf9307c89a6e31403f4c",
        "full checkpoint": "8ca4a836480fe1726f81e59573f8308df9d1946d1eeee669a9f148ff167f07bb",
        "full trace": "2f767c516aa26b52666b881c5f81b14a8363734a860a729e509c8c7ed9532b63",
        "full-lambda-0 checkpoint": "40e0ea4d44804000e29cb1c9327774d3f72e1ff56d594b88f800f6c7bdd6df6c",
        "full-lambda-0 trace": "a5a3af88e946a4ef9c21ddcc9cf9009f5259e3ea0bb4f49f3f4ca56a797eeea7",
        "baseline eval baseline stdout": "77a365cdc36e680a9371250b85d1846de62934051aa1e9fb265dd456988602cf",
        "baseline eval baseline report": "b0ab5bf6c608fef6735a34f089033b4c880f8a82de4da73e58df45c0f7266967",
        "baseline eval eval-only-iodp stdout": "d352f2492ffcee5d0e9cbe6ebaf12ff42672fcfb6bac8a76fb7965e43c65552e",
        "baseline eval eval-only-iodp report": "b0ab5bf6c608fef6735a34f089033b4c880f8a82de4da73e58df45c0f7266967",
        "train-eval-iodp eval train-eval-iodp stdout": "6cf86fa70b0e0463bfcedc66f8b087e100e019d1344da62110b32c96bd293ac4",
        "train-eval-iodp eval train-eval-iodp report": "1aa6a38ee90c1040c3df0c2cb6c9b2b46e52cfa9f9f24ee01dfcf773c1ee7f87",
        "train-eval-iodp eval full stdout": "5d536647ef43ad2e02295799ac786f01f472ac5c96442813eb02cdb80e272164",
        "train-eval-iodp eval full report": "1aa6a38ee90c1040c3df0c2cb6c9b2b46e52cfa9f9f24ee01dfcf773c1ee7f87",
        "full eval full stdout": "db3e627927c1ffe1807d9808468e1a5b700188d4d7ed1be6dd28a092755ee017",
        "full eval full report": "1aa6a38ee90c1040c3df0c2cb6c9b2b46e52cfa9f9f24ee01dfcf773c1ee7f87",
        "full eval train-eval-iodp stdout": "0bf31db82bba183b1311ed20be9cdbcf540c86bc9195c00e8c31d7cc5a3a8588",
        "full eval train-eval-iodp report": "1aa6a38ee90c1040c3df0c2cb6c9b2b46e52cfa9f9f24ee01dfcf773c1ee7f87",
        "full-lambda-0 eval full stdout": "9383fcde5aa284274fd84419b90808f4145af3dbe88685f595712a53451d8581",
        "full-lambda-0 eval full report": "1aa6a38ee90c1040c3df0c2cb6c9b2b46e52cfa9f9f24ee01dfcf773c1ee7f87",
        "full-lambda-0 eval train-eval-iodp stdout": "6b7157cce5f58cfe4309fe6ea259d73badd9927fa202e67bc2ab7ad330fb0543",
        "full-lambda-0 eval train-eval-iodp report": "1aa6a38ee90c1040c3df0c2cb6c9b2b46e52cfa9f9f24ee01dfcf773c1ee7f87",
    },
    "wide": {
        "corpus": "fd982427f39e490795c88a102d3011aff5ecf3799628c419f37efa0143beb751",
        "prototype": "ea442baf0a16ff063fb1d1d08c3c835dfc23188ccbcbf2290f34a51db8bf5f2f",
        "baseline checkpoint": "7d9e01ce98020838eb45181986bac2dc4fced7308ce18d0720ad67cd6732c17d",
        "baseline trace": "d4a6a8816fbbb8416ce9acdca06c4248d80411b9ca998a877ab60e612f6009f0",
        "train-eval-iodp checkpoint": "2eb6e25be5b64b93b43f3c0db6792087b5e8244253a3bf7096fba7c9f6a7a0a6",
        "train-eval-iodp trace": "ddeb484c9412df7042f9906db8503648681488328bcb0f2bd888211ea6a8426f",
        "full checkpoint": "324321d76b3465c02b511a28b331c3fc076988300bc333be198717f41d0ca597",
        "full trace": "c05553f9da138e5fac3bcc930ccbb4f0df337049f2d0df895903740fd3892449",
        "full-lambda-0 checkpoint": "3c6640478684af29e575689bb06084bf39c14145ed5320e261efbed2657cede4",
        "full-lambda-0 trace": "3aed6ad315c5cfe847e09a1fb17daa3900d28f349af519727556e5209a6aacb1",
        "baseline eval baseline stdout": "8632f960a007263884a0f5a6f4e2d72c2663a1e9d2e5dcab4e2ea9ad069d7d10",
        "baseline eval baseline report": "91ab0687dd1ee005ef9c3027fcacd47f2b751d677af0e5dafe9a93b592cf1391",
        "baseline eval eval-only-iodp stdout": "95a1963e4d100ccaabd78a3767a6fba877f82acdd0a7c0d4cea08c7fafa4fbec",
        "baseline eval eval-only-iodp report": "c70a0e5f77f632d5c95d07d1ef46e413967880d0b890360929f9da5d5ada37e2",
        "train-eval-iodp eval train-eval-iodp stdout": "02d1e209a1133f24a3d18cbd19d93bc1c7a5862d56fad0f0dd5ad124046fb75b",
        "train-eval-iodp eval train-eval-iodp report": "489ea98fc0ee494057138cb781b3e8faaf2fc8992d7da369dab8d133d01d2824",
        "train-eval-iodp eval full stdout": "e88b856b0156d4587a365e0082dc8843b77cfcaa77f0f91d349a1842d389c829",
        "train-eval-iodp eval full report": "489ea98fc0ee494057138cb781b3e8faaf2fc8992d7da369dab8d133d01d2824",
        "full eval full stdout": "a3f0bdbe544932fff0b7afb7bf4f1bad9388ecc3695f9e87147c5ea62041b611",
        "full eval full report": "489ea98fc0ee494057138cb781b3e8faaf2fc8992d7da369dab8d133d01d2824",
        "full eval train-eval-iodp stdout": "97ed08b8f320b052e05e1627f22659023a8c296c214ced1f2e6a8ba4d677ac59",
        "full eval train-eval-iodp report": "489ea98fc0ee494057138cb781b3e8faaf2fc8992d7da369dab8d133d01d2824",
        "full-lambda-0 eval full stdout": "a05eab2e6d9292c3c36db894eb348429a7e37cb0f6811c529279752a007d04ae",
        "full-lambda-0 eval full report": "489ea98fc0ee494057138cb781b3e8faaf2fc8992d7da369dab8d133d01d2824",
        "full-lambda-0 eval train-eval-iodp stdout": "2c554b0fb1291a61b0c61946deea6bb8603366b2cabdfb9e2f95806d2b2b3be5",
        "full-lambda-0 eval train-eval-iodp report": "489ea98fc0ee494057138cb781b3e8faaf2fc8992d7da369dab8d133d01d2824",
    },
}


def blas_build():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


@pytest.mark.parametrize("run", RUNS)
def test_criterion_8_bytes_are_pinned(run, tmp_path):
    got = criterion_8_digests(tmp_path, *RUNS[run])
    assert got.keys() == PINNED[run].keys()
    changed = [name for name, digest in PINNED[run].items() if got[name] != digest]
    assert not changed, f"{run} run: {', '.join(changed)} changed bytes (ran on {blas_build()})"
