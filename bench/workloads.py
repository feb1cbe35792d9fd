"""The benchmark workloads and their tiny smoke shapes.

Every workload runs the same pipeline: build the prototype (``iodp``),
train one model per training mode, then evaluate four (checkpoint, mode)
pairs.  ``large-n`` and ``desk`` drive it through the command line in
process, reading and writing artifacts in a work directory; ``paper`` calls
the library in memory.  Inputs come only from ``SyntheticSpec`` and the seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import dgn
from dgn import cli, fileio, model, oracle, prototype

TRAIN_MODES = ("baseline", "train-eval-iodp", "full")
# (checkpoint trained in this mode, mode it is evaluated in)
EVAL_PLAN = (
    ("baseline", "baseline"),
    ("baseline", "eval-only-iodp"),
    ("train-eval-iodp", "train-eval-iodp"),
    ("full", "full"),
)
STAGES = ("iodp",) + tuple(f"train-{m}" for m in TRAIN_MODES) + tuple(f"eval-{m}" for _, m in EVAL_PLAN)
ORACLE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Shape:
    classes: int
    objects: int
    cells: int
    channels: int
    train_per_class: int
    test_per_class: int
    epochs: int
    lr: float = 0.001
    decay_epochs: tuple[int, ...] = (10, 15, 20)
    batch: int = 32
    noise: float = 6.0
    baseline_epochs: int | None = None  # None: same as the graph modes

    def spec(self, seed: int) -> dgn.SyntheticSpec:
        return dgn.SyntheticSpec(
            num_classes=self.classes,
            vocab_size=self.objects,
            grid_cells=self.cells,
            channels=self.channels,
            train_per_class=self.train_per_class,
            test_per_class=self.test_per_class,
            noise=self.noise,
            seed=seed,
        )

    def epochs_for(self, mode: str) -> int:
        if mode == "baseline" and self.baseline_epochs is not None:
            return self.baseline_epochs
        return self.epochs

    def config(self, seed: int, mode: str) -> model.TrainConfig:
        return model.TrainConfig(
            epochs=self.epochs_for(mode),
            batch_size=self.batch,
            lr=self.lr,
            decay_epochs=self.decay_epochs,
            seed=seed,
        )

    @property
    def n_train(self) -> int:
        return self.classes * self.train_per_class

    @property
    def n_test(self) -> int:
        return self.classes * self.test_per_class


# paper trains the cheap baseline for 5 epochs and the graph modes for 1,
# which brings every mode to 97-100 % accuracy on every seed while a round
# stays near 9 s.  large-n has 8 training instances because each 4096-node
# graph costs about 0.35 s to build; its test split is the one `dgn gen`
# writes, train_per_class // 5 but at least 1.  desk is the CLI's reference
# configuration: `dgn gen` and `dgn train` defaults.
SHAPES = {
    "desk": Shape(7, 20, 7, 32, 100, 20, 30),
    "paper": Shape(67, 150, 14, 512, 3, 1, 1, lr=0.01, decay_epochs=(), batch=4, noise=2.0, baseline_epochs=5),
    "large-n": Shape(4, 20, 64, 32, 2, 1, 4, lr=0.02, decay_epochs=(), batch=2),
}
SMOKE_SHAPES = {
    "desk": Shape(3, 10, 4, 8, 10, 2, 5, lr=0.05, batch=4, noise=1.0),
    "paper": Shape(5, 16, 4, 8, 2, 1, 1, lr=0.01, decay_epochs=(), batch=4, noise=2.0, baseline_epochs=3),
    "large-n": Shape(2, 8, 8, 4, 2, 1, 2, lr=0.02, decay_epochs=(), batch=2),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliWorkload:
    """The CLI pipeline `gen -> iodp -> train x3 -> eval x4` over files."""

    def __init__(self, shape: Shape, seed: int, workdir: Path):
        if shape.test_per_class != max(1, shape.train_per_class // cli.TEST_SPLIT_DIVISOR):
            raise ValueError("dgn gen writes train_per_class // 5 test instances per class")
        self.shape, self.seed, self.workdir = shape, seed, workdir
        self.data = workdir / "data"
        self.proto_path = workdir / "proto.dgnp"
        self._pending: dict[Path, bytes] = {}

    def _cli(self, *argv: str) -> dict[str, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(argv))
        if rc != 0:
            raise RuntimeError(f"dgn {argv[0]} exited {rc}")
        return dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)

    def clean(self) -> None:
        """Drop the previous set-up's held files."""
        self._pending = {}

    def setup(self) -> None:
        """`dgn gen` through the CLI, with the files it writes held in memory.

        Every file the package writes goes through ``fileio.atomic_write_bytes``;
        during the set-up that attribute keeps the bytes instead, and
        :meth:`write` puts them on disk afterwards.  The kernel's time to
        create a file varies eightfold on a shared file system (1 680 files
        took 0.1-1.3 s), which is the host's noise and not the program's work.
        """
        s = self.shape
        writer = fileio.atomic_write_bytes
        fileio.atomic_write_bytes = lambda path, data: self._pending.__setitem__(Path(path), data)
        try:
            self._cli(
                "gen", "--classes", str(s.classes), "--objects", str(s.objects),
                "--per-class", str(s.train_per_class), "--cells", str(s.cells),
                "--channels", str(s.channels), "--noise", repr(s.noise), "--seed", str(self.seed),
                "--out", str(self.data),
            )
        finally:
            fileio.atomic_write_bytes = writer

    def write(self) -> None:
        """Write the last set-up's files with the package's own writer."""
        for path, data in self._pending.items():
            fileio.atomic_write_bytes(path, data)
        self._pending = {}

    def _checkpoint(self, mode: str) -> Path:
        return self.workdir / f"{mode}.dgnm"

    def iodp(self) -> None:
        self._cli("iodp", "--manifest", str(self.data / "train.manifest"), "--out", str(self.proto_path))

    def train(self, mode: str) -> None:
        s = self.shape
        proto = [] if mode == "baseline" else ["--prototype", str(self.proto_path)]
        self._cli(
            "train", "--manifest", str(self.data / "train.manifest"), *proto, "--mode", mode,
            "--epochs", str(s.epochs), "--batch", str(s.batch), "--lr", repr(s.lr), "--seed", str(self.seed),
            "--checkpoint", str(self._checkpoint(mode)),
        )

    def evaluate(self, checkpoint_mode: str, mode: str) -> float:
        proto = [] if mode == "baseline" else ["--prototype", str(self.proto_path)]
        out = self._cli(
            "eval", "--manifest", str(self.data / "test.manifest"),
            "--checkpoint", str(self._checkpoint(checkpoint_mode)), *proto, "--mode", mode,
        )
        if int(out["instances"]) != self.shape.n_test:
            raise RuntimeError(f"eval saw {out['instances']} instances, expected {self.shape.n_test}")
        return float(out["accuracy"])

    def digests(self) -> dict[str, str]:
        return {m: sha256(self._checkpoint(m)) for m in TRAIN_MODES}

    def checks(self, accuracy: dict[str, float]) -> dict[str, bool]:
        corpus = dgn.load_corpus(self.data / "train.manifest")
        built = dgn.load_prototype(self.proto_path)
        naive = oracle.naive_prototype(
            corpus, prototype.CooccurrenceMode.INDEPENDENT, prototype.DispersionMetric.COEFF_VAR, True
        )
        return {
            "prototype_matches_oracle": oracle.compare(built.omega, naive.omega).max_abs_deviation
            <= ORACLE_TOLERANCE,
            "ablation_order": accuracy["baseline"] <= accuracy["eval-only-iodp"] <= accuracy["full"],
        }


class LibraryWorkload:
    """The same pipeline through the library, with every corpus in memory."""

    def __init__(self, shape: Shape, seed: int, workdir: Path):
        self.shape, self.seed, self.workdir = shape, seed, workdir
        self.models: dict[str, model.DgnModel] = {}
        self.proto = None

    def clean(self) -> None:
        """Drop the previous set-up's corpora so two never coexist."""
        self.train_corpus = self.test_corpus = None

    def setup(self) -> None:
        self.train_corpus, self.test_corpus = dgn.corpus.generate_synthetic_corpus(self.shape.spec(self.seed))

    def write(self) -> None:
        """Nothing to write: the corpora stay in memory."""

    def iodp(self) -> None:
        self.proto = prototype.build_prototype(
            self.train_corpus, prototype.CooccurrenceMode.INDEPENDENT, prototype.DispersionMetric.COEFF_VAR, True
        )

    def train(self, mode: str) -> None:
        proto = None if mode == "baseline" else self.proto
        self.models[mode], _ = model.train(
            self.train_corpus, proto, self.shape.config(self.seed, mode), model.AblationMode(mode)
        )

    def evaluate(self, checkpoint_mode: str, mode: str) -> float:
        proto = None if mode == "baseline" else self.proto
        report = model.evaluate(self.models[checkpoint_mode], self.test_corpus, proto, model.AblationMode(mode))
        if report.count != self.shape.n_test:
            raise RuntimeError(f"eval saw {report.count} instances, expected {self.shape.n_test}")
        return report.accuracy

    def digests(self) -> dict[str, str]:
        out = {}
        for mode, trained in self.models.items():
            path = self.workdir / f"{mode}.dgnm"
            model.save_model(trained, path)
            out[mode] = sha256(path)
        return out

    def checks(self, accuracy: dict[str, float]) -> dict[str, bool]:
        omega = self.proto.omega
        return {
            "prototype_shape": omega.shape == (self.shape.objects, self.shape.objects),
            "prototype_symmetric_nonnegative": bool((omega == omega.T).all() and (omega >= 0).all()),
        }


def make(name: str, seed: int, workdir: Path, smoke: bool = False):
    shape = (SMOKE_SHAPES if smoke else SHAPES)[name]
    cls = LibraryWorkload if name == "paper" else CliWorkload
    return cls(shape, seed, workdir)


def steps(w) -> list[tuple[str, object]]:
    """The stages of one pipeline pass, in order, as (name, call)."""
    out = [("iodp", w.iodp)]
    out += [(f"train-{m}", functools.partial(w.train, m)) for m in TRAIN_MODES]
    out += [(f"eval-{mode}", functools.partial(w.evaluate, ckpt, mode)) for ckpt, mode in EVAL_PLAN]
    return out
