"""Command-line pipeline: gen, iodp, train, eval, inspect.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure.  Commands only write the outputs they declare, atomically, and
print a key=value summary block on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .corpus import (
    FEATURE_MAGIC,
    LABEL_MAGIC,
    SyntheticSpec,
    generate_synthetic_corpus,
    load_corpus,
    load_feature_map,
    load_label_map,
    save_corpus,
)
from .errors import FormatError, ValidationError
from .graph import extract_local_knowledge, row_normalize
from .model import (
    _EVAL_MODES,
    MODEL_MAGIC,
    AblationMode,
    EpochStats,
    TrainConfig,
    evaluate,
    load_model,
    save_model,
    train,
)
from .prototype import (
    PROTOTYPE_MAGIC,
    CooccurrenceMode,
    DispersionMetric,
    build_prototype,
    load_prototype,
    save_prototype,
)

TEST_SPLIT_DIVISOR = 5  # gen writes per_class // 5 test instances per class
# inspect builds two dense n x n float64 matrices for a label map (2 x 128 MiB
# at the limit) and writes each as CSV text, row by row: a 2048-node CSV took
# 21.7 s (2 vCPUs, numpy 2.4.6), so at the limit each CSV takes ~90 s.  Refuse
# beyond this many nodes rather than allocate without bound
INSPECT_MAX_NODES = 4096


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dgn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a synthetic train/test corpus")
    gen.add_argument("--classes", type=int, default=7)
    gen.add_argument("--objects", type=int, default=20)
    gen.add_argument("--per-class", type=int, default=SyntheticSpec.train_per_class)
    gen.add_argument("--noise", type=float, default=SyntheticSpec.noise)
    gen.add_argument("--cells", type=int, default=SyntheticSpec.grid_cells)
    gen.add_argument("--channels", type=int, default=SyntheticSpec.channels)
    gen.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    iodp = sub.add_parser("iodp", help="build the discriminative prototype from a corpus")
    iodp.add_argument("--manifest", required=True)
    iodp.add_argument("--mode", choices=_choices(CooccurrenceMode), default="independent")
    iodp.add_argument("--metric", choices=_choices(DispersionMetric), default="cv")
    iodp.add_argument("--passivate", action=argparse.BooleanOptionalAction, default=True)
    iodp.add_argument("--out", required=True)
    iodp.set_defaults(func=cmd_iodp)

    tr = sub.add_parser("train", help="train a classifier")
    tr.add_argument("--manifest", required=True)
    tr.add_argument("--prototype")
    tr.add_argument("--mode", choices=[m.value for m in _EVAL_MODES], default="full")
    tr.add_argument("--lambda", dest="lam", type=float, default=TrainConfig.lam)
    tr.add_argument("--hidden-dim", type=int, default=TrainConfig.hidden_dim)
    tr.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    tr.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    tr.add_argument("--lr", type=float, default=TrainConfig.lr)
    tr.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    tr.add_argument("--seed", type=int, default=TrainConfig.seed)
    tr.add_argument("--checkpoint", required=True)
    tr.add_argument("--out", help="trace CSV path (default: <checkpoint>.trace.csv)")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--prototype")
    ev.add_argument("--mode", choices=_choices(AblationMode), default=None)
    ev.add_argument("--out", help="report CSV path")
    ev.set_defaults(func=cmd_eval)

    ins = sub.add_parser("inspect", help="export heatmaps / listings for an artifact")
    ins.add_argument("artifact")
    ins.add_argument("--prototype", help="needed to inspect a label map's graph")
    ins.add_argument("--out", help="output directory (default: alongside the artifact)")
    ins.set_defaults(func=cmd_inspect)

    return parser


def _choices(enum_type) -> list[str]:
    return sorted(m.value for m in enum_type)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FormatError, EOFError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    out = Path(args.out)
    spec = SyntheticSpec(
        num_classes=args.classes,
        vocab_size=args.objects,
        grid_cells=args.cells,
        train_per_class=args.per_class,
        test_per_class=max(1, args.per_class // TEST_SPLIT_DIVISOR),
        channels=args.channels,
        noise=args.noise,
        seed=args.seed,
    )
    _require_corpus_dirs(out, spec)
    train_corpus, test_corpus = generate_synthetic_corpus(spec)
    out.mkdir(parents=True, exist_ok=True)
    train_manifest = save_corpus(train_corpus, out, "train")
    test_manifest = save_corpus(test_corpus, out, "test")
    print(f"train_manifest={train_manifest}")
    print(f"test_manifest={test_manifest}")
    print(f"train_instances={len(train_corpus.instances)}")
    print(f"test_instances={len(test_corpus.instances)}")
    print(f"classes={spec.num_classes}")
    print(f"objects={spec.vocab_size}")
    return 0


def _require_corpus_dirs(out: Path, spec: SyntheticSpec) -> None:
    """Refuse, before the first draw, an ``--out`` that ``save_corpus`` would leave half written.

    ``--out``, or the nearest of its parents that exists, and ``--out/train``
    and ``--out/test`` must be directories where they exist; neither
    manifest path, nor any instance file ``--out/<split>/NNNNN.dgnl|.dgnf``
    that ``save_corpus`` writes for ``spec``, may be a directory.
    """
    per_class = {"train": spec.train_per_class, "test": spec.test_per_class}
    counts = {name: spec.num_classes * k for name, k in per_class.items()}
    nearest = next((p for p in (out, *out.parents) if p.exists()), out)
    for path in (nearest, out / "train", out / "test"):
        if path.exists() and not path.is_dir():
            raise ValidationError(f"{path}: exists and is not a directory")
    for name, count in counts.items():
        _refuse_directories(out / f"{name}.manifest")
        if not (out / name).is_dir():
            continue
        with os.scandir(out / name) as entries:
            for entry in entries:
                stem, _, suffix = entry.name.partition(".")
                written = stem.isdigit() and int(stem) < count and f"{int(stem):05d}" == stem
                if written and suffix in ("dgnl", "dgnf") and entry.is_dir():
                    _refuse_directories(out / name / entry.name)


def _refuse_directories(*paths: Path) -> None:
    """Refuse an output path that is an existing directory: replacing it would fail."""
    for path in paths:
        if path.is_dir():
            raise ValidationError(f"{path}: output path is a directory")


def _require_output_dirs(*outputs, inputs=()) -> None:
    """Refuse, before any work, an output whose directory does not exist or that is one,
    and two of the command's paths, outputs or ``inputs``, that resolve to one file."""
    for path in map(Path, filter(None, outputs)):
        if not path.parent.is_dir():
            raise ValidationError(f"{path}: output directory {path.parent} does not exist")
        _refuse_directories(path)
    seen = {}
    for path in map(Path, filter(None, (*outputs, *inputs))):
        first = seen.setdefault(path.resolve(), path)
        if first is not path:
            raise ValidationError(f"{first} and {path} resolve to the same file")


def cmd_iodp(args) -> int:
    _require_output_dirs(args.out, inputs=[args.manifest])
    # the prototype reads label maps only; the feature maps stay on disk
    corpus = load_corpus(args.manifest, features=False, outputs=[args.out])
    proto = build_prototype(
        corpus, CooccurrenceMode(args.mode), DispersionMetric(args.metric), args.passivate
    )
    save_prototype(proto, args.out)
    print(f"prototype={args.out}")
    print(f"L={proto.vocab_size}")
    print(f"C={proto.num_classes}")
    print(f"omega_min={float(proto.omega.min())!r}")
    print(f"omega_max={float(proto.omega.max())!r}")
    print(f"omega_mean={float(proto.omega.mean())!r}")
    return 0


def cmd_train(args) -> int:
    mode = AblationMode(args.mode)
    if mode is not AblationMode.BASELINE and not args.prototype:
        print(f"dgn train: error: --mode {args.mode} requires --prototype", file=sys.stderr)
        return 1
    trace_path = args.out or f"{args.checkpoint}.trace.csv"
    _require_output_dirs(args.checkpoint, trace_path, inputs=[args.manifest, args.prototype])
    corpus = load_corpus(args.manifest, outputs=[args.checkpoint, trace_path])
    proto = load_prototype(args.prototype) if args.prototype else None
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        weight_decay=args.weight_decay,
        lam=args.lam,
        hidden_dim=args.hidden_dim,
        seed=args.seed,
    )
    model, trace = train(corpus, proto, config, mode)
    save_model(model, args.checkpoint)
    lines = [",".join(f.name for f in dataclasses.fields(EpochStats))]
    lines += [",".join(map(repr, dataclasses.astuple(s))) for s in trace]
    fileio.atomic_write_text(trace_path, "\n".join(lines) + "\n")
    print(f"checkpoint={args.checkpoint}")
    print(f"trace={trace_path}")
    print(f"epochs={config.epochs}")
    print(f"final_loss={trace[-1].loss!r}")
    print(f"final_train_accuracy={trace[-1].train_accuracy!r}")
    return 0


def cmd_eval(args) -> int:
    _require_output_dirs(args.out, inputs=[args.manifest, args.checkpoint, args.prototype])
    model = load_model(args.checkpoint)
    mode = AblationMode(args.mode) if args.mode else model.mode
    if mode is not AblationMode.BASELINE and not args.prototype:
        print(f"dgn eval: error: mode {mode.value} requires --prototype", file=sys.stderr)
        return 1
    corpus = load_corpus(args.manifest, outputs=[args.out])
    proto = load_prototype(args.prototype) if args.prototype else None
    report = evaluate(model, corpus, proto, mode)
    print(f"accuracy={report.accuracy:.6f}")
    print(f"instances={report.count}")
    for k, acc in enumerate(report.per_class):
        print(f"class_{k}_accuracy={acc:.6f}")
    if args.out:
        lines = ["class,accuracy"]
        lines += [f"{k},{acc:.6f}" for k, acc in enumerate(report.per_class)]
        lines.append(f"overall,{report.accuracy:.6f}")
        fileio.atomic_write_text(args.out, "\n".join(lines) + "\n")
        print(f"report={args.out}")
    return 0


def cmd_inspect(args) -> int:
    path = Path(args.artifact)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    out_dir = Path(args.out) if args.out else path.parent
    if magic == PROTOTYPE_MAGIC:
        return _inspect_prototype(path, out_dir)
    if magic == LABEL_MAGIC:
        # a damaged file whose magic reads as a label map's is a data error
        label_map = load_label_map(path)
        if not args.prototype:
            print("error: inspecting a label map's graph requires --prototype", file=sys.stderr)
            return 1
        return _inspect_label_map(path, label_map, load_prototype(args.prototype), out_dir)
    if magic == FEATURE_MAGIC:
        fm = load_feature_map(path)
        # statistics of the float64 cast: a float32 mean rounds, and
        # mean(dtype=float64) can sum in another order
        values = fm.values.astype(np.float64)
        print(f"feature_map={path}")
        print(f"width={fm.width}")
        print(f"height={fm.height}")
        print(f"channels={fm.channels}")
        print(f"min={float(values.min())!r}")
        print(f"max={float(values.max())!r}")
        print(f"mean={float(values.mean())!r}")
        return 0
    if magic == MODEL_MAGIC:
        return _inspect_model(path)
    raise FormatError(f"{path}: unrecognized magic {magic!r}")


def _inspect_prototype(path: Path, out_dir: Path) -> int:
    proto = load_prototype(path)
    pgm = out_dir / f"{path.stem}.omega.pgm"
    csv = out_dir / f"{path.stem}.omega.csv"
    _refuse_directories(pgm, csv)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_pgm16(proto.omega, pgm)
    write_matrix_csv(proto.omega, csv)
    print(f"prototype={path}")
    print(f"L={proto.vocab_size}")
    print(f"C={proto.num_classes}")
    print(f"mode={proto.mode.value}")
    print(f"metric={proto.metric.value}")
    print(f"passivated={int(proto.passivated)}")
    print(f"heatmap={pgm}")
    print(f"csv={csv}")
    return 0


def _inspect_label_map(path: Path, label_map, proto, out_dir: Path) -> int:
    if proto.vocab_size != label_map.vocab_size:
        raise ValidationError(
            f"{path}: prototype vocab {proto.vocab_size} != label map vocab {label_map.vocab_size}"
        )
    semantics = label_map.labels.reshape(-1)
    if semantics.size > INSPECT_MAX_NODES:
        raise ValidationError(
            f"{path}: {semantics.size} nodes would need {2 * semantics.size**2 * 8} bytes "
            f"for the dense affinity and adjacency; inspect allows at most {INSPECT_MAX_NODES} nodes"
        )
    written = {
        name: (out_dir / f"{path.stem}.{name}.pgm", out_dir / f"{path.stem}.{name}.csv")
        for name in ("affinity", "adjacency")
    }
    _refuse_directories(*(p for pair in written.values() for p in pair))
    affinity = extract_local_knowledge(semantics, proto)
    adjacency = row_normalize(affinity)
    out_dir.mkdir(parents=True, exist_ok=True)
    for matrix, (pgm, csv) in zip((affinity, adjacency), written.values()):
        write_pgm16(matrix, pgm)
        write_matrix_csv(matrix, csv)
    print(f"label_map={path}")
    print(f"nodes={semantics.size}")
    for name, (pgm, csv) in written.items():
        print(f"{name}_heatmap={pgm}")
        print(f"{name}_csv={csv}")
    return 0


def _inspect_model(path: Path) -> int:
    model = load_model(path)
    print(f"checkpoint={path}")
    print(f"mode={model.mode.value}")
    print(f"in_channels={model.in_channels}")
    print(f"hidden_dim={model.hidden_dim}")
    print(f"num_classes={model.num_classes}")
    print(f"lambda={model.lam!r}")
    if model.gc_weight is not None:
        print(f"gc_weight={model.gc_weight.shape[0]}x{model.gc_weight.shape[1]}")
    print(f"main_weight={model.main_head.weight.shape[0]}x{model.main_head.weight.shape[1]}")
    print(f"main_bias={model.main_head.bias.size}")
    if model.aux_head is not None:
        print(f"aux_weight={model.aux_head.weight.shape[0]}x{model.aux_head.weight.shape[1]}")
        print(f"aux_bias={model.aux_head.bias.size}")
    print(f"parameters={model.parameter_count()}")
    return 0


# ---------------------------------------------------------------------------
# exports


def write_pgm16(matrix: np.ndarray, path) -> None:
    """16-bit PGM heatmap: 0 maps to black, the matrix max to 65535."""
    arr = np.asarray(matrix, dtype=np.float64)
    peak = float(arr.max()) if arr.size else 0.0
    if peak <= 0.0:
        scaled = np.zeros(arr.shape, dtype=">u2")
    else:
        scaled = np.round(arr / peak * 65535.0).astype(">u2")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    fileio.atomic_write_bytes(path, header + scaled.tobytes())


def write_matrix_csv(matrix: np.ndarray, path) -> None:
    """One line of ``.17g`` values per row, written row by row: no n^2 string is built."""
    with fileio.atomic_writer(path) as fh:
        for row in np.asarray(matrix, dtype=np.float64):
            fh.write((",".join(format(v, ".17g") for v in row) + "\n").encode("utf-8"))
