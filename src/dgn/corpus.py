"""Label-map and feature-map data model, on-disk formats, and synthetic corpora.

A corpus pairs per-pixel object-id grids (label maps) with real-valued
feature grids at a coarser resolution.  Statistics downstream read object
presence from the full-resolution label map; graph construction reads the
map resized to feature resolution with nearest-neighbor sampling.

Feature maps are held in float32, the precision ``.dgnf`` stores, so saving
and loading is the identity; computation casts them to float64 at use.
A caller that reads only label maps (the prototype build) loads a corpus
without its feature maps.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .errors import FormatError, ValidationError

LABEL_MAGIC = b"DGNL"
FEATURE_MAGIC = b"DGNF"
MANIFEST_HEADER = "#DGN-MANIFEST v1"

# Synthetic label maps are rendered at CELL_PIXELS x CELL_PIXELS pixels per
# grid cell, so nearest-neighbor resizing back to cell resolution is exact.
CELL_PIXELS = 4

# Discriminative objects load a per-class block of feature channels at
# EMBEDDING_SCALE; common objects carry only the small jitter every object
# gets.  Keeping common features near zero-mean and the class signal spread
# over a channel block keeps the pooled features learnable by a short,
# fixed-schedule training run; the jitter keeps every embedding distinct.
EMBEDDING_SCALE = 8.0
JITTER_SCALE = 1.0


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Per-pixel object ids on a grid; ids live in [0, vocab_size)."""

    labels: np.ndarray  # (height, width) uint16, row-major
    vocab_size: int

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("label map must be a non-empty 2-D grid")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError("labels must be integers")
        if self.vocab_size < 1 or self.vocab_size > 65536:
            raise ValidationError("vocab_size must be in [1, 65536] (16-bit storage)")
        if int(arr.min()) < 0 or int(arr.max()) >= self.vocab_size:
            raise ValidationError(
                f"label {int(arr.max())} out of range for vocab_size={self.vocab_size}"
            )
        object.__setattr__(self, "labels", np.ascontiguousarray(arr, dtype=np.uint16))

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Real-valued feature grid, (height, width, channels), float32 in memory.

    Values are cast to float32 on construction, the precision ``.dgnf``
    stores; a value that is not finite after the cast, such as one beyond
    the float32 range, is refused.  A C-contiguous float32 array is kept
    as it is, not copied: a map built on a slot of a larger block (as a
    generated split's maps are) is a view that keeps the whole block alive.
    """

    values: np.ndarray

    def __post_init__(self):
        # an overflowing cast gives inf, and a signalling NaN warns; both are refused below
        with np.errstate(over="ignore", invalid="ignore"):
            arr = np.asarray(self.values, dtype=np.float32)
        if arr.ndim != 3 or arr.size == 0:
            raise ValidationError("feature map must be a non-empty 3-D grid")
        if not np.isfinite(arr).all():
            raise ValidationError("feature map contains non-finite values at float32 precision")
        object.__setattr__(self, "values", np.ascontiguousarray(arr))

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True, eq=False)
class Instance:
    """One labeled scene: category id, label map, optional feature map."""

    scene_id: int
    label_map: LabelMap
    feature_map: FeatureMap | None = None


@dataclass(frozen=True, eq=False)
class Corpus:
    num_classes: int
    vocab_size: int
    instances: tuple[Instance, ...]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        if self.num_classes < 1:
            raise ValidationError("num_classes must be positive")
        shape = None
        for inst in self.instances:
            if not 0 <= inst.scene_id < self.num_classes:
                raise ValidationError(f"scene_id {inst.scene_id} out of range")
            if inst.label_map.vocab_size != self.vocab_size:
                raise ValidationError("all instances must share the corpus vocab_size")
            if inst.feature_map is not None:
                s = inst.feature_map.values.shape
                if shape is None:
                    shape = s
                elif s != shape:
                    raise ValidationError(f"feature shape {s} != {shape}")

    @property
    def feature_shape(self) -> tuple[int, int, int] | None:
        """(height, width, channels) shared by all present feature maps."""
        for inst in self.instances:
            if inst.feature_map is not None:
                return inst.feature_map.values.shape
        return None


# ---------------------------------------------------------------------------
# binary formats


def save_label_map(label_map: LabelMap, path: str | Path) -> None:
    header = fileio.pack_u32(label_map.width, label_map.height, label_map.vocab_size)
    labels = label_map.labels.astype("<u2", copy=False)
    fileio.write_artifact(path, LABEL_MAGIC, header, memoryview(labels).cast("B"))


def load_label_map(path: str | Path) -> LabelMap:
    r = fileio.Reader(path, LABEL_MAGIC)
    width, height, vocab = r.u32(), r.u32(), r.u32()
    if width == 0 or height == 0:
        raise ValidationError(f"{path}: empty label map")
    labels = r.array("<u2", width * height).reshape(height, width)
    r.done()
    return LabelMap(labels, vocab)


def save_feature_map(feature_map: FeatureMap, path: str | Path) -> None:
    header = fileio.pack_u32(feature_map.width, feature_map.height, feature_map.channels)
    # the frame's join is the payload's one copy: a float32 map is not cast
    values = feature_map.values.astype("<f4", copy=False)
    fileio.write_artifact(path, FEATURE_MAGIC, header, memoryview(values).cast("B"))


def load_feature_map(path: str | Path) -> FeatureMap:
    r = fileio.Reader(path, FEATURE_MAGIC)
    width, height, channels = r.u32(), r.u32(), r.u32()
    if width == 0 or height == 0 or channels == 0:
        raise ValidationError(f"{path}: empty feature map")
    values = r.array("<f4", width * height * channels)
    r.done()
    return FeatureMap(values.reshape(height, width, channels))


# ---------------------------------------------------------------------------
# manifests


def save_corpus(corpus: Corpus, out_dir: str | Path, name: str) -> Path:
    """Write ``<name>.manifest`` plus per-instance files under ``<name>/``.

    Manifest paths are relative to the manifest file.  Returns the manifest
    path.
    """
    out_dir = Path(out_dir)
    (out_dir / name).mkdir(parents=True, exist_ok=True)
    lines = [f"{MANIFEST_HEADER} C={corpus.num_classes} L={corpus.vocab_size}"]
    for idx, inst in enumerate(corpus.instances):
        lm_rel = f"{name}/{idx:05d}.dgnl"
        save_label_map(inst.label_map, out_dir / lm_rel)
        if inst.feature_map is None:
            fm_rel = "-"
        else:
            fm_rel = f"{name}/{idx:05d}.dgnf"
            save_feature_map(inst.feature_map, out_dir / fm_rel)
        lines.append(f"{inst.scene_id}\t{lm_rel}\t{fm_rel}")
    manifest = out_dir / f"{name}.manifest"
    fileio.atomic_write_text(manifest, "\n".join(lines) + "\n")
    return manifest


_HEADER_RE = re.compile(r"^#DGN-MANIFEST v1 C=(\d+) L=(\d+)$")


def _file_identity(path) -> tuple[int, int] | None:
    """``(st_dev, st_ino)`` of the file at ``path``, or None if it cannot be stat'ed."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def load_corpus(manifest_path: str | Path, features: bool = True, outputs=()) -> Corpus:
    """Read a manifest back into memory.

    With ``features=False`` every instance's feature map is left unread
    (None): only the manifest and the label maps are decoded.  A listed
    label or feature map that is one of ``outputs``, the paths a command
    will write, by ``os.stat`` identity, is refused.
    """
    # only an output that exists can be a listed file: with none, no row is stat'ed
    taken = {_file_identity(out): out for out in filter(None, outputs)}
    taken.pop(None, None)
    manifest_path = Path(manifest_path)
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{manifest_path}: not UTF-8 text (byte {exc.start})") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{manifest_path}: empty manifest")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise FormatError(f"{manifest_path}: bad manifest header {lines[0]!r}")
    num_classes, vocab = int(m.group(1)), int(m.group(2))
    base = manifest_path.parent
    instances = []
    for ln in lines[1:]:
        parts = ln.split("\t")
        # a path with a NUL byte cannot be opened
        if len(parts) != 3 or "\x00" in ln:
            raise FormatError(f"{manifest_path}: bad manifest row {ln!r}")
        try:
            scene_id = int(parts[0])
        except ValueError:
            raise FormatError(f"{manifest_path}: non-integer scene id in row {ln!r}") from None
        for listed in parts[1:] if taken else ():
            if listed != "-" and (out := taken.get(_file_identity(base / listed))):
                raise ValidationError(f"{out}: the output is {listed}, a file {manifest_path} lists")
        label_map = load_label_map(base / parts[1])
        feature_map = None if parts[2] == "-" or not features else load_feature_map(base / parts[2])
        instances.append(Instance(scene_id, label_map, feature_map))
    return Corpus(num_classes, vocab, tuple(instances))


# ---------------------------------------------------------------------------
# operations


def nn_resize(label_map: LabelMap, out_w: int, out_h: int) -> LabelMap:
    """Nearest-neighbor resize with the center-aligned convention.

    Output pixel x samples source column floor((x + 0.5) * width / out_w),
    computed in exact integer arithmetic; likewise for rows.
    """
    if out_w < 1 or out_h < 1:
        raise ValidationError("target dimensions must be >= 1")
    # (2x+1)*w // (2*out_w) == floor((x + 0.5) * w / out_w), always < w
    sx = (2 * np.arange(out_w, dtype=np.int64) + 1) * label_map.width // (2 * out_w)
    sy = (2 * np.arange(out_h, dtype=np.int64) + 1) * label_map.height // (2 * out_h)
    return LabelMap(label_map.labels[np.ix_(sy, sx)], label_map.vocab_size)


def presence_mask(label_map: LabelMap) -> np.ndarray:
    """(vocab_size,) bool: which ids occur on at least one pixel, by one bincount."""
    return np.bincount(label_map.labels.ravel(), minlength=label_map.vocab_size) > 0


# ---------------------------------------------------------------------------
# synthetic corpora


# each class owns this many object ids that never occur in other classes
DISC_PER_CLASS = 2


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a planted-signal corpus.

    Each class owns ``DISC_PER_CLASS`` object ids that never occur in other
    classes; the remaining ``vocab_size - DISC_PER_CLASS * num_classes``
    common ids are shared by everyone.  Every instance is a ``grid_cells`` x
    ``grid_cells`` arrangement of cells, each cell one object, with at least
    one class-owned cell guaranteed.  Pixel features are a fixed per-object
    embedding plus isotropic Gaussian noise.
    """

    num_classes: int
    vocab_size: int
    grid_cells: int = 7
    train_per_class: int = 100
    test_per_class: int = 20
    channels: int = 32
    noise: float = 6.0
    seed: int = 304

    def validate(self) -> None:
        counts = {
            "num_classes": self.num_classes,
            "vocab_size": self.vocab_size,
            "common_objects": self.vocab_size - DISC_PER_CLASS * self.num_classes,
            "grid_cells": self.grid_cells,
            "train_per_class": self.train_per_class,
            "test_per_class": self.test_per_class,
            "channels": self.channels,
        }
        for name, value in counts.items():
            if value < 1:
                raise ValidationError(f"{name} must be positive, got {value}")
        if self.noise < 0:
            raise ValidationError("noise must be >= 0")


def _object_embeddings(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Fixed per-object embeddings, deterministic from the spec seed.

    Every object gets a small Gaussian jitter vector; the discriminative
    objects of class ``cls`` additionally load a dedicated block of
    channels.  Common objects stay jitter-only, so pooled features carry
    no large class-independent component.
    """
    c, k, C = spec.channels, DISC_PER_CLASS, spec.num_classes
    emb = JITTER_SCALE * rng.standard_normal((spec.vocab_size, c))
    block = max(1, c // (C + 1))
    for oid in range(k * C):
        cls = oid // k
        channels = (cls * block + np.arange(block)) % c
        emb[oid, channels] += EMBEDDING_SCALE
    return emb


def generate_synthetic_corpus(spec: SyntheticSpec) -> tuple[Corpus, Corpus]:
    """Generate (train, test) corpora; a pure function of ``spec``.

    Each split holds its feature maps in one C-contiguous float32 block,
    allocated before the split's first draw: every instance's float64 draw
    is cast into its slot, and its ``FeatureMap`` is a view of that slot.
    One block per split, rather than one array per map, keeps the retained
    maps from pinning the holes that their freed float64 temporaries leave
    in the heap.  A split too large to address raises ``MemoryError``, and
    a draw beyond the float32 range ``ValidationError``.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    k, g = DISC_PER_CLASS, spec.grid_cells
    disc_ids = np.arange(k * spec.num_classes).reshape(spec.num_classes, k)
    common_ids = np.arange(k * spec.num_classes, spec.vocab_size)
    embeddings = _object_embeddings(spec, rng)

    def make_split(per_class: int) -> Corpus:
        shape = (spec.num_classes * per_class, g, g, spec.channels)
        try:
            block = np.empty(shape, dtype=np.float32)
        except ValueError:
            # numpy refuses a byte count beyond intp with ValueError, not MemoryError
            raise MemoryError(f"{shape} float32 features cannot be addressed") from None
        instances = []
        for class_id in range(spec.num_classes):
            allowed = np.concatenate([disc_ids[class_id], common_ids])
            for _ in range(per_class):
                cells = allowed[rng.integers(0, allowed.size, size=(g, g))]
                if not np.any(cells < k * spec.num_classes):
                    y, x = rng.integers(0, g, size=2)
                    cells[y, x] = disc_ids[class_id][rng.integers(0, k)]
                labels = np.repeat(np.repeat(cells, CELL_PIXELS, axis=0), CELL_PIXELS, axis=1)
                slot = block[len(instances)]
                # an overflow in the draw or its float32 cast gives inf, which FeatureMap refuses
                with np.errstate(over="ignore", invalid="ignore"):
                    slot[...] = embeddings[cells] + spec.noise * rng.standard_normal(
                        (g, g, spec.channels)
                    )
                instances.append(
                    Instance(class_id, LabelMap(labels, spec.vocab_size), FeatureMap(slot))
                )
        return Corpus(spec.num_classes, spec.vocab_size, tuple(instances))

    train = make_split(spec.train_per_class)
    test = make_split(spec.test_per_class)
    return train, test
