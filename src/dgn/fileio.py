"""Low-level helpers for the little-endian binary artifact formats.

Every binary artifact shares one frame: a 4-byte magic, the u32
``FORMAT_VERSION``, the format's own header and payload, and no trailing
bytes.  :func:`write_artifact` writes the frame and :class:`Reader` checks
it, so a format module states only its fields.  All writers go through
:func:`atomic_writer`, most of them by :func:`atomic_write_bytes`, so a
failure never leaves a partially written output file behind.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import FormatError

FORMAT_VERSION = 1


@contextlib.contextmanager
def atomic_writer(path: str | Path):
    """A binary file on a sibling temp file, renamed to ``path`` when the block ends.

    An exception in the block removes the temp file and leaves ``path`` as it was.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through :func:`atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(data)


def write_artifact(path: str | Path, magic: bytes, *parts) -> None:
    """Write ``magic``, the version and ``parts`` (bytes or byte buffers) as one file.

    The join is the contents' one copy, so a buffer part is not copied first.
    """
    atomic_write_bytes(path, b"".join((magic, pack_u32(FORMAT_VERSION), *parts)))


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def pack_u32(*values: int) -> bytes:
    return struct.pack("<" + "I" * len(values), *values)


def pack_u8(value: int) -> bytes:
    return struct.pack("<B", value)


def pack_f64(value: float) -> bytes:
    return struct.pack("<d", value)


class Reader:
    """Sequential reader over an artifact's bytes with truncation checks.

    Opening reads the whole file and checks its magic and version; the
    reader then stands at the format's header.
    """

    def __init__(self, path: str | Path, magic: bytes):
        self._data = Path(path).read_bytes()
        self._label = str(path)
        if self._data[:4] != magic:
            raise FormatError(f"{self._label}: missing {magic.decode()} magic")
        self._pos = 4
        got = self.u32()
        if got != FORMAT_VERSION:
            raise FormatError(f"{self._label}: unsupported version {got}")

    def _advance(self, n: int) -> int:
        """Move past the next ``n`` bytes and return their offset."""
        if self._pos + n > len(self._data):
            raise EOFError(
                f"{self._label}: truncated payload "
                f"(needed {n} bytes at offset {self._pos}, have {len(self._data)})"
            )
        start = self._pos
        self._pos += n
        return start

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return self._data[start : start + n]

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def array(self, dtype: str, count: int) -> np.ndarray:
        """The next ``count`` entries of ``dtype``, copied once out of the payload."""
        start = self._advance(np.dtype(dtype).itemsize * count)
        return np.frombuffer(self._data, dtype=dtype, count=count, offset=start).copy()

    def done(self) -> None:
        if self._pos != len(self._data):
            raise FormatError(f"{self._label}: {len(self._data) - self._pos} trailing bytes")
