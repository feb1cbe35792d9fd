"""Artifact fuzzing through the in-process CLI.

Each example damages one artifact of a tiny pipeline (truncation, one flipped
bit, or one overwritten byte among the first 64) and runs a command that
reads it.  The command must exit 0 or 2 without raising, and on exit 2 leave
none of its declared outputs behind.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgn import cli


def cli_main(*args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A 2-class corpus, its prototype and a full-mode checkpoint, built once."""
    root = tmp_path_factory.mktemp("fuzz")
    assert cli_main(
        "gen", "--classes", 2, "--objects", 6, "--per-class", 5, "--cells", 2,
        "--channels", 3, "--noise", 1.0, "--seed", 304, "--out", root,
    ) == 0
    assert cli_main("iodp", "--manifest", root / "train.manifest", "--out", root / "p.dgnp") == 0
    assert cli_main(
        "train", "--manifest", root / "train.manifest", "--prototype", root / "p.dgnp",
        "--epochs", 1, "--checkpoint", root / "m.dgnm",
    ) == 0
    return root


# damaged artifact -> the commands that read it
TARGETS = {
    "train/00000.dgnl": ("iodp", "eval"),
    "train/00000.dgnf": ("iodp", "eval"),
    "p.dgnp": ("eval", "inspect"),
    "m.dgnm": ("eval", "inspect"),
    "train.manifest": ("iodp", "eval"),
}
CASES = [(artifact, command) for artifact, commands in TARGETS.items() for command in commands]


def command_line(command, root, target):
    """The argv of ``command`` over the copy at ``root`` and the output it declares."""
    if command == "iodp":
        out = root / "out.dgnp"
        return ("iodp", "--manifest", root / "train.manifest", "--out", out), out
    if command == "eval":
        out = root / "report.csv"
        return (
            "eval", "--manifest", root / "train.manifest", "--checkpoint", root / "m.dgnm",
            "--prototype", root / "p.dgnp", "--out", out,
        ), out
    out = root / "inspected"
    return ("inspect", target, "--out", out), out


def damage(data: bytes, kind: str, position: int, value: int) -> bytes:
    if kind == "truncate":
        return data[: position % len(data)]
    buf = bytearray(data)
    if kind == "flip":
        bit = position % (8 * len(buf))
        buf[bit // 8] ^= 1 << (bit % 8)
    else:
        buf[position % min(64, len(buf))] = value
    return bytes(buf)


@pytest.mark.parametrize(("artifact", "command"), CASES)
@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["truncate", "flip", "overwrite"]),
    position=st.integers(0, 2**20),
    value=st.integers(0, 255),
)
# magics that read as a label map's: DGNM with bit 0 of byte 3 flipped, and
# byte 3 of any artifact overwritten with "L"
@example(kind="flip", position=24, value=0)
@example(kind="overwrite", position=3, value=ord("L"))
def test_damaged_artifact_exits_0_or_2_without_output(
    pristine, artifact, command, kind, position, value
):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "w"
        shutil.copytree(pristine, root)
        target = root / artifact
        target.write_bytes(damage(target.read_bytes(), kind, position, value))
        argv, out = command_line(command, root, target)
        code = cli_main(*argv)
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
