"""Checkpoint files: a parameter snapshot with its epoch, metrics and metadata.

A checkpoint is an uncompressed zip laid out like numpy's .npz (np.load opens
it): one "<name>.npy" member per array, in dict order, written with
allow_pickle=False, so every dtype but object round-trips bit for bit; then
"metadata.txt", utf-8 "key=value" lines: the epoch, the metrics (keys prefixed
"metric.") and self-describing entries such as the model kind. Members are
dated 1980-01-01, so equal checkpoints are equal files. Loading checks each
member's CRC-32 and .npy header size and the archive layout, and refuses older
ECNN files. A save writes "<path>.tmp" and renames it over the path.
"""

from __future__ import annotations

import math
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np
from numpy.lib import format as npy


class CheckpointError(ValueError):
    """Unreadable or corrupt checkpoint file."""


@dataclass
class ModelCheckpoint:
    """A parameter snapshot keyed by epoch, plus metrics and metadata."""

    epoch: int
    arrays: dict[str, np.ndarray]
    metrics: dict[str, float] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)


def save_checkpoint(cp: ModelCheckpoint, path) -> None:
    """Write cp as a zip of .npy members plus metadata.txt, atomically."""
    meta_lines = [f"epoch={cp.epoch}"] + [f"metric.{k}={v!r}" for k, v in cp.metrics.items()]
    for key, value in cp.metadata.items():
        if ("\n" in key or "\n" in str(value) or "=" in key
                or key == "epoch" or key.startswith("metric.")):
            raise CheckpointError(f"metadata key/value not encodable: {key!r}")
        meta_lines.append(f"{key}={value}")

    tmp = f"{os.fspath(path)}.tmp"
    try:
        with zipfile.ZipFile(tmp, "w") as zf:
            for name, arr in cp.arrays.items():
                if "\0" in name:
                    raise CheckpointError(f"cannot store {name!r}: a zip member name ends at NUL")
                with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w") as fh:
                    npy.write_array(fh, arr, allow_pickle=False)
            zf.writestr(zipfile.ZipInfo("metadata.txt"), "\n".join(meta_lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> ModelCheckpoint:
    """Load a checkpoint saved by save_checkpoint; anything else raises CheckpointError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic.startswith(b"ECNN"):
            raise CheckpointError(f"{path}: an older ssc wrote this ECNN checkpoint, which is "
                                  "no longer read; re-run training to regenerate it")
        try:
            if magic != b"PK\x03\x04":
                raise ValueError("bad magic bytes: not a checkpoint file")
            return _read(fh)
        except (OSError, EOFError, RuntimeError, ValueError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"truncated or corrupt checkpoint {path}: {exc}") from None


def _read(fh) -> ModelCheckpoint:
    fh.seek(-22, os.SEEK_END)  # the end-of-archive record, with no comment, ends the file
    if fh.read(4) != b"PK\x05\x06" or fh.read()[-2:] != b"\0\0":
        raise ValueError("trailing bytes, or no end-of-archive record, at the end")
    with zipfile.ZipFile(fh) as zf:
        *members, meta = zf.infolist()
        names = [m.filename for m in members]
        if (meta.filename != "metadata.txt" or len(set(names)) < len(names)
                or not all(n.endswith(".npy") for n in names)
                or any(m.compress_type != zipfile.ZIP_STORED for m in zf.infolist())):
            raise ValueError(f"unexpected members {names + [meta.filename]}")
        arrays = {m.filename[:-len(".npy")]: _read_array(zf, m) for m in members}
        text = zf.read(meta).decode("utf-8")

    epoch, metrics, metadata = 0, {}, {}
    for line in filter(None, text.split("\n")):  # only "\n" ends a line; save rejects it in entries
        try:
            key, value = line.split("=", 1)
            if key == "epoch":
                epoch = int(value)
            elif key.startswith("metric."):
                metrics[key[len("metric."):]] = float(value)
            else:
                metadata[key] = value
        except ValueError as exc:
            raise ValueError(f"malformed metadata line {line!r} ({exc})") from None
    return ModelCheckpoint(epoch, arrays, metrics, metadata)


def _read_array(zf: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    """One .npy member, whose header must declare the size it stores before any allocation."""
    with zf.open(info) as fh:
        v1 = npy.read_magic(fh) == (1, 0)  # the 2.0 reader also sizes a utf-8 3.0 header
        shape, _, dtype = (npy.read_array_header_1_0 if v1 else npy.read_array_header_2_0)(fh)
        if fh.tell() + math.prod(shape) * dtype.itemsize != info.file_size:
            raise ValueError(f"{info.filename} header declares {shape} {dtype}, not what it stores")
        fh.seek(0)
        return npy.read_array(fh, allow_pickle=False)
