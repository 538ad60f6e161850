"""Binary checkpoint container for trained parameters.

Layout (all integers unsigned 32-bit little-endian):

    magic "ECNN2"
    n_arrays
    per array: name_len, name (utf-8), dtype code, rank, extents[rank]
    payloads: raveled little-endian values of each array's dtype, in table order
    meta_len, metadata (utf-8 "key=value" lines)

Dtype codes are 1 = float32, 2 = float64, 3 = int64, so every array loads
back bit for bit with its own dtype. Files with the older magic "ECNN1"
(no dtype codes, every payload float32) are still read, as float32.

The metadata block carries the epoch index, validation metrics (keys
prefixed "metric."), and free-form self-describing entries such as the
model kind and configuration.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"ECNN2"
_MAGIC_FLOAT32_ONLY = b"ECNN1"
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i8")}
_CODES = {dtype: code for code, dtype in _DTYPES.items()}
_U32 = struct.Struct("<I")
_MAX_NAME = 4096
_MAX_RANK = 32


class CheckpointError(ValueError):
    """Unreadable or corrupt checkpoint file."""


@dataclass
class ModelCheckpoint:
    """A parameter snapshot keyed by epoch, plus metrics and metadata."""

    epoch: int
    arrays: dict[str, np.ndarray]
    metrics: dict[str, float] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]


def save_checkpoint(cp: ModelCheckpoint, path) -> None:
    """Serialize a checkpoint; arrays keep their float32, float64 or int64 dtype."""
    parts = [MAGIC, _U32.pack(len(cp.arrays))]
    payloads = []
    for name, arr in cp.arrays.items():
        dtype = arr.dtype.newbyteorder("<")
        if dtype not in _CODES:
            raise CheckpointError(f"cannot store {name!r}: dtype {arr.dtype} is not "
                                  "float32, float64 or int64")
        encoded = name.encode("utf-8")
        parts.append(_U32.pack(len(encoded)))
        parts.append(encoded)
        parts.append(_U32.pack(_CODES[dtype]))
        parts.append(_U32.pack(arr.ndim))
        for extent in arr.shape:
            parts.append(_U32.pack(extent))
        payloads.append(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    parts.extend(payloads)

    meta_lines = [f"epoch={cp.epoch}"]
    for key, value in cp.metrics.items():
        meta_lines.append(f"metric.{key}={value!r}")
    for key, value in cp.metadata.items():
        if ("\n" in key or "\n" in str(value) or "=" in key
                or key == "epoch" or key.startswith("metric.")):
            raise CheckpointError(f"metadata key/value not encodable: {key!r}")
        meta_lines.append(f"{key}={value}")
    meta = ("\n".join(meta_lines) + "\n").encode("utf-8")
    parts.append(_U32.pack(len(meta)))
    parts.append(meta)

    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> ModelCheckpoint:
    """Load a checkpoint saved by save_checkpoint; validates the container."""
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    magic = r.take(len(MAGIC), "magic bytes")
    if magic not in (MAGIC, _MAGIC_FLOAT32_ONLY):
        raise CheckpointError("bad magic bytes: not a checkpoint file")

    n_arrays = r.u32("array count")
    table: list[tuple[str, np.dtype, tuple[int, ...]]] = []
    for i in range(n_arrays):
        name_len = r.u32(f"name length of array {i}")
        if name_len == 0 or name_len > _MAX_NAME:
            raise CheckpointError(f"corrupt shape table: bad name length {name_len}")
        try:
            name = r.take(name_len, f"name of array {i}").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("corrupt shape table: undecodable name") from None
        code = 1 if magic == _MAGIC_FLOAT32_ONLY else r.u32(f"dtype code of {name!r}")
        if code not in _DTYPES:
            raise CheckpointError(f"corrupt shape table: dtype code {code} for {name!r}")
        rank = r.u32(f"rank of {name!r}")
        if rank > _MAX_RANK:
            raise CheckpointError(f"corrupt shape table: rank {rank} for {name!r}")
        shape = tuple(r.u32(f"extent of {name!r}") for _ in range(rank))
        table.append((name, _DTYPES[code], shape))
    if len({name for name, _, _ in table}) != n_arrays:
        raise CheckpointError("corrupt shape table: duplicate array name")

    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape in table:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = r.take(dtype.itemsize * count, f"payload of {name!r}")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    meta_len = r.u32("metadata length")
    meta_text = r.take(meta_len, "metadata block").decode("utf-8")
    if r.pos != len(buf):
        raise CheckpointError("trailing bytes after metadata block")

    epoch = 0
    metrics: dict[str, float] = {}
    metadata: dict[str, str] = {}
    for line in meta_text.split("\n"):  # only "\n" ends a line; save rejects it in entries
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"malformed metadata line {line!r}")
        if key == "epoch":
            epoch = int(value)
        elif key.startswith("metric."):
            metrics[key[len("metric."):]] = float(value)
        else:
            metadata[key] = value
    return ModelCheckpoint(epoch, arrays, metrics, metadata)
