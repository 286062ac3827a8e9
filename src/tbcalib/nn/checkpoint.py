"""Checkpoint file for network weights and BN running statistics.

Layout, little-endian:
  bytes 0-3   magic "MFFW"
  byte  4     version = 1
  byte  5     flags, written as 0 and ignored on read
  bytes 6-7   reserved
  bytes 8-11  entry count as u32
  entries:    u16 name length, utf-8 name, u8 ndim, ndim u32 dims,
              u64 offset into the payload (in f32 elements)
  payload:    f32 values for every entry, concatenated

The reader takes only this layout: each entry's offset is the summed size of
the entries before it, no name repeats, and the payload ends with the last
entry.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"MFFW"
VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(net, path) -> None:
    entries = [(name, p.data) for name, p in net.named_params()] + list(net.named_buffers())
    manifest = bytearray()
    offset = 0
    for name, arr in entries:
        nb = name.encode("utf-8")
        manifest += struct.pack("<H", len(nb)) + nb
        manifest += struct.pack("<B", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        manifest += struct.pack("<Q", offset)
        offset += arr.size
    with open(path, "wb") as f:
        f.write(struct.pack("<4sBBHI", MAGIC, VERSION, 0, 0, len(entries)))
        f.write(bytes(manifest))
        for _, arr in entries:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_exact(f, n, path, what):
    data = f.read(n)
    if len(data) < n:
        raise CheckpointError(f"{path}: truncated {what}")
    return data


def read_checkpoint_arrays(path) -> dict:
    """Return dict name -> float32 array."""
    with open(path, "rb") as f:
        magic, version, _flags, _r, count = struct.unpack(
            "<4sBBHI", _read_exact(f, 12, path, "header"))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        specs = []
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(f, 2, path, "manifest"))
            try:
                name = _read_exact(f, nlen, path, "manifest").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: entry name is not utf-8: {exc}") from None
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, path, "manifest"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, path, "manifest"))
            (off,) = struct.unpack("<Q", _read_exact(f, 8, path, "manifest"))
            specs.append((name, shape, off))
        data = f.read()
    sizes = [math.prod(shape) for _, shape, _ in specs]  # Python ints: u32 dims cannot wrap around
    extra = len(data) - 4 * sum(sizes)
    if extra:
        raise CheckpointError(f"{path}: payload truncated" if extra < 0 else
                              f"{path}: {extra} bytes after the last entry")
    payload = np.frombuffer(data, dtype="<f4")
    arrays, start = {}, 0
    for (name, shape, off), n in zip(specs, sizes):
        if name in arrays:
            raise CheckpointError(f"{path}: entry {name} repeated")
        if off != start:
            raise CheckpointError(f"{path}: entry {name} at offset {off}, expected {start}")
        arrays[name] = payload[off:off + n].reshape(shape).copy()
        start += n
    return arrays


def _copy_into(dst, src, name, path) -> None:
    if src.shape != dst.shape:
        raise CheckpointError(f"{path}: shape mismatch for {name}: {src.shape} vs {dst.shape}")
    dst[...] = src.astype(dst.dtype)


def load_checkpoint(net, path) -> None:
    """Load weights and BN running statistics in place; the file must hold
    exactly the net's entries, each with its shape."""
    arrays = read_checkpoint_arrays(path)
    entries = [(n, p.data, "parameter") for n, p in net.named_params()]
    for name, dst, kind in entries + [(n, b, "buffer") for n, b in net.named_buffers()]:
        if name not in arrays:
            raise CheckpointError(f"{path}: missing {kind} {name}")
        _copy_into(dst, arrays.pop(name), name, path)
    if arrays:
        raise CheckpointError(f"{path}: unexpected entry {next(iter(arrays))}")
