"""Checkpoint file for network weights, BN running statistics, and
(optionally) optimizer state.

Layout, little-endian:
  bytes 0-3   magic "MFFW"
  byte  4     version = 1
  byte  5     flags (bit 0: optimizer state present)
  bytes 6-7   reserved
  bytes 8-11  entry count as u32
  entries:    u16 name length, utf-8 name, u8 ndim, ndim u32 dims,
              u64 offset into the payload (in f32 elements)
  payload:    f32 values for every entry, concatenated
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"MFFW"
VERSION = 1


class CheckpointError(Exception):
    pass


def _collect_entries(net, optimizer=None):
    entries = []
    for name, p in net.named_params():
        entries.append((name, p.data))
    for name, b in net.named_buffers():
        entries.append((name, b))
    if optimizer is not None:
        entries.append(("adam.t", np.array([optimizer.t], dtype=np.float64)))
        for name, arr in optimizer.m.items():
            entries.append((f"adam.m.{name}", arr))
        for name, arr in optimizer.v.items():
            entries.append((f"adam.v.{name}", arr))
    return entries


def save_checkpoint(net, path, optimizer=None) -> None:
    entries = _collect_entries(net, optimizer)
    flags = 1 if optimizer is not None else 0
    manifest = bytearray()
    offset = 0
    for name, arr in entries:
        nb = name.encode("utf-8")
        manifest += struct.pack("<H", len(nb)) + nb
        manifest += struct.pack("<B", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        manifest += struct.pack("<Q", offset)
        offset += arr.size
    with open(path, "wb") as f:
        f.write(struct.pack("<4sBBHI", MAGIC, VERSION, flags, 0, len(entries)))
        f.write(bytes(manifest))
        for _, arr in entries:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_exact(f, n, path, what):
    data = f.read(n)
    if len(data) < n:
        raise CheckpointError(f"{path}: truncated {what}")
    return data


def read_checkpoint_arrays(path):
    """Return (dict name -> float32 array, flags)."""
    with open(path, "rb") as f:
        magic, version, flags, _r, count = struct.unpack(
            "<4sBBHI", _read_exact(f, 12, path, "header"))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        specs = []
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(f, 2, path, "manifest"))
            name = _read_exact(f, nlen, path, "manifest").decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, path, "manifest"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, path, "manifest"))
            (off,) = struct.unpack("<Q", _read_exact(f, 8, path, "manifest"))
            specs.append((name, shape, off))
        payload = np.frombuffer(f.read(), dtype="<f4")
    arrays = {}
    for name, shape, off in specs:
        n = int(np.prod(shape)) if shape else 1
        if off + n > payload.size:
            raise CheckpointError(f"{path}: payload truncated at entry {name}")
        arrays[name] = payload[off:off + n].reshape(shape).copy()
    return arrays, flags


def load_checkpoint(net, path, optimizer=None) -> None:
    """Load weights (and optimizer state, if present and requested) in place."""
    arrays, flags = read_checkpoint_arrays(path)
    for name, p in net.named_params():
        if name not in arrays:
            raise CheckpointError(f"{path}: missing parameter {name}")
        if arrays[name].shape != p.data.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name}: "
                f"{arrays[name].shape} vs {p.data.shape}")
        p.data[...] = arrays[name].astype(p.data.dtype)
    for name, b in net.named_buffers():
        if name in arrays:
            b[...] = arrays[name].astype(b.dtype)
    if optimizer is not None and (flags & 1):
        optimizer.t = int(arrays["adam.t"][0])
        for name in optimizer.m:
            optimizer.m[name][...] = arrays[f"adam.m.{name}"].astype(np.float64)
            optimizer.v[name][...] = arrays[f"adam.v.{name}"].astype(np.float64)
