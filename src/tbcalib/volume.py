"""Volume / mask data model, coordinate transforms, and MVOL file IO.

Voxel arrays are stored as numpy arrays of shape (nz, ny, nx), C-order,
so the in-memory byte order is x-fastest — the same layout the MVOL
payload uses on disk.  Volumes hold float32 intensities, masks hold
uint8 labels in {0, 1}.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

MVOL_MAGIC = b"MVOL"
MVOL_VERSION = 1
MVOL_HEADER_SIZE = 48
DTYPE_F32 = 1
DTYPE_U8 = 2

CUBOID_SIDE = 48

# Default display/normalization window, air to dense bone.
DEFAULT_WINDOW = (-1000.0, 3000.0)


class MvolError(Exception):
    """Base class for MVOL decode/encode failures."""


class BadMagicError(MvolError):
    pass


class TruncatedFileError(MvolError):
    pass


class BadDtypeError(MvolError):
    pass


class BadSpacingError(MvolError):
    pass


def parse_key_values(text: str) -> dict:
    """`key=value` lines to a dict of stripped strings; blank lines and
    lines starting with `#` are skipped, and a key given twice raises
    ValueError."""
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            key = key.strip()
            if key in kv:
                raise ValueError(f"key {key!r} given twice")
            kv[key] = value.strip()
    return kv


def usable_cpus() -> int:
    """The CPUs this process may use; sched_getaffinity exists only on some platforms."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def jsonable(obj):
    """obj with numpy scalars as Python numbers and non-finite floats as
    None, so that json.dumps(..., allow_nan=False) writes strict JSON."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def _check_geometry(shape_zyx, spacing, origin):
    if len(shape_zyx) != 3:
        raise ValueError(f"voxel array must be 3D, got shape {shape_zyx}")
    if any(n < 1 for n in shape_zyx):
        raise ValueError(f"all dims must be >= 1, got {shape_zyx}")
    spacing = np.asarray(spacing, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    if spacing.shape != (3,) or origin.shape != (3,):
        raise ValueError("spacing and origin must be 3-vectors")
    if not np.all(np.isfinite(spacing)) or np.any(spacing <= 0):
        raise BadSpacingError(f"spacing must be positive and finite, got {spacing}")
    if not np.all(np.isfinite(origin)):
        raise ValueError(f"origin must be finite, got {origin}")
    return spacing, origin


@dataclass
class _Grid3:
    """Shared geometry behaviour for Volume and LabelMask."""

    voxels: np.ndarray  # (nz, ny, nx)
    spacing: np.ndarray = field(default_factory=lambda: np.ones(3))  # (sx, sy, sz) mm
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))  # world mm of voxel (0,0,0)

    def __post_init__(self):
        self.spacing, self.origin = _check_geometry(self.voxels.shape, self.spacing, self.origin)
        self.voxels.setflags(write=False)

    @property
    def dims(self):
        """(nx, ny, nz) voxel counts."""
        nz, ny, nx = self.voxels.shape
        return (nx, ny, nz)

    def world(self, index_xyz):
        """World position (mm) of voxel center(s); index order (x, y, z)."""
        idx = np.asarray(index_xyz, dtype=np.float64)
        return self.origin + idx * self.spacing

    def same_grid(self, other) -> bool:
        return (
            self.voxels.shape == other.voxels.shape
            and np.array_equal(self.spacing, other.spacing)
            and np.array_equal(self.origin, other.origin)
        )


@dataclass
class Volume(_Grid3):
    """Scalar CT volume; float32 intensities on an anisotropic grid."""

    def __post_init__(self):
        self.voxels = np.ascontiguousarray(self.voxels, dtype=np.float32)
        super().__post_init__()


@dataclass
class LabelMask(_Grid3):
    """Binary voxel mask congruent to a Volume; 1 = canal foreground."""

    def __post_init__(self):
        self.voxels = np.ascontiguousarray(self.voxels, dtype=np.uint8)
        super().__post_init__()
        if self.voxels.max() > 1:
            bad = np.setdiff1d(np.unique(self.voxels), [0, 1])
            raise ValueError(f"mask labels must be 0/1, found {bad}")

    def foreground_count(self) -> int:
        return int(self.voxels.sum())

    def foreground_indices_xyz(self) -> np.ndarray:
        """Integer (x, y, z) indices of foreground voxels, shape (n, 3)."""
        zz, yy, xx = np.nonzero(self.voxels)
        return np.stack([xx, yy, zz], axis=1)


@dataclass
class Cuboid:
    """A 48^3 sub-volume plus its index offset (x, y, z) into the parent."""

    values: np.ndarray  # (48, 48, 48) as (z, y, x)
    offset: tuple  # (ox, oy, oz)

    def __post_init__(self):
        if self.values.shape != (CUBOID_SIDE,) * 3:
            raise ValueError(f"cuboid must be {CUBOID_SIDE}^3, got {self.values.shape}")
        self.offset = tuple(int(v) for v in self.offset)


def extract_cuboid(vol, offset_xyz) -> Cuboid:
    """Copy a 48^3 window starting at integer offset (x, y, z)."""
    ox, oy, oz = (int(v) for v in offset_xyz)
    nx, ny, nz = vol.dims
    if ox < 0 or oy < 0 or oz < 0 or ox + CUBOID_SIDE > nx or oy + CUBOID_SIDE > ny or oz + CUBOID_SIDE > nz:
        raise IndexError(
            f"cuboid offset {(ox, oy, oz)} + {CUBOID_SIDE} exceeds dims {(nx, ny, nz)}"
        )
    win = vol.voxels[oz:oz + CUBOID_SIDE, oy:oy + CUBOID_SIDE, ox:ox + CUBOID_SIDE]
    return Cuboid(values=win.copy(), offset=(ox, oy, oz))


def normalize_intensity(vol: Volume) -> Volume:
    """Clamp to DEFAULT_WINDOW [lo, hi] then map affinely to [0, 1]."""
    lo, hi = DEFAULT_WINDOW
    v = np.clip(vol.voxels, lo, hi, dtype=np.float32)
    v -= lo
    v /= hi - lo
    return Volume(voxels=v, spacing=vol.spacing.copy(), origin=vol.origin.copy())


# ---------------------------------------------------------------------------
# MVOL format
#
# little-endian, 48-byte header:
#   0-3   magic "MVOL"
#   4     version = 1
#   5     dtype: 1 = f32 (Volume), 2 = u8 (LabelMask)
#   6-7   reserved (zero)
#   8-19  dims nx, ny, nz as u32
#   20-31 spacing sx, sy, sz as f32 (mm)
#   32-43 origin as f32 (mm)
#   44-47 reserved (zero)
# payload: exactly nx*ny*nz values, x-fastest, to the end of the file.
# ---------------------------------------------------------------------------

_HEADER_FMT = "<4sBBH3I3f3fI"
# dtype code -> (the class it decodes to, its little-endian payload dtype)
_KINDS = {DTYPE_F32: (Volume, np.dtype("<f4")), DTYPE_U8: (LabelMask, np.dtype("<u1"))}


def write_mvol(obj, path) -> None:
    """Serialize a Volume or LabelMask to an MVOL file."""
    dtype_code = next((code for code, (cls, _) in _KINDS.items() if isinstance(obj, cls)), None)
    if dtype_code is None:
        raise TypeError(f"cannot write object of type {type(obj).__name__}")
    nx, ny, nz = obj.dims
    header = struct.pack(
        _HEADER_FMT,
        MVOL_MAGIC,
        MVOL_VERSION,
        dtype_code,
        0,
        nx, ny, nz,
        *np.asarray(obj.spacing, dtype=np.float32),
        *np.asarray(obj.origin, dtype=np.float32),
        0,
    )
    assert len(header) == MVOL_HEADER_SIZE
    with open(path, "wb") as f:
        f.write(header)
        f.write(obj.voxels.astype(_KINDS[dtype_code][1], copy=False).tobytes())


def read_mvol(path):
    """Decode an MVOL file; returns Volume or LabelMask per the dtype code."""
    with open(path, "rb") as f:
        header = f.read(MVOL_HEADER_SIZE)
        if len(header) < MVOL_HEADER_SIZE:
            raise TruncatedFileError(f"{path}: header truncated ({len(header)} bytes)")
        magic, version, dtype_code, _r0, nx, ny, nz, sx, sy, sz, ox, oy, oz, _r1 = struct.unpack(
            _HEADER_FMT, header
        )
        if magic != MVOL_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if version != MVOL_VERSION:
            raise MvolError(f"{path}: unsupported version {version}")
        if dtype_code not in _KINDS:
            raise BadDtypeError(f"{path}: unknown dtype code {dtype_code}")
        cls, dtype = _KINDS[dtype_code]
        if sx <= 0 or sy <= 0 or sz <= 0:
            raise BadSpacingError(f"{path}: non-positive spacing ({sx}, {sy}, {sz})")
        if 0 in (nx, ny, nz):
            raise MvolError(f"{path}: zero dimension in ({nx}, {ny}, {nz})")
        n = int(nx) * int(ny) * int(nz)
        payload = f.read()  # not f.read(n * dtype.itemsize): n can exceed any buffer size
        if len(payload) < n * dtype.itemsize:
            raise TruncatedFileError(
                f"{path}: payload truncated ({len(payload)} of {n * dtype.itemsize} bytes)"
            )
        if len(payload) > n * dtype.itemsize:
            raise MvolError(f"{path}: {len(payload) - n * dtype.itemsize} bytes past the "
                            f"payload of ({nx}, {ny}, {nz}) voxels")
    voxels = np.frombuffer(payload, dtype=dtype)
    try:
        return cls(voxels=voxels.reshape(nz, ny, nx).copy(), spacing=(sx, sy, sz),
                   origin=(ox, oy, oz))
    except ValueError as exc:  # a mask label other than 0/1, or a non-finite origin
        raise MvolError(f"{path}: {exc}") from None

