"""Synthetic temporal-bone phantoms with two canal arcs under a known rigid skew.

The canonical scene holds two mirror-symmetric arc tubes (major radius R_c,
tube radius r_c) lying in the z=0 plane, centered at (+/-c, 0, 0).  The scene
is rigidly moved by a known pose and sampled on a voxel grid; the analytic
mask is the ground truth against which segmentation and calibration are
verified.

The background noise is rendered on one thread per CPU, in place on scratch
buffers reused from chunk to chunk, so the render allocates nothing per chunk.
Each voxel's noise is keyed on its flat index: a phantom is byte-identical
for any CPU count.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import affine_transform

from .volume import CUBOID_SIDE, Cuboid, LabelMask, Volume, usable_cpus

ORTHO_TOL = 1e-9
FOREGROUND_BIAS = 0.75  # share of training windows centered on a foreground voxel
MAX_ROTATION_DEG = 5.0  # largest training rotation about each axis
RENDER_CHUNK = 1 << 15  # voxels per chunk of a render pass: 1 MiB of noise scratch fits an L2


@dataclass
class RigidPose:
    """Rotation + translation (world, millimeters); maps p -> R p + t."""

    rotation: np.ndarray  # (3, 3), orthonormal, det +1
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if self.rotation.shape != (3, 3) or self.translation.shape != (3,):
            raise ValueError("pose needs a 3x3 rotation and a 3-vector translation")
        if not (np.all(np.isfinite(self.rotation)) and np.all(np.isfinite(self.translation))):
            raise ValueError("pose entries must be finite")
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > ORTHO_TOL:
            raise ValueError(f"rotation not orthonormal (max |RtR - I| = {err:.3e})")
        if abs(np.linalg.det(self.rotation) - 1.0) > 1e-9:
            raise ValueError("rotation must have determinant +1")

    @classmethod
    def identity(cls) -> "RigidPose":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points):
        """Transform points of shape (..., 3)."""
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    def inverse(self) -> "RigidPose":
        rt = self.rotation.T
        return RigidPose(rt, -rt @ self.translation)

    def compose(self, other: "RigidPose") -> "RigidPose":
        """self o other: apply `other` first."""
        return RigidPose(self.rotation @ other.rotation,
                         self.rotation @ other.translation + self.translation)


def rotation_from_euler_deg(rx, ry, rz) -> np.ndarray:
    """R = Rz(rz) @ Ry(ry) @ Rx(rx), angles in degrees."""
    ax, ay, az = (math.radians(a) for a in (rx, ry, rz))
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rx_m = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry_m = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz_m = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz_m @ ry_m @ rx_m


def rotation_angle_deg(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Geodesic angle between two rotation matrices, degrees."""
    c = (np.trace(r_a.T @ r_b) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def write_pose(pose: RigidPose, path) -> None:
    """Nine rotation entries row-major, then three translation entries."""
    with open(path, "w") as f:
        for v in pose.rotation.ravel():
            f.write(f"{v:.12f}\n")
        for v in pose.translation:
            f.write(f"{v:.12f}\n")


class PoseError(ValueError):
    """A pose file that does not hold a rigid pose as write_pose writes it."""


def read_pose(path) -> RigidPose:
    """The pose write_pose wrote; raises PoseError for a malformed file."""
    try:
        with open(path) as f:
            vals = [float(line) for line in f if line.strip()]
        if len(vals) != 12:
            raise ValueError(f"pose file must hold 12 values, got {len(vals)}")
        return RigidPose(np.array(vals[:9]).reshape(3, 3), np.array(vals[9:]))
    except ValueError as exc:  # also a bad number, a non-finite or non-rigid pose
        raise PoseError(f"{path}: {exc}") from exc


@dataclass
class PhantomSpec:
    major_radius: float = 3.0       # R_c, mm
    tube_radius: float = 0.6        # r_c, mm
    arc_span_deg: float = 240.0     # occupied arc; gap faces +y in canonical pose
    half_separation: float = 30.0   # c, mm: canal centers at (+/-c, 0, 0)
    canal_intensity: float = 600.0
    background_intensity: float = 0.0
    shell_intensity: float = 1800.0
    shell_thickness: float = 2.0    # bone shell: within this distance of the tube surface
    noise_amplitude: float = 0.0    # additive uniform in [-a, +a]
    dims: tuple = (160, 96, 96)     # (nx, ny, nz)
    spacing: tuple = (0.5, 0.5, 0.5)
    skew: RigidPose = field(default_factory=RigidPose.identity)
    seed: int = 0

    def __post_init__(self):
        if not (self.major_radius > self.tube_radius > 0):
            raise ValueError("need R_c > r_c > 0")
        if not (0 < self.arc_span_deg <= 360):
            raise ValueError("arc span must be in (0, 360] degrees")
        if not self.half_separation > self.major_radius:  # NaN included
            raise ValueError("half-separation c must exceed R_c")
        if not all(math.isfinite(v) for v in (self.canal_intensity, self.background_intensity,
                                                 self.shell_intensity)):
            raise ValueError("intensities must be finite")
        if not (0 <= self.noise_amplitude < math.inf and 0 <= self.shell_thickness < math.inf):
            raise ValueError("noise amplitude and shell thickness must be finite and >= 0")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if len(self.dims) != 3 or not all(isinstance(n, numbers.Integral) and n >= 1
                                          for n in self.dims):
            raise ValueError(f"dims must be three integers >= 1, got {self.dims}")
        if len(self.spacing) != 3 or not all(0 < v < math.inf for v in self.spacing):
            raise ValueError(f"spacing must be three positive finite values, got {self.spacing}")


def _spec_grid_origin(spec: PhantomSpec):
    """Grid centered on world origin; voxel centers symmetric about x=0."""
    dims = np.asarray(spec.dims, dtype=np.float64)
    sp = np.asarray(spec.spacing, dtype=np.float64)
    return -(dims - 1) * sp / 2.0


def _arc_distance_sq(q, center_x, r_major, span_deg):
    """Squared distance from points q (..., 3) to the arc centered at (center_x, 0, 0).

    The arc lies in z=0 with radius r_major; its gap (360 - span degrees)
    is centered on the +y direction.
    """
    vx = q[..., 0] - center_x
    vy = q[..., 1]
    vz = q[..., 2]
    rho = np.hypot(vx, vy)
    theta = np.arctan2(vy, vx)
    half_gap = math.radians(360.0 - span_deg) / 2.0
    # Gap occupies theta in (pi/2 - half_gap, pi/2 + half_gap).
    off = np.abs(np.mod(theta + math.pi / 2.0, 2.0 * math.pi) - math.pi)
    in_arc = off >= half_gap
    d_arc = (rho - r_major) ** 2 + vz ** 2
    # The mirror images in y of the arc's endpoints: above a 180-degree span
    # they lie on the arc's body, so the drawn ends are flat cuts.
    t0 = -math.pi / 2.0 + half_gap
    t1 = -math.pi / 2.0 - half_gap
    d_end = np.full_like(d_arc, np.inf)
    for te in (t0, t1):
        ex = center_x + r_major * math.cos(te)
        ey = r_major * math.sin(te)
        d_end = np.minimum(
            d_end, (q[..., 0] - ex) ** 2 + (q[..., 1] - ey) ** 2 + vz ** 2
        )
    return np.where(in_arc, d_arc, d_end)


def _counter_noise(seed: int, indices: np.ndarray, amplitude: float, *, out=None,
                   scratch=None) -> np.ndarray:
    """Order-independent uniform noise in [-a, +a] keyed on (seed, voxel index).

    splitmix64-style mix so the value for a voxel depends only on its flat
    index, never on generation order.  Every step runs in place: on `out`
    (float64, shaped like `indices`) and on `scratch`, two uint64 arrays of
    that shape, each allocated here when not given.
    """
    x, t = scratch if scratch is not None else (np.empty(indices.shape, np.uint64)
                                                for _ in range(2))
    out = np.empty(indices.shape) if out is None else out
    # Cast first: an int64 array plus a uint64 scalar would promote to float64.
    np.copyto(x, indices, casting="unsafe")
    golden = 0x9E3779B97F4A7C15
    np.add(x, np.uint64((seed * golden + golden) % 2 ** 64), out=x)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None)):
        np.right_shift(x, np.uint64(shift), out=t)
        np.bitwise_xor(x, t, out=x)
        if factor is not None:
            np.multiply(x, np.uint64(factor), out=x)
    np.divide(x, float(2 ** 64), out=out)  # [0, 1)
    np.multiply(out, 2.0, out=out)
    np.subtract(out, 1.0, out=out)
    return np.multiply(out, amplitude, out=out)


def _drawn_points(spec: PhantomSpec, center_x: float, n=720):
    """World-space points one skewed canal is drawn around by `_arc_distance_sq`:
    n samples of its arc center-line (gap centered on +y), then the two
    `d_end` ball centers, which lie in the gap below a 180-degree span."""
    half_gap = math.radians(360.0 - spec.arc_span_deg) / 2.0
    arc = math.pi / 2.0 + half_gap + np.linspace(0.0, math.radians(spec.arc_span_deg), n)
    thetas = np.append(arc, (-math.pi / 2.0 + half_gap, -math.pi / 2.0 - half_gap))
    pts = np.stack([center_x + spec.major_radius * np.cos(thetas),
                    spec.major_radius * np.sin(thetas), np.zeros(n + 2)], axis=1)
    return spec.skew.apply(pts)


def generate_phantom(spec: PhantomSpec):
    """Render (Volume, LabelMask, RigidPose) for a phantom spec.

    The mask is computed analytically per voxel center and is noise-free;
    the volume adds counter-based uniform noise, keyed on the flat voxel
    index over the whole grid.  The background noise runs on one thread per
    CPU, each over a contiguous index range in RENDER_CHUNK-voxel chunks,
    in place on scratch allocated once per render by the calling thread;
    since each value depends only on its index, no byte depends on the
    chunking or the thread count.  Each canal's arc distance is computed only
    inside the box of its drawn points (`_drawn_points`) widened by tube +
    shell + one voxel; every voxel outside both boxes is background.
    Raises if either skewed canal comes within 2*r_c of the volume boundary.
    """
    dims = np.array(spec.dims)
    nx, ny, nz = spec.dims
    sp = np.asarray(spec.spacing, dtype=np.float64)
    origin = _spec_grid_origin(spec)

    # Bounds check: drawn points plus tube radius must fit with margin.
    margin = 2.0 * spec.tube_radius
    lo = origin - sp / 2.0
    hi = origin + (dims - 0.5) * sp
    canals = [(cx, _drawn_points(spec, cx))
              for cx in (-spec.half_separation, spec.half_separation)]
    reach = spec.tube_radius + margin
    for _, pts in canals:
        if np.any(pts - reach < lo) or np.any(pts + reach > hi):
            raise ValueError("canals are clipped by the volume bounds (including 2*r_c margin)")

    def level(value, flat):
        if spec.noise_amplitude > 0:
            return value + _counter_noise(spec.seed, flat, spec.noise_amplitude)
        return value

    count = nx * ny * nz
    vol = np.empty(count, dtype=np.float32)
    if spec.noise_amplitude > 0:
        # Contiguous index ranges, one per worker, each walked in chunks
        # through scratch allocated here: the workers allocate nothing.
        workers = min(usable_cpus(), -(-count // RENDER_CHUNK))
        edges = [count * i // workers for i in range(workers + 1)]
        side = min(RENDER_CHUNK, count)
        buffers = [(np.arange(begin, begin + side, dtype=np.uint64), np.empty(side, np.uint64),
                    np.empty(side, np.uint64), np.empty(side)) for begin in edges[:-1]]

        def fill(begin, end, bufs):
            idx, x, t, noise = bufs  # idx holds the flat indices of the current chunk
            for start in range(begin, end, RENDER_CHUNK):
                n = min(RENDER_CHUNK, end - start)
                _counter_noise(spec.seed, idx[:n], spec.noise_amplitude, out=noise[:n],
                               scratch=(x[:n], t[:n]))
                np.add(noise[:n], spec.background_intensity, out=vol[start:start + n])
                np.add(idx, np.uint64(RENDER_CHUNK), out=idx)

        with ThreadPoolExecutor(workers) as pool:  # numpy's ufuncs release the GIL
            list(pool.map(fill, edges[:-1], edges[1:], buffers))
    else:
        vol.fill(spec.background_intensity)

    inv = spec.skew.inverse()
    axes = [o + np.arange(n) * s for o, n, s in zip(origin, dims, sp)]  # voxel centers, x y z
    r_in = spec.tube_radius ** 2
    r_shell = (spec.tube_radius + spec.shell_thickness) ** 2
    pad = spec.tube_radius + spec.shell_thickness + sp
    shell, fg = [], []
    for cx, pts in canals:
        first = np.floor((pts.min(axis=0) - pad - origin) / sp)
        last = np.ceil((pts.max(axis=0) + pad - origin) / sp)
        (x0, y0, z0), (x1, y1, z1) = np.clip([first, last + 1], 0, dims).astype(int)
        step = max(1, RENDER_CHUNK // ((y1 - y0) * (x1 - x0)))  # z-planes per slab of the box
        for za in range(z0, z1, step):
            zb = min(za + step, z1)
            w = np.empty((zb - za, y1 - y0, x1 - x0, 3))
            w[..., 0] = axes[0][x0:x1]
            w[..., 1] = axes[1][y0:y1, None]
            w[..., 2] = axes[2][za:zb, None, None]
            d2 = _arc_distance_sq(inv.apply(w), cx, spec.major_radius, spec.arc_span_deg)
            iz, iy, ix = np.nonzero(d2 <= r_shell)
            flat = ((iz + za) * ny + iy + y0) * nx + ix + x0
            shell.append(flat)
            fg.append(flat[d2[iz, iy, ix] <= r_in])
    shell, fg = np.concatenate(shell), np.concatenate(fg)
    vol[shell] = level(spec.shell_intensity, shell)  # canal voxels go last, over any shell
    vol[fg] = level(spec.canal_intensity, fg)
    mask = np.zeros(count, dtype=np.uint8)
    mask[fg] = 1

    volume = Volume(voxels=vol.reshape(nz, ny, nx), spacing=sp, origin=origin)
    label = LabelMask(voxels=mask.reshape(nz, ny, nx), spacing=sp, origin=origin)
    return volume, label, spec.skew


def sample_training_pair(vol: Volume, mask: LabelMask, seed: int):
    """Draw one augmented 48^3 training pair (intensity cuboid, label cuboid).

    With probability FOREGROUND_BIAS the window is centered on a random
    foreground voxel, guaranteeing foreground presence; otherwise the offset
    is uniform.  A random rotation up to +/-MAX_ROTATION_DEG per axis is
    applied about the window center: trilinear for intensities, nearest
    neighbor for labels.  Deterministic in `seed`.
    """
    if not mask.same_grid(vol):
        raise ValueError("volume and mask grids must match")
    if mask.foreground_count() == 0:
        raise ValueError("mask has no foreground voxels")
    nx, ny, nz = vol.dims
    if min(nx, ny, nz) < CUBOID_SIDE:
        raise ValueError(f"volume smaller than {CUBOID_SIDE}^3")
    rng = np.random.default_rng(seed)

    if rng.random() < FOREGROUND_BIAS:
        fg = mask.foreground_indices_xyz()
        center = fg[rng.integers(len(fg))]
        offset = np.clip(center - CUBOID_SIDE // 2, 0,
                         np.array([nx, ny, nz]) - CUBOID_SIDE)
    else:
        offset = np.array([rng.integers(n - CUBOID_SIDE + 1) for n in (nx, ny, nz)])
    angles = rng.uniform(-MAX_ROTATION_DEG, MAX_ROTATION_DEG, size=3)

    rot = rotation_from_euler_deg(*angles)
    sp = vol.spacing
    half = (CUBOID_SIDE - 1) / 2.0
    # Output index i (x, y, z) samples input index A @ i + c: the window
    # rotated in world space about its center by rot^T.  At zero angles
    # A = I and c = offset, so the plain window comes back exactly.
    a = rot.T * sp / sp[:, None]
    c = offset + half - a.sum(axis=1) * half
    shape = (CUBOID_SIDE,) * 3
    cub = affine_transform(vol.voxels, a[::-1, ::-1], c[::-1], output_shape=shape,
                           order=1, mode="nearest")
    lab = affine_transform(mask.voxels, a[::-1, ::-1], c[::-1], output_shape=shape,
                           order=0, mode="nearest")
    return Cuboid(cub, offset), Cuboid(lab, offset)
