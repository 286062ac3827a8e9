"""Mask-driven geometric calibration.

From a binary canal mask: split left/right components, find the outermost
anchor points, iterate the mid-sagittal axis to a fixed point, fit the canal
plane by total least squares, return the orthonormal frame as the world ->
calibrated `RigidPose`, and resample onto an isotropic grid in that frame.

Resampling is one affine map, applied by `ndimage.affine_transform` only
where the input lands: the output starts as fill, and each slab of
SLAB_PLANES output planes samples the (y, x) box that the source box's image
covers within it.  A volume's source box is its whole grid, a mask's is its
foreground's bounding box, so a mask is resampled only where it can land.
The slabs run on a thread pool with one worker per CPU this process may use;
their boundaries do not depend on the worker count, so neither does the
output.  Mask work is confined to the foreground's bounding box: each mask is
labelled once on that crop (`segment.largest_components`), and ranked on it.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import ndimage

from .losses import dice_from_counts
from .phantom import RigidPose
from .segment import MIN_COMPONENT_VOXELS, foreground_box, largest_components
from .volume import LabelMask, Volume, jsonable, usable_cpus

DEFAULT_L0_MM = 0.1
DEFAULT_MAX_ITER = 50
DEFAULT_OUT_SPACING = 0.5
BBOX_PAD_VOXELS = 2
RANK_MIRROR_DSC = 0.8
RANK_SLICE_GAP = 1.0
# Output z planes per affine_transform call in resample.  Thinner slabs fit
# the rotated input more tightly but cost more calls; 8 planes measured
# fastest on the default 160x96x96 calib grids.
SLAB_PLANES = 8


class CalibrationError(Exception):
    pass


class InsufficientAnchorsError(CalibrationError):
    """Fewer than two usable canal components in the mask."""


@dataclass
class CalibrationReport:
    iterations: int = 0
    converged: bool = False
    l1_mm: float = float("nan")
    l0_mm: float = DEFAULT_L0_MM
    p1: list = field(default_factory=list)
    p2: list = field(default_factory=list)
    rms_mm: float = float("nan")
    angles_deg: list = field(default_factory=list)
    rank: str = "Failed"
    slice_gap: float = float("nan")
    mirror_dsc: float = float("nan")
    error: str = ""

    def to_json(self) -> str:
        return json.dumps(jsonable(asdict(self)), indent=2, allow_nan=False)


def split_components(mask: LabelMask):
    """26-connected component split; returns (left, right) world-coordinate
    point sets (n, 3), assigned by world-x centroid."""
    labeled, keep, box = largest_components(mask.voxels)
    if labeled.size == 0:
        raise InsufficientAnchorsError("mask is empty")
    if len(keep) < 2:
        raise InsufficientAnchorsError(
            f"insufficient anchors: need two components with >= {MIN_COMPONENT_VOXELS} voxels")
    offset = [sl.start for sl in box[::-1]]  # (x, y, z)
    sets = [mask.world(np.stack(np.nonzero(labeled == lab)[::-1], axis=1) + offset)
            for lab in keep]
    return tuple(sorted(sets, key=lambda s: s[:, 0].mean()))  # stable: ties keep label order


DEFAULT_ANCHOR_SLAB_MM = 0.75


def _slab_centroid(points: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Centroid of the points within DEFAULT_ANCHOR_SLAB_MM of the largest
    projection onto `direction`.

    A single extremal voxel sits anywhere on the nearly-flat cap of the canal
    surface, so its transverse position is quantization noise on the order of
    sqrt(R * spacing).  Averaging the whole cap slab is unbiased (the cap is
    symmetric about the true extremum) and shrinks that noise by sqrt(N).
    """
    proj = points @ direction
    return points[proj >= proj.max() - DEFAULT_ANCHOR_SLAB_MM].mean(axis=0)


def _check_refine_options(l0, max_iter):
    if not l0 > 0:  # NaN included; inf stops after one iteration
        raise ValueError(f"l0 must be positive, got {l0}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")


def _check_spacing(spacing):
    if not 0 < spacing < math.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing}")


def refine_sagittal(left: np.ndarray, right: np.ndarray,
                    l0: float = DEFAULT_L0_MM, max_iter: int = DEFAULT_MAX_ITER):
    """Fixed-point refinement of the inter-anchor axis.

    Starting from world x, repeatedly re-select the extremal anchors along
    the current direction and re-align the direction with P1 -> P2.  The
    residual L1 converts the angular change of the axis into millimeters of
    displacement at either anchor, which lies norm / 2 from the midpoint P0
    (norm = |P2 - P1|); iteration stops once L1 < l0.

    Anchors are sub-voxel estimates: the centroid of each component's
    extremal slab of depth DEFAULT_ANCHOR_SLAB_MM along the current direction
    (along -direction for the left canal).

    Returns (P0, x_axis, dict with iterations/l1/converged/p1/p2).
    """
    _check_refine_options(l0, max_iter)
    d = np.array([1.0, 0.0, 0.0])
    for iterations in range(1, max_iter + 1):
        p1, p2 = _slab_centroid(left, -d), _slab_centroid(right, d)
        sep = p2 - p1
        norm = np.linalg.norm(sep)
        if norm == 0:
            raise CalibrationError("anchor points coincide")
        d_old, d = d, sep / norm
        l1 = float(norm / 2 * math.acos(float(np.clip(d_old @ d, -1.0, 1.0))))
        if l1 < l0:
            break
    info = {"iterations": iterations, "l1_mm": l1, "converged": bool(l1 < l0), "p1": p1, "p2": p2}
    return (p1 + p2) / 2.0, d, info


def fit_lsc_plane(points: np.ndarray, x_axis: np.ndarray):
    """Total-least-squares plane through all foreground voxel centers.

    The normal (smallest-eigenvalue eigenvector of the centered covariance)
    is orthogonalized against x_axis and sign-fixed toward +z.  Returns
    (z_axis, rms residual in mm).
    """
    if len(points) < 3:
        raise CalibrationError("plane fit needs at least 3 points")
    centroid = points.mean(axis=0)
    centered = points - centroid
    cov = centered.T @ centered / len(points)
    evals, evecs = np.linalg.eigh(cov)
    if evals[1] < 1e-12:
        raise CalibrationError("degenerate (collinear) point set")
    normal = evecs[:, 0]
    rms = float(np.sqrt(np.mean((centered @ normal) ** 2)))
    normal = normal - (normal @ x_axis) * x_axis
    norm = np.linalg.norm(normal)
    if norm < 1e-9:
        raise CalibrationError("canal-plane normal parallel to the anchor axis")
    normal /= norm
    if normal[2] < 0:
        normal = -normal
    return normal, rms


def build_frame(p0, x_axis, z_axis) -> RigidPose:
    """The calibrated frame (x, y = z cross x, z) as the world -> calibrated
    pose q = R^T (p - P0): the pose's rotation rows are the frame's axes."""
    x = np.asarray(x_axis, dtype=np.float64)
    z = np.asarray(z_axis, dtype=np.float64)
    if abs(x @ z) > 1e-6:
        raise CalibrationError(f"axes not orthogonal (dot {x @ z:.2e})")
    # Re-orthogonalize exactly so the frame meets RigidPose's 1e-9 check.
    x = x / np.linalg.norm(x)
    z = z - (z @ x) * x
    z /= np.linalg.norm(z)
    # A transposed column stack: a contiguous np.stack rounds -rt @ p0 differently.
    rt = np.column_stack([x, np.cross(z, x), z]).T
    return RigidPose(rt, -rt @ np.asarray(p0, dtype=np.float64))


def decomposition_angles_deg(x_axis: np.ndarray) -> list:
    """Diagnostic angles of the sagittal normal projected onto each
    coordinate plane (xy, xz, yz), measured against the in-plane first axis."""
    x, y, z = x_axis
    return [
        math.degrees(math.atan2(y, x)),  # xy plane, vs +x
        math.degrees(math.atan2(z, x)),  # xz plane, vs +x
        math.degrees(math.atan2(z, y)) if (abs(y) + abs(z)) > 0 else 0.0,  # yz plane, vs +y
    ]


def _box_corners(lo, hi) -> np.ndarray:
    """The 8 corners (x, y, z) of the axis-aligned box [lo, hi], shape (8, 3)."""
    return np.array(list(itertools.product(*zip(lo, hi))), dtype=np.float64)


# The 12 edges of a _box_corners box: corner pairs whose indices differ in one bit.
_BOX_EDGES = np.array([(i, j) for i, j in itertools.combinations(range(8), 2)
                       if bin(i ^ j).count("1") == 1])


def _slab_windows(dst, out_dims):
    """Output index windows (z, y, x slices) that hold every output voxel in
    the parallelepiped with corners `dst` (8, 3; output x, y, z indices).

    The output's z range is cut into slabs of SLAB_PLANES planes.  A slab's
    window is the (y, x) bounding box of the parallelepiped cut to the slab
    widened by one plane on each side, padded by 1 and clipped; that cut's
    vertices are the corners inside it and the edges' crossings of its two
    planes.  Slabs that the parallelepiped misses get no window."""
    nx, ny, nz = out_dims
    p, q = dst[_BOX_EDGES[:, 0]], dst[_BOX_EDGES[:, 1]]
    crossing = p[:, 2] != q[:, 2]
    p, d = p[crossing], q[crossing] - p[crossing]
    windows = []
    for z0 in range(0, nz, SLAB_PLANES):
        z1 = min(z0 + SLAB_PLANES, nz)
        planes = np.array([z0 - 1.0, z1])  # the slab's planes z0..z1-1, widened by one
        t = (planes[:, None] - p[:, 2]) / d[:, 2]  # (plane, edge): where the edge meets it
        cuts = p[:, :2] + t[..., None] * d[:, :2]
        inside = (dst[:, 2] >= planes[0]) & (dst[:, 2] <= planes[1])
        pts = np.concatenate([dst[inside, :2], cuts[(t >= 0) & (t <= 1)]])
        if not len(pts):
            continue
        lo = np.clip(np.floor(pts.min(axis=0)).astype(int) - 1, 0, [nx - 1, ny - 1])
        hi = np.clip(np.ceil(pts.max(axis=0)).astype(int) + 1, 0, [nx - 1, ny - 1])
        windows.append((slice(z0, z1), slice(lo[1], hi[1] + 1), slice(lo[0], hi[0] + 1)))
    return windows


def resample(vol, pose: RigidPose, spacing: float = DEFAULT_OUT_SPACING):
    """Resample a Volume (trilinear) or LabelMask (nearest) onto an isotropic
    grid axis-aligned in the calibrated frame.

    `pose` maps world to calibrated coordinates.  The output grid covers the
    transformed bounding box of the input, padded by BBOX_PAD_VOXELS per side;
    out-of-field intensities take the input minimum (air), labels take 0.

    Output index i (x, y, z) samples input index A @ i + c, one affine map.
    Only samples inside the source box can differ from the fill: the whole
    grid [0, n-1] for a volume, the foreground's bounding box widened by half
    a voxel for a mask (nearest rounds nothing outside it into it).  The
    output is filled once, then each slab of SLAB_PLANES output planes gets
    one `ndimage.affine_transform` call on the window that the source box's
    image covers within it (`_slab_windows`), with offset c + A @ (window
    start).  The calls run on one thread per CPU this process may use; the
    windows do not depend on that count.
    """
    _check_spacing(spacing)
    nx, ny, nz = vol.dims
    src = _box_corners((0, 0, 0), (nx - 1, ny - 1, nz - 1))  # a volume's source box
    corners_cal = pose.apply(vol.world(src))
    lo = corners_cal.min(axis=0) - BBOX_PAD_VOXELS * spacing
    hi = corners_cal.max(axis=0) + BBOX_PAD_VOXELS * spacing
    out_dims = np.maximum(np.ceil((hi - lo) / spacing).astype(int) + 1, 1)

    inv = pose.inverse()
    a = inv.rotation * spacing / vol.spacing[:, None]
    c = (inv.rotation @ lo + inv.translation - vol.origin) / vol.spacing
    is_mask = isinstance(vol, LabelMask)
    cls = LabelMask if is_mask else Volume
    fill = 0 if is_mask else float(vol.voxels.min())
    out = np.full(out_dims[::-1], fill, dtype=vol.voxels.dtype)
    if is_mask:
        box = foreground_box(vol.voxels)
        if box is None:  # an empty mask samples zeros anywhere
            return cls(voxels=out, spacing=(spacing,) * 3, origin=lo)
        src_box = box[::-1]  # (x, y, z)
        src = _box_corners([b.start - 0.5 for b in src_box], [b.stop - 0.5 for b in src_box])
    windows = _slab_windows(np.linalg.solve(a, (src - c).T).T, out_dims)
    offsets = [(c + a @ [w[2].start, w[1].start, w[0].start])[::-1] for w in windows]

    def sample(window, offset):  # runs on worker threads: affine_transform releases the GIL
        ndimage.affine_transform(vol.voxels, a[::-1, ::-1], offset, output=out[window],
                                 order=0 if is_mask else 1, mode="constant", cval=fill)

    with ThreadPoolExecutor(usable_cpus()) as pool:  # starts at most one thread per window
        list(pool.map(sample, windows, offsets))  # re-raises a worker's exception
    return cls(voxels=out, spacing=(spacing,) * 3, origin=lo)


def _mirror_index(mask: LabelMask) -> int:
    """m such that x index i mirrors to m - i about world x = 0: world
    x_i = origin_x + i*sx maps to -x_i, i.e. index (-2*origin_x/sx) - i."""
    return int(np.rint(-2.0 * mask.origin[0] / mask.spacing[0]))


def rank_result(calibrated_mask: LabelMask):
    """Rank a calibrated mask: Excellent / Good / Failed.

    Excellent requires the two components' axial index ranges to overlap,
    centroid axial gap <= 1 slice, and mirror-DSC >= 0.8; Good requires only
    the range overlap; anything else (including a failed component split)
    is Failed.  Returns (rank, slice_gap, mirror_dsc).

    Everything is counted on the foreground's bounding box: mirror-DSC is the
    Dice of the mask A and its reflection M(A) about the calibrated
    mid-sagittal plane (world x = 0, index i -> `_mirror_index` - i), from
    |A|, |M(A)| (the voxels of A whose mirror lies on the grid) and
    |A n M(A)| (the voxels of A whose mirror lies in the box and in A).
    """
    labeled, keep, box = largest_components(calibrated_mask.voxels)
    if len(keep) < 2:
        return "Failed", float("nan"), float("nan")
    zs = [np.nonzero(labeled == lab)[0] + box[0].start for lab in keep]
    overlap = zs[0].min() <= zs[1].max() and zs[1].min() <= zs[0].max()
    gap = float(abs(zs[0].mean() - zs[1].mean()))
    crop = calibrated_mask.voxels[box] != 0
    x0, x1 = box[2].start, box[2].stop
    src = _mirror_index(calibrated_mask) - np.arange(x0, x1)
    on_grid = (src >= 0) & (src < calibrated_mask.voxels.shape[2])
    in_box = (src >= x0) & (src < x1)
    mirror = dice_from_counts(int((crop[:, :, in_box] & crop[:, :, src[in_box] - x0]).sum()),
                              int(crop.sum()), int(crop[:, :, on_grid].sum()))
    if not overlap:
        return "Failed", gap, mirror
    if gap <= RANK_SLICE_GAP and mirror >= RANK_MIRROR_DSC:
        return "Excellent", gap, mirror
    return "Good", gap, mirror


def calibrate(vol: Volume, mask: LabelMask,
              l0: float = DEFAULT_L0_MM, max_iter: int = DEFAULT_MAX_ITER,
              spacing: float = DEFAULT_OUT_SPACING):
    """Full pipeline: split -> refine -> fit -> frame (the pose) -> resample.

    Returns (calibrated volume, calibrated mask, CalibrationReport, pose)
    where pose maps world to calibrated coordinates.  On a CalibrationError
    (too few anchors, a degenerate canal geometry) the volume/mask/pose are
    None, the report rank is Failed and report.error holds the message.
    Raises ValueError, before any work, on an option that refine_sagittal or
    resample would refuse, or when the mask is not on the volume's grid.
    """
    _check_refine_options(l0, max_iter)
    _check_spacing(spacing)
    if not mask.same_grid(vol):
        raise ValueError("the mask is not on the volume's grid (dims, spacing and origin)")
    report = CalibrationReport(l0_mm=l0)
    try:
        left, right = split_components(mask)
        p0, x_axis, info = refine_sagittal(left, right, l0=l0, max_iter=max_iter)
        vars(report).update(info, p1=list(info["p1"]), p2=list(info["p2"]))
        z_axis, report.rms_mm = fit_lsc_plane(np.concatenate([left, right]), x_axis)
        pose = build_frame(p0, x_axis, z_axis)
    except CalibrationError as exc:
        report.error = str(exc)
        return None, None, report, None
    report.angles_deg = decomposition_angles_deg(pose.rotation[0])
    cal_vol = resample(vol, pose, spacing=spacing)
    cal_mask = resample(mask, pose, spacing=spacing)
    report.rank, report.slice_gap, report.mirror_dsc = rank_result(cal_mask)
    return cal_vol, cal_mask, report, pose
