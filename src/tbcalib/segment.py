"""Mask production: intensity-band thresholding (baseline) and sliding-window
network inference with overlap averaging."""

from __future__ import annotations

import warnings

import numpy as np
from scipy import ndimage

from .volume import CUBOID_SIDE, LabelMask, Volume, normalize_intensity

MIN_COMPONENT_VOXELS = 20


class EmptySegmentationError(Exception):
    pass


def largest_components(binary: np.ndarray, n_keep: int = 2,
                       min_voxels: int = MIN_COMPONENT_VOXELS):
    """Label the 26-connected components of `binary` on its foreground's
    bounding box and pick the n largest of at least min_voxels.

    Returns (labeled, keep, box): the labels of binary[box], numbered in
    raster order as on the full array (add each slice's start to map an
    index back), and the kept labels, largest first.  An all-zero input
    gives an empty box."""
    found = ndimage.find_objects(np.asarray(binary, dtype=bool).view(np.uint8))
    box = found[0] if found else (slice(0, 0),) * 3
    labeled, _ = ndimage.label(binary[box], structure=np.ones((3, 3, 3), dtype=int))
    sizes = np.bincount(labeled.ravel())[1:]
    top = np.argsort(sizes)[::-1][:n_keep]
    return labeled, top[sizes[top] >= min_voxels] + 1, box


def keep_largest_components(binary: np.ndarray, n_keep: int = 2,
                            min_voxels: int = MIN_COMPONENT_VOXELS) -> np.ndarray:
    """Keep the n largest 26-connected components of at least min_voxels."""
    labeled, keep, box = largest_components(binary, n_keep, min_voxels)
    out = np.zeros(np.shape(binary), dtype=np.uint8)
    out[box] = np.isin(labeled, keep)
    return out


def threshold_segment(vol: Volume, band) -> LabelMask:
    """Voxels with intensity inside [lo, hi] become foreground, then only the
    two largest components are kept."""
    lo, hi = float(band[0]), float(band[1])
    if not lo < hi:
        raise ValueError(f"band must satisfy lo < hi, got ({lo}, {hi})")
    binary = (vol.voxels >= lo) & (vol.voxels <= hi)
    if not binary.any():
        raise EmptySegmentationError(f"no voxels inside band ({lo}, {hi})")
    filtered = keep_largest_components(binary)
    if not filtered.any():
        raise EmptySegmentationError("all components below the minimum size")
    return LabelMask(voxels=filtered, spacing=vol.spacing.copy(), origin=vol.origin.copy())


def _window_starts(n: int, window: int, stride: int):
    starts = list(range(0, max(n - window, 0) + 1, stride))
    if starts[-1] != n - window:
        starts.append(n - window)
    return starts


def sliding_window_infer(net, vol: Volume, stride: int = CUBOID_SIDE // 2,
                         threshold: float = 0.5) -> LabelMask:
    """Whole-volume inference: 48^3 windows at the given stride, overlapping
    probabilities averaged, thresholded, two-largest-components filter.

    Volumes smaller than the window are padded with the air value and the
    result cropped back.
    """
    w = CUBOID_SIDE
    data = normalize_intensity(vol).voxels
    nz, ny, nx = data.shape
    pz, py, px = (max(0, w - n) for n in (nz, ny, nx))
    if pz or py or px:
        data = np.pad(data, ((0, pz), (0, py), (0, px)),
                      constant_values=float(data.min()))
    dz, dy, dx = data.shape
    prob = np.zeros((dz, dy, dx), dtype=np.float64)
    count = np.zeros((dz, dy, dx), dtype=np.float64)
    for z0 in _window_starts(dz, w, stride):
        for y0 in _window_starts(dy, w, stride):
            for x0 in _window_starts(dx, w, stride):
                patch = data[z0:z0 + w, y0:y0 + w, x0:x0 + w]
                main, _ = net.forward(patch[None].astype(net.dtype), training=False)
                prob[z0:z0 + w, y0:y0 + w, x0:x0 + w] += main[0]
                count[z0:z0 + w, y0:y0 + w, x0:x0 + w] += 1.0
    prob /= count
    binary = (prob[:nz, :ny, :nx] >= threshold)
    filtered = keep_largest_components(binary)
    if not filtered.any():
        warnings.warn("empty segmentation: no component survived filtering")
    return LabelMask(voxels=filtered, spacing=vol.spacing.copy(), origin=vol.origin.copy())
