"""Mask production: intensity-band thresholding (baseline) and network
inference in one eval forward over the whole field, tiled with a halo above
TILE_VOXELS."""

from __future__ import annotations

import itertools

import numpy as np
from scipy import ndimage

from .volume import LabelMask, Volume, normalize_intensity

MIN_COMPONENT_VOXELS = 20
# Largest tile, halo included, that one eval forward covers.  The default
# 160x96x96 field (1.47 M voxels) is one tile and peaks at about 0.6 GB RSS.
TILE_VOXELS = 1 << 21


class EmptySegmentationError(Exception):
    pass


def foreground_box(binary: np.ndarray):
    """The (z, y, x) slices of the bounding box of binary's nonzero voxels, or
    None; from an any-projection over x, then one over the (z, y) box alone."""
    zy = np.any(binary, axis=2)
    zs, ys = np.flatnonzero(zy.any(axis=1)), np.flatnonzero(zy.any(axis=0))
    if not zs.size:
        return None
    box = (slice(int(zs[0]), int(zs[-1]) + 1), slice(int(ys[0]), int(ys[-1]) + 1))
    xs = np.flatnonzero(np.any(binary[box], axis=(0, 1)))
    return box + (slice(int(xs[0]), int(xs[-1]) + 1),)


def largest_components(binary: np.ndarray):
    """Label the 26-connected components of `binary` on its foreground's
    bounding box and pick the two largest (the two canals) of at least
    MIN_COMPONENT_VOXELS.

    Returns (labeled, keep, box): the labels of binary[box], numbered in
    raster order as on the full array (add each slice's start to map an
    index back), and the kept labels, largest first.  An all-zero input
    gives an empty box."""
    box = foreground_box(binary) or (slice(0, 0),) * 3
    labeled, _ = ndimage.label(binary[box], structure=np.ones((3, 3, 3), dtype=int))
    sizes = np.bincount(labeled.ravel())[1:]
    top = np.argsort(sizes)[::-1][:2]
    return labeled, top[sizes[top] >= MIN_COMPONENT_VOXELS] + 1, box


def keep_largest_components(binary: np.ndarray) -> np.ndarray:
    """Keep the two largest 26-connected components of at least
    MIN_COMPONENT_VOXELS."""
    labeled, keep, box = largest_components(binary)
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


def _tiles(shape, halo):
    """(core, tile) slice triples over a field whose dims are multiples of 4.

    The cores partition the field into blocks with sides that are multiples
    of 4; each tile is its core grown by `halo` on every side, clipped to
    the field.  The longest core side is split until the largest tile holds
    at most TILE_VOXELS voxels (or every core side is 4)."""
    counts = [1, 1, 1]
    while True:
        sides = [4 * -(-n // (4 * k)) for n, k in zip(shape, counts)]
        cores = [[slice(s, min(s + c, n)) for s in range(0, n, c)]
                 for n, c in zip(shape, sides)]
        tiles = [[slice(max(q.start - halo, 0), min(q.stop + halo, n)) for q in qs]
                 for qs, n in zip(cores, shape)]
        largest = np.prod([max(t.stop - t.start for t in ts) for ts in tiles])
        a = int(np.argmax(sides))
        if largest <= TILE_VOXELS or sides[a] == 4:
            break
        counts[a] += 1
    for pairs in itertools.product(*(list(zip(qs, ts)) for qs, ts in zip(cores, tiles))):
        yield tuple(q for q, _ in pairs), tuple(t for _, t in pairs)


def predict_probabilities(net, vol: Volume) -> np.ndarray:
    """The network's main output over the whole field, on the volume's grid.

    The normalized field is padded with the air value to multiples of 4 and
    run through one eval forward.  A field above TILE_VOXELS runs as tiles
    whose halo, the receptive radius rounded up to a multiple of 4, holds
    everything that reaches a core voxel, so the tiles give the whole-field
    result."""
    data = normalize_intensity(vol).voxels
    shape = data.shape
    data = np.pad(data, [(0, -n % 4) for n in shape], constant_values=float(data.min()))
    halo = 0
    if data.size > TILE_VOXELS:  # so a one-tile field needs only net.forward and net.dtype
        halo = 4 * -(-net.config.receptive_radius // 4)
    prob = np.empty(data.shape, dtype=net.dtype)
    for core, tile in _tiles(data.shape, halo):
        main, _ = net.forward(data[tile][None], training=False)
        prob[core] = main[0][tuple(slice(c.start - t.start, c.stop - t.start)
                                   for c, t in zip(core, tile))]
    return prob[:shape[0], :shape[1], :shape[2]]


def sliding_window_infer(net, vol: Volume, threshold: float = 0.5) -> LabelMask:
    """Network segmentation: predict_probabilities thresholded, then the two
    largest components kept.  Raises ValueError unless 0 < threshold < 1,
    and EmptySegmentationError when no component survives."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    filtered = keep_largest_components(predict_probabilities(net, vol) >= threshold)
    if not filtered.any():
        raise EmptySegmentationError("no component survived filtering")
    return LabelMask(voxels=filtered, spacing=vol.spacing.copy(), origin=vol.origin.copy())
