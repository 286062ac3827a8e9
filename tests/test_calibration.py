import json
import math

import numpy as np
import pytest
from scipy import ndimage

from tbcalib import calibration as cal
from tbcalib.losses import dsc_metric
from tbcalib.phantom import (PhantomSpec, RigidPose, generate_phantom,
                             rotation_angle_deg, rotation_from_euler_deg)
from tbcalib.segment import MIN_COMPONENT_VOXELS, foreground_box, keep_largest_components
from tbcalib.volume import LabelMask, Volume


def blob_mask(centers, side=40, spacing=0.5):
    """Mask with a 3^3 blob at each (x, y, z) index center."""
    vox = np.zeros((side, side, side), dtype=np.uint8)
    for cx, cy, cz in centers:
        vox[cz - 1:cz + 2, cy - 1:cy + 2, cx - 1:cx + 2] = 1
    # centered so voxel centers are symmetric about x = 0
    return LabelMask(voxels=vox, spacing=(spacing,) * 3,
                     origin=(-(side - 1) * spacing / 2,) * 3)


def small_phantom(**kw):
    kw.setdefault("dims", (160, 64, 48))
    return generate_phantom(PhantomSpec(**kw))


def mirror_mask_x(mask: LabelMask) -> LabelMask:
    """Reflect a mask about the calibrated mid-sagittal plane (world x = 0):
    the whole-grid reference for `rank_result`'s mirror-DSC."""
    nx = mask.voxels.shape[2]
    out = np.zeros_like(mask.voxels)
    src = cal._mirror_index(mask) - np.arange(nx)
    valid = (src >= 0) & (src < nx)
    out[:, :, valid] = mask.voxels[:, :, src[valid]]
    return LabelMask(voxels=out, spacing=mask.spacing.copy(), origin=mask.origin.copy())


# --- component split ---------------------------------------------------------

def test_split_components_left_right_by_world_x():
    m = blob_mask([(30, 20, 20), (10, 20, 20)])
    left, right = cal.split_components(m)
    assert left[:, 0].mean() < right[:, 0].mean()
    assert len(left) == len(right) == 27


def test_split_components_requires_two():
    with pytest.raises(cal.InsufficientAnchorsError):
        cal.split_components(blob_mask([(20, 20, 20)]))
    empty = LabelMask(voxels=np.zeros((8, 8, 8), dtype=np.uint8))
    with pytest.raises(cal.InsufficientAnchorsError):
        cal.split_components(empty)


def test_split_components_min_size_filter():
    vox = np.zeros((20, 20, 20), dtype=np.uint8)
    vox[5:8, 5:8, 5:8] = 1          # 27 voxels, keeps
    vox[15, 15, 15] = 1             # 1 voxel, below threshold
    m = LabelMask(voxels=vox)
    with pytest.raises(cal.InsufficientAnchorsError):
        cal.split_components(m)


def test_split_components_keeps_two_largest():
    vox = np.zeros((40, 40, 40), dtype=np.uint8)
    vox[5:10, 5:10, 5:10] = 1       # 125
    vox[5:9, 5:9, 30:34] = 1        # 64
    vox[30:33, 30:33, 20:23] = 1    # 27 (dropped)
    m = LabelMask(voxels=vox)
    left, right = cal.split_components(m)
    assert {len(left), len(right)} == {125, 64}


# Reference: full-grid labelling as it was before components were labelled on
# the foreground's bounding box.

def _full_grid_top(voxels, n_keep=2, min_voxels=MIN_COMPONENT_VOXELS):
    labeled, n = ndimage.label(voxels, structure=np.ones((3, 3, 3), dtype=int))
    sizes = ndimage.sum_labels(np.ones_like(labeled), labeled, index=np.arange(1, n + 1))
    order = np.argsort(sizes)[::-1][:n_keep]
    return labeled, [int(i) + 1 for i in order if sizes[i] >= min_voxels]


def _reference_split(mask):
    labeled, keep = _full_grid_top(mask.voxels)
    if len(keep) < 2:
        return None
    sets = []
    for lab in keep:
        zz, yy, xx = np.nonzero(labeled == lab)
        sets.append(mask.world(np.stack([xx, yy, zz], axis=1)))
    if sets[0][:, 0].mean() <= sets[1][:, 0].mean():
        return sets[0], sets[1]
    return sets[1], sets[0]


def _reference_rank(mask):
    labeled, keep = _full_grid_top(mask.voxels)
    if len(keep) < 2:
        return "Failed", float("nan"), float("nan")
    zs = [np.nonzero(labeled == lab)[0] for lab in keep]
    overlap = zs[0].min() <= zs[1].max() and zs[1].min() <= zs[0].max()
    gap = float(abs(zs[0].mean() - zs[1].mean()))
    mirror = dsc_metric(mask, mirror_mask_x(mask))
    if not overlap:
        return "Failed", gap, mirror
    if gap <= cal.RANK_SLICE_GAP and mirror >= cal.RANK_MIRROR_DSC:
        return "Excellent", gap, mirror
    return "Good", gap, mirror


def _box(vox, lo, hi):
    """Set the index box [lo, hi) (x, y, z) to 1."""
    vox[lo[2]:hi[2], lo[1]:hi[1], lo[0]:hi[0]] = 1


LABELLING_ORIGIN_X = -10.0


def _labelling_cases():
    cases = {}
    vox = np.zeros((40, 40, 40), dtype=np.uint8)
    _box(vox, (6, 17, 18), (9, 20, 21))       # three equal 27-voxel components
    _box(vox, (30, 18, 19), (33, 21, 22))
    _box(vox, (20, 5, 30), (23, 8, 33))
    cases["three_tied"] = vox
    vox = np.zeros((40, 40, 40), dtype=np.uint8)
    _box(vox, (5, 12, 14), (8, 15, 17))       # two equal components, mirror pair
    _box(vox, (32, 12, 14), (35, 15, 17))
    cases["two_tied"] = vox
    vox = np.zeros((40, 40, 40), dtype=np.uint8)
    _box(vox, (3, 10, 12), (8, 15, 17))       # 125
    _box(vox, (30, 11, 13), (34, 15, 17))     # 64
    _box(vox, (20, 30, 5), (22, 32, 7))       # 8, below MIN_COMPONENT_VOXELS
    cases["small_third"] = vox
    vox = np.zeros((40, 40, 40), dtype=np.uint8)
    _box(vox, (12, 7, 9), (17, 12, 14))
    cases["single"] = vox
    vox = np.zeros((40, 40, 40), dtype=np.uint8)
    _box(vox, (0, 0, 0), (4, 6, 5))           # touches three low faces
    _box(vox, (35, 34, 36), (40, 40, 40))     # touches three high faces
    cases["grid_edges"] = vox
    cases["empty"] = np.zeros((40, 40, 40), dtype=np.uint8)
    # Thresholded noise: many components, with ties among the small ones.
    vol, _, _ = small_phantom(noise_amplitude=500.0, seed=5)
    cases["noisy_band"] = ((vol.voxels >= 300.0) & (vol.voxels <= 900.0)).astype(np.uint8)
    cases = {name: (vox, LABELLING_ORIGIN_X) for name, vox in cases.items()}
    # Origins whose mirror index -2 * origin_x / 0.5 is not an integer, or
    # sends part or all of the mask's mirror off the grid.
    vox = np.zeros((40, 40, 40), dtype=np.uint8)
    _box(vox, (5, 12, 14), (9, 16, 18))
    _box(vox, (30, 13, 14), (35, 16, 19))
    cases["mirror_fractional"] = (vox, -9.65)       # mirror index 38.6
    cases["mirror_half_up"] = (vox, -9.875)         # 39.5, rounded to even
    vox = np.zeros((40, 40, 40), dtype=np.uint8)
    _box(vox, (3, 10, 12), (9, 15, 17))
    _box(vox, (12, 11, 12), (22, 15, 16))           # straddles the mirror's grid edge
    _box(vox, (26, 20, 10), (33, 24, 14))           # mirrors entirely off the grid
    cases["mirror_partly_off_grid"] = (vox, -4.15)  # 16.6
    cases["mirror_off_grid"] = (vox, 2.0)           # -8: no mirror on the grid
    return cases


LABELLING_CASES = _labelling_cases()


@pytest.mark.parametrize("name", sorted(LABELLING_CASES))
def test_labelling_matches_full_grid_oracle(name):
    vox, origin_x = LABELLING_CASES[name]
    mask = LabelMask(voxels=vox, spacing=(0.5, 0.6, 0.7), origin=(origin_x, -12.0, -7.0))
    labeled, keep = _full_grid_top(vox)
    np.testing.assert_array_equal(keep_largest_components(vox.astype(bool)),
                                  np.isin(labeled, keep).astype(np.uint8))
    ref = _reference_split(mask)
    if ref is None:
        with pytest.raises(cal.InsufficientAnchorsError):
            cal.split_components(mask)
    else:
        for got, want in zip(cal.split_components(mask), ref):
            np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(cal.rank_result(mask), _reference_rank(mask))


@pytest.mark.parametrize("name", sorted(LABELLING_CASES))
def test_foreground_box_matches_find_objects(name):
    vox = LABELLING_CASES[name][0]
    found = ndimage.find_objects(vox)
    assert foreground_box(vox) == (found[0] if found else None)
    assert foreground_box(vox.astype(bool)) == foreground_box(vox)


def test_foreground_box_of_empty_input_is_none():
    assert foreground_box(np.zeros((3, 4, 5), dtype=bool)) is None


def test_rank_result_labels_once(monkeypatch):
    calls = []
    label = ndimage.label

    def counting_label(*args, **kwargs):
        calls.append(1)
        return label(*args, **kwargs)

    monkeypatch.setattr(ndimage, "label", counting_label)
    rank, _, _ = cal.rank_result(blob_mask([(10, 20, 20), (29, 20, 20)]))
    assert rank == "Excellent"
    assert len(calls) == 1


# --- anchors -------------------------------------------------------------------

def test_refine_sagittal_single_iteration_when_l0_infinite():
    _, mask, _ = small_phantom()
    left, right = cal.split_components(mask)
    _, _, info = cal.refine_sagittal(left, right, l0=float("inf"))
    assert info["iterations"] == 1
    assert info["converged"]


def test_refine_sagittal_identity_phantom_axis():
    _, mask, _ = small_phantom()
    left, right = cal.split_components(mask)
    p0, d, info = cal.refine_sagittal(left, right)
    assert info["converged"]
    angle = math.degrees(math.acos(min(1.0, abs(d @ [1.0, 0, 0]))))
    assert angle < 0.1
    assert np.abs(p0).max() < 0.5  # mid-point near the world origin


def test_refine_sagittal_validation():
    left = np.zeros((5, 3))
    with pytest.raises(ValueError):
        cal.refine_sagittal(left, left, l0=0.0)
    with pytest.raises(ValueError):
        cal.refine_sagittal(left, left, max_iter=0)


# --- plane fit -----------------------------------------------------------------

def test_fit_plane_recovers_tilted_normal():
    rng = np.random.default_rng(0)
    n_true = np.array([0.1, -0.2, 1.0])
    n_true /= np.linalg.norm(n_true)
    u = np.array([1.0, 0, 0]) - n_true[0] * n_true
    u /= np.linalg.norm(u)
    v = np.cross(n_true, u)
    pts = rng.normal(size=(500, 2)) @ np.stack([u, v]) + rng.uniform(-3, 3, 3)
    z, rms = cal.fit_lsc_plane(pts, u)
    assert rms < 1e-9
    assert abs(z @ n_true) > 1.0 - 1e-9
    assert z[2] > 0  # sign fixed toward +z


def test_fit_plane_rms_of_noisy_points():
    rng = np.random.default_rng(1)
    pts = np.zeros((1000, 3))
    pts[:, :2] = rng.normal(size=(1000, 2)) * 5
    pts[:, 2] = rng.normal(size=1000) * 0.2
    z, rms = cal.fit_lsc_plane(pts, np.array([1.0, 0, 0]))
    assert 0.15 < rms < 0.25


def test_fit_plane_degenerate_collinear():
    pts = np.outer(np.arange(10, dtype=float), [1.0, 0, 0])
    with pytest.raises(cal.CalibrationError):
        cal.fit_lsc_plane(pts, np.array([0.0, 1.0, 0]))


# --- frame / transform ------------------------------------------------------------

def test_build_frame_right_handed_orthonormal():
    r = cal.build_frame(np.zeros(3), [1.0, 0, 0], [0.0, 0, 1.0]).rotation
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(r[1], [0, 1.0, 0], atol=1e-12)  # y axis


def test_build_frame_rejects_non_orthogonal_axes():
    with pytest.raises(cal.CalibrationError):
        cal.build_frame(np.zeros(3), [1.0, 0, 0], [0.8, 0, 0.6])


def test_build_frame_maps_frame_to_canonical():
    rot = rotation_from_euler_deg(10, 20, 30)
    p0 = np.array([3.0, -1.0, 2.0])
    pose = cal.build_frame(p0, rot[:, 0], rot[:, 2])
    np.testing.assert_allclose(pose.apply(p0), 0.0, atol=1e-12)
    np.testing.assert_allclose(pose.apply(p0 + rot[:, 0]), [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(pose.apply(p0 + rot[:, 2]), [0, 0, 1], atol=1e-12)


def test_decomposition_angles():
    a = cal.decomposition_angles_deg(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(a, [0.0, 0.0, 0.0], atol=1e-12)
    a = cal.decomposition_angles_deg(np.array([math.cos(0.3), math.sin(0.3), 0.0]))
    assert a[0] == pytest.approx(math.degrees(0.3))


# --- resampling --------------------------------------------------------------------

def test_resample_identity_preserves_values():
    rng = np.random.default_rng(2)
    v = Volume(voxels=rng.normal(size=(10, 12, 14)).astype(np.float32),
               spacing=(0.5, 0.5, 0.5), origin=(-3.0, -3.0, -2.5))
    out = cal.resample(v, RigidPose.identity(), spacing=0.5)
    # inside the padding, the output grid coincides with input voxel centers;
    # trilinear is exact there
    p = cal.BBOX_PAD_VOXELS
    assert out.voxels.shape == tuple(n + 2 * p for n in v.voxels.shape)
    np.testing.assert_allclose(out.voxels[p:-p, p:-p, p:-p], v.voxels, atol=1e-5)


def test_resample_mask_nearest_binary():
    m = blob_mask([(10, 20, 20), (30, 20, 20)])
    pose = RigidPose(rotation_from_euler_deg(0, 0, 10), np.array([0.3, -0.2, 0.1]))
    out = cal.resample(m, pose, spacing=0.5)
    assert isinstance(out, LabelMask)
    assert set(np.unique(out.voxels)) <= {0, 1}
    # voxel count approximately preserved under a rigid move
    assert abs(out.foreground_count() - m.foreground_count()) <= \
        0.3 * m.foreground_count()


def _reference_resample(vol, pose, spacing=cal.DEFAULT_OUT_SPACING,
                        pad_voxels=cal.BBOX_PAD_VOXELS):
    """Per-slice map_coordinates on a hand-built coordinate grid, as resample
    was written before it became one affine_transform call."""
    nx, ny, nz = vol.dims
    corners_idx = np.array([[x, y, z] for x in (0, nx - 1) for y in (0, ny - 1)
                            for z in (0, nz - 1)], dtype=np.float64)
    corners_cal = pose.apply(vol.world(corners_idx))
    lo = corners_cal.min(axis=0) - pad_voxels * spacing
    hi = corners_cal.max(axis=0) + pad_voxels * spacing
    onx, ony, onz = (int(v) for v in np.maximum(np.ceil((hi - lo) / spacing).astype(int) + 1, 1))
    inv = pose.inverse()
    is_mask = isinstance(vol, LabelMask)
    fill = 0 if is_mask else float(vol.voxels.min())
    out = np.empty((onz, ony, onx), dtype=vol.voxels.dtype)
    xs = lo[0] + np.arange(onx) * spacing
    ys = lo[1] + np.arange(ony) * spacing
    for iz in range(onz):
        q = np.empty((ony, onx, 3), dtype=np.float64)
        q[..., 0] = xs[None, :]
        q[..., 1] = ys[:, None]
        q[..., 2] = lo[2] + iz * spacing
        idx = (q @ inv.rotation.T + inv.translation - vol.origin) / vol.spacing
        out[iz] = ndimage.map_coordinates(
            vol.voxels, [idx[..., 2], idx[..., 1], idx[..., 0]],
            order=0 if is_mask else 1, mode="constant", cval=fill)
    return out, lo


OBLIQUE_POSES = [
    RigidPose(rotation_from_euler_deg(12.0, -10.0, 15.0), np.array([0.7, -1.1, 0.4])),
    RigidPose(rotation_from_euler_deg(-14.0, 11.0, -13.0), np.array([-0.3, 0.9, -1.6])),
    RigidPose(rotation_from_euler_deg(10.5, 14.5, -11.0), np.array([1.2, 0.2, 0.8])),
    # Axis-aligned: the foreground box maps onto an output box with no slack.
    RigidPose(np.eye(3), np.array([0.37, -0.21, 0.13])),
    RigidPose(rotation_from_euler_deg(0.0, 0.0, 90.0), np.array([-0.41, 0.29, 0.17])),
]


def _oracle_inputs():
    rng = np.random.default_rng(11)
    shape = (18, 22, 26)  # (nz, ny, nx)
    spacing, origin = (0.45, 0.6, 0.8), (-5.0, -6.5, -7.0)
    vol = Volume(voxels=ndimage.gaussian_filter(rng.normal(size=shape), 1.0).astype(np.float32)
                 * 1000.0 - 200.0, spacing=spacing, origin=origin)
    masks = {}
    vox = np.zeros(shape, dtype=np.uint8)
    vox[6:11, 8:13, 3:9] = 1
    vox[7:12, 9:14, 17:23] = 1
    masks["interior"] = vox
    vox = np.zeros(shape, dtype=np.uint8)
    vox[:4, 15:, :5] = 1         # touches the low-z, high-y and low-x faces
    vox[12:, :3, 20:] = 1        # touches the high-z, low-y and high-x faces
    masks["grid_edge"] = vox
    masks["empty"] = np.zeros(shape, dtype=np.uint8)
    return vol, {k: LabelMask(voxels=v, spacing=spacing, origin=origin) for k, v in masks.items()}


@pytest.mark.parametrize("pose_id", range(len(OBLIQUE_POSES)))
def test_resample_matches_per_slice_oracle(pose_id):
    pose = OBLIQUE_POSES[pose_id]
    # Axis-aligned poses put samples exactly on the input's edge, where
    # mode="constant" jumps to the fill value on a last-bit difference of the
    # sample position: compare only masks that stay off the edge there.
    oblique = pose_id < 3
    vol, masks = _oracle_inputs()
    ref, lo = _reference_resample(vol, pose, spacing=0.5)
    out = cal.resample(vol, pose, spacing=0.5)
    assert out.voxels.dtype == np.float32
    np.testing.assert_array_equal(out.origin, lo)
    if oblique:
        np.testing.assert_allclose(out.voxels, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())
    for name, mask in masks.items():
        ref, lo = _reference_resample(mask, pose, spacing=0.5)
        out = cal.resample(mask, pose, spacing=0.5)
        assert isinstance(out, LabelMask)
        np.testing.assert_array_equal(out.origin, lo)
        if oblique or name != "grid_edge":
            np.testing.assert_array_equal(out.voxels, ref, err_msg=name)
        assert (out.foreground_count() == 0) == (name == "empty")


def _source_outside(vol, pose, out):
    """Output voxels whose source index lies outside [0, n-1]^3 (by more
    than 1e-6, clear of the last-bit edge cases)."""
    z, y, x = np.indices(out.voxels.shape)
    q = out.origin + np.stack([x, y, z], axis=-1) * out.spacing
    inv = pose.inverse()
    idx = (q @ inv.rotation.T + inv.translation - vol.origin) / vol.spacing
    return ((idx < -1e-6) | (idx > np.array(vol.dims) - 1 + 1e-6)).any(axis=-1)


@pytest.mark.parametrize("planes", [1, 5])
def test_resample_slabs_and_workers_are_harmless(monkeypatch, planes):
    monkeypatch.setattr(cal, "SLAB_PLANES", planes)
    vol, masks = _oracle_inputs()
    inputs = {"volume": vol, **masks}
    spanning = 0
    for pose_id, pose in enumerate(OBLIQUE_POSES):
        default = {name: cal.resample(v, pose, spacing=0.5) for name, v in inputs.items()}
        for cpus in (1, 3):
            with monkeypatch.context() as m:
                m.setattr(cal, "usable_cpus", lambda n=cpus: n)
                for name, v in inputs.items():
                    np.testing.assert_array_equal(cal.resample(v, pose, spacing=0.5).voxels,
                                                  default[name].voxels,
                                                  err_msg=f"{name}, {cpus} CPUs")
        for name, v in inputs.items():
            out = default[name]
            fill = 0 if name in masks else vol.voxels.min()
            assert (out.voxels[_source_outside(v, pose, out)] == fill).all(), name
            ref, lo = _reference_resample(v, pose, spacing=0.5)
            np.testing.assert_array_equal(out.origin, lo)
            if pose_id >= 3:  # axis-aligned: see test_resample_matches_per_slice_oracle
                continue
            if name == "volume":
                np.testing.assert_allclose(out.voxels, ref, rtol=1e-5,
                                           atol=1e-5 * np.abs(ref).max())
            else:
                np.testing.assert_array_equal(out.voxels, ref, err_msg=name)
                zs = np.nonzero(out.voxels)[0]
                spanning += name != "empty" and zs.min() // planes < zs.max() // planes
    assert spanning > 0  # some mask's foreground crosses a slab boundary


def test_resample_rejects_bad_spacing():
    m = blob_mask([(10, 20, 20), (30, 20, 20)])
    with pytest.raises(ValueError):
        cal.resample(m, RigidPose.identity(), spacing=0.0)


def test_mirror_mask_of_symmetric_mask_is_identical():
    _, mask, _ = small_phantom()
    mirrored = mirror_mask_x(mask)
    np.testing.assert_array_equal(mirrored.voxels, mask.voxels)


def test_mirror_mask_moves_one_sided_blob():
    m = blob_mask([(10, 20, 20), (30, 20, 20)])
    one_sided = LabelMask(voxels=(m.voxels * (np.arange(40) < 20)[None, None, :]).astype(np.uint8),
                          spacing=m.spacing, origin=m.origin)
    mirrored = mirror_mask_x(one_sided)
    assert dsc_metric(one_sided, mirrored) == 0.0


# --- ranking ------------------------------------------------------------------------

def test_rank_excellent_for_symmetric_mask():
    m = blob_mask([(10, 20, 20), (29, 20, 20)])  # symmetric about x = 0
    rank, gap, mirror = cal.rank_result(m)
    assert rank == "Excellent"
    assert gap == 0.0
    assert mirror == 1.0


def test_rank_good_when_asymmetric_but_overlapping():
    m = blob_mask([(10, 20, 20), (29, 26, 21)])  # y/x offset kills the mirror
    rank, gap, mirror = cal.rank_result(m)
    assert rank == "Good"
    assert mirror < 0.8


def test_rank_failed_no_axial_overlap():
    m = blob_mask([(10, 20, 10), (29, 20, 30)])
    rank, _, _ = cal.rank_result(m)
    assert rank == "Failed"


def test_rank_failed_single_component():
    m = blob_mask([(20, 20, 20)])
    rank, gap, mirror = cal.rank_result(m)
    assert rank == "Failed"
    assert math.isnan(gap) and math.isnan(mirror)


# --- full pipeline -------------------------------------------------------------------

def test_calibrate_identity_phantom_excellent():
    vol, mask, _ = small_phantom()
    cal_vol, cal_mask, report, pose = cal.calibrate(vol, mask)
    assert report.rank == "Excellent"
    assert report.converged
    assert report.mirror_dsc > 0.95
    assert rotation_angle_deg(pose.rotation, np.eye(3)) < 0.2
    assert np.linalg.norm(pose.translation) < 0.5
    assert cal_vol.spacing[0] == 0.5
    assert cal_mask.same_grid(cal_vol)


def test_calibrate_undoes_known_skew():
    skew = RigidPose(rotation_from_euler_deg(6, -9, 12), np.array([1.5, -2.0, 1.0]))
    vol, mask, pose_true = generate_phantom(
        PhantomSpec(dims=(176, 80, 64), skew=skew))
    _, _, report, pose_est = cal.calibrate(vol, mask)
    resid = pose_est.compose(pose_true)
    assert rotation_angle_deg(resid.rotation, np.eye(3)) < 1.5
    assert np.linalg.norm(resid.translation) < 1.0
    assert report.rank in ("Excellent", "Good")


def test_calibrate_empty_mask_reports_failure():
    vol, mask, _ = small_phantom()
    empty = LabelMask(voxels=np.zeros_like(mask.voxels),
                      spacing=mask.spacing, origin=mask.origin)
    cal_vol, cal_mask, report, pose = cal.calibrate(vol, empty)
    assert cal_vol is None and cal_mask is None and pose is None
    assert report.rank == "Failed"
    assert report.error


def test_calibrate_collinear_mask_reports_failure():
    """Two anchors on one line give no canal plane: fit_lsc_plane's
    CalibrationError becomes a Failed report, as an anchor failure does."""
    voxels = np.zeros((8, 8, 64), dtype=np.uint8)
    voxels[4, 4, 2:28] = voxels[4, 4, 36:62] = 1
    mask = LabelMask(voxels=voxels)
    vol = Volume(voxels=voxels.astype(np.float32))
    cal_vol, cal_mask, report, pose = cal.calibrate(vol, mask)
    assert cal_vol is None and cal_mask is None and pose is None
    assert report.rank == "Failed"
    assert report.error == "degenerate (collinear) point set"
    assert report.iterations == 1 and report.converged


def test_calibrate_rejects_mask_off_the_volume_grid():
    """A 0.6 mm volume with the 0.5 mm mask of the same dims: the pose would
    be found on one grid and applied to another."""
    vol, _, _ = small_phantom(spacing=(0.6, 0.6, 0.6))
    _, mask, _ = small_phantom()
    assert vol.dims == mask.dims
    with pytest.raises(ValueError, match="grid"):
        cal.calibrate(vol, mask)


def test_report_json_roundtrip():
    rep = cal.CalibrationReport(iterations=3, converged=True, l1_mm=0.01,
                                p1=[1.0, 2.0, 3.0], p2=[4.0, 5.0, 6.0],
                                rms_mm=0.2, angles_deg=[1.0, 2.0, 3.0],
                                rank="Good", slice_gap=0.5, mirror_dsc=0.7)
    back = cal.CalibrationReport(**json.loads(rep.to_json()))
    assert back == rep


def test_report_json_bytes():
    """report.json layout is pinned: field order, indent, NaN as null, numpy scalars."""
    rep = cal.CalibrationReport(iterations=3, converged=True, l1_mm=0.0625, l0_mm=0.1,
                                p1=list(np.array([-30.5, 0.1, -1e-17])),
                                p2=list(np.array([30.25, 0.2, 3.0])),
                                rms_mm=0.3, angles_deg=[0.0, -1.5, 90.0], rank="Good",
                                slice_gap=1.25, mirror_dsc=float("nan"))
    assert rep.to_json() == (
        '{\n  "iterations": 3,\n  "converged": true,\n  "l1_mm": 0.0625,\n  "l0_mm": 0.1,\n'
        '  "p1": [\n    -30.5,\n    0.1,\n    -1e-17\n  ],\n'
        '  "p2": [\n    30.25,\n    0.2,\n    3.0\n  ],\n  "rms_mm": 0.3,\n'
        '  "angles_deg": [\n    0.0,\n    -1.5,\n    90.0\n  ],\n  "rank": "Good",\n'
        '  "slice_gap": 1.25,\n  "mirror_dsc": null,\n  "error": ""\n}')
