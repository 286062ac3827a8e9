import math

import numpy as np
import pytest
from scipy.ndimage import map_coordinates
from scipy.spatial import cKDTree

from tbcalib.phantom import (PhantomSpec, RigidPose, _arc_sample_points, generate_phantom,
                             read_pose, rotation_angle_deg, rotation_from_euler_deg,
                             sample_training_pair, write_pose)
from tbcalib.volume import LabelMask, Volume


def small_spec(**kw):
    kw.setdefault("dims", (160, 64, 48))
    return PhantomSpec(**kw)


# --- rigid poses -----------------------------------------------------------

def test_pose_identity():
    p = RigidPose.identity()
    pts = np.random.default_rng(0).normal(size=(5, 3))
    np.testing.assert_allclose(p.apply(pts), pts)


def test_pose_rejects_non_rotation():
    with pytest.raises(ValueError):
        RigidPose(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        RigidPose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det -1


def test_pose_inverse_composes_to_identity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        rot = rotation_from_euler_deg(*rng.uniform(-40, 40, 3))
        pose = RigidPose(rot, rng.uniform(-10, 10, 3))
        resid = pose.compose(pose.inverse())
        np.testing.assert_allclose(resid.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(resid.translation, 0.0, atol=1e-12)


def test_compose_order():
    a = RigidPose(rotation_from_euler_deg(0, 0, 90), np.array([1.0, 0, 0]))
    b = RigidPose(np.eye(3), np.array([1.0, 0, 0]))
    # a.compose(b) applies b first: p -> Ra (p + tb) + ta
    out = a.compose(b).apply(np.zeros(3))
    np.testing.assert_allclose(out, [1.0, 1.0, 0.0], atol=1e-12)


def test_rotation_angle_deg():
    r = rotation_from_euler_deg(0, 0, 30)
    assert rotation_angle_deg(np.eye(3), r) == pytest.approx(30.0, abs=1e-9)


def test_euler_composition_order():
    # Rz @ Ry @ Rx: a pure-x rotation leaves +x fixed
    r = rotation_from_euler_deg(25, 0, 0)
    np.testing.assert_allclose(r @ [1, 0, 0], [1, 0, 0], atol=1e-12)
    r = rotation_from_euler_deg(0, 0, 90)
    np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_pose_file_roundtrip(tmp_path):
    pose = RigidPose(rotation_from_euler_deg(10, -20, 30), np.array([1.5, -2.5, 3.5]))
    path = tmp_path / "pose.txt"
    write_pose(pose, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 12  # 9 rotation entries then 3 translation entries
    back = read_pose(path)
    np.testing.assert_allclose(back.rotation, pose.rotation, atol=1e-11)
    np.testing.assert_allclose(back.translation, pose.translation, atol=1e-11)


def test_pose_file_wrong_length(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0\n" * 7)
    with pytest.raises(ValueError):
        read_pose(p)


# --- spec validation -------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(tube_radius=5.0)  # exceeds major radius
    with pytest.raises(ValueError):
        PhantomSpec(half_separation=2.0)  # less than major radius


@pytest.mark.parametrize("name, value", [
    ("half_separation", math.nan),       # fails no comparison-based check
    ("half_separation", 3.0),            # equal to R_c
    ("canal_intensity", math.inf),
    ("background_intensity", math.nan),
    ("shell_intensity", -math.inf),
    ("noise_amplitude", -1.0),           # was silently ignored
    ("noise_amplitude", math.nan),
    ("noise_amplitude", math.inf),
    ("shell_thickness", -0.5),
    ("shell_thickness", math.inf),
    ("seed", -3),                        # overflowed in the counter noise
    ("seed", 2 ** 64),
])
def test_spec_rejects_what_it_cannot_render(name, value):
    with pytest.raises(ValueError):
        PhantomSpec(**{name: value})


def test_spec_accepts_the_largest_seed():
    vol, _, _ = generate_phantom(small_spec(seed=2 ** 64 - 1, noise_amplitude=100.0))
    assert np.isfinite(vol.voxels).all() and len(np.unique(vol.voxels)) > 3


# --- phantom rendering -----------------------------------------------------

def test_identity_phantom_mirror_symmetric():
    _, mask, _ = generate_phantom(small_spec())
    assert np.array_equal(mask.voxels, mask.voxels[:, :, ::-1])


def test_mask_foreground_in_z_slab():
    # canonical canals lie in z = 0: |z| of any foreground center <= r_c
    spec = small_spec()
    _, mask, _ = generate_phantom(spec)
    w = mask.world(mask.foreground_indices_xyz())
    assert np.abs(w[:, 2]).max() <= spec.tube_radius


def test_mask_volume_close_to_analytic():
    spec = small_spec()
    _, mask, _ = generate_phantom(spec)
    # two tube segments: V = 2 * pi r^2 * (arc fraction) * 2 pi R
    analytic = 2 * math.pi * spec.tube_radius ** 2 * \
        math.radians(spec.arc_span_deg) * spec.major_radius
    voxel = mask.foreground_count() * float(np.prod(mask.spacing))
    assert abs(voxel - analytic) / analytic < 0.2


def test_intensities_three_level():
    spec = small_spec()
    vol, mask, _ = generate_phantom(spec)
    vals = np.unique(vol.voxels)
    assert set(vals) == {spec.background_intensity, spec.canal_intensity,
                         spec.shell_intensity}
    assert np.all(vol.voxels[mask.voxels == 1] == spec.canal_intensity)


def test_mask_independent_of_noise():
    _, clean, _ = generate_phantom(small_spec(seed=3))
    _, noisy, _ = generate_phantom(small_spec(seed=3, noise_amplitude=200.0))
    assert np.array_equal(clean.voxels, noisy.voxels)


def test_noise_deterministic_in_seed():
    va, _, _ = generate_phantom(small_spec(seed=5, noise_amplitude=100.0))
    vb, _, _ = generate_phantom(small_spec(seed=5, noise_amplitude=100.0))
    vc, _, _ = generate_phantom(small_spec(seed=6, noise_amplitude=100.0))
    assert np.array_equal(va.voxels, vb.voxels)
    assert not np.array_equal(va.voxels, vc.voxels)


def test_noise_bounded():
    spec = small_spec(noise_amplitude=150.0)
    vol, mask, _ = generate_phantom(spec)
    canal = vol.voxels[mask.voxels == 1]
    assert np.abs(canal - spec.canal_intensity).max() <= 150.0


def test_skewed_phantom_matches_transformed_geometry():
    """Foreground voxel centers pulled back through the inverse skew must lie
    on the canonical arcs (distance to center-line <= r_c)."""
    skew = RigidPose(rotation_from_euler_deg(8, -6, 12), np.array([1.0, -2.0, 1.5]))
    spec = small_spec(dims=(160, 80, 64), skew=skew)
    _, mask, pose = generate_phantom(spec)
    np.testing.assert_array_equal(pose.rotation, skew.rotation)
    q = skew.inverse().apply(mask.world(mask.foreground_indices_xyz()))
    from tbcalib.phantom import _canal_distance_sq
    d2 = _canal_distance_sq(q, spec)
    assert d2.max() <= spec.tube_radius ** 2 + 1e-9


def test_unskewed_mask_lies_on_the_checked_arc():
    """The bounds check samples the arc that is drawn, gap on +y: every
    foreground voxel center of an unskewed phantom lies within r_c (plus half
    a sample step) of the sampled center-lines."""
    spec = small_spec()
    _, mask, _ = generate_phantom(spec)
    dist, _ = cKDTree(_arc_sample_points(spec)).query(mask.world(mask.foreground_indices_xyz()))
    assert dist.max() <= spec.tube_radius + 0.01


def test_clipped_canals_raise():
    skew = RigidPose(np.eye(3), np.array([30.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        generate_phantom(small_spec(skew=skew))


# --- training-pair sampling ------------------------------------------------

def test_sample_pair_deterministic():
    vol, mask, _ = generate_phantom(small_spec())
    a = sample_training_pair(vol, mask, seed=11)
    b = sample_training_pair(vol, mask, seed=11)
    assert a[0].offset == b[0].offset
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)


def test_sample_pair_shapes_and_grid():
    vol, mask, _ = generate_phantom(small_spec())
    cub, lab = sample_training_pair(vol, mask, seed=0)
    assert cub.values.shape == (48, 48, 48)
    assert lab.values.shape == (48, 48, 48)
    assert cub.offset == lab.offset
    assert set(np.unique(lab.values)) <= {0, 1}


def test_sample_pair_foreground_bias():
    vol, mask, _ = generate_phantom(small_spec())
    hits = sum(
        sample_training_pair(vol, mask, seed=s)[1].values.any()
        for s in range(40)
    )
    # biased sampling should land foreground far more often than chance
    assert hits >= 30


def test_sample_pair_no_rotation_is_plain_window():
    vol, mask, _ = generate_phantom(small_spec())
    cub, lab = sample_training_pair(vol, mask, seed=2, max_rotation_deg=0.0)
    ox, oy, oz = cub.offset
    np.testing.assert_array_equal(
        cub.values, vol.voxels[oz:oz + 48, oy:oy + 48, ox:ox + 48])
    np.testing.assert_array_equal(
        lab.values, mask.voxels[oz:oz + 48, oy:oy + 48, ox:ox + 48])


def reference_training_pair(vol, mask, seed, max_rotation_deg=5.0, foreground_bias=0.75):
    """The former sampler: the same draws, a hand-built coordinate grid
    rotated about the window center, then map_coordinates."""
    nx, ny, nz = vol.dims
    rng = np.random.default_rng(seed)
    if rng.random() < foreground_bias:
        fg = mask.foreground_indices_xyz()
        center = fg[rng.integers(len(fg))]
        offset = np.clip(center - 24, 0, np.array([nx, ny, nz]) - 48)
    else:
        offset = np.array([rng.integers(n - 48 + 1) for n in (nx, ny, nz)])
    rot = rotation_from_euler_deg(*rng.uniform(-max_rotation_deg, max_rotation_deg, size=3))
    sp = vol.spacing
    half = 47 / 2.0
    li = np.arange(48)
    zz, yy, xx = np.meshgrid(li, li, li, indexing="ij")
    local = np.stack([xx, yy, zz], axis=-1).astype(np.float64) - half
    src_idx = ((local * sp) @ rot + half * sp) / sp + offset
    coords = [src_idx[..., 2], src_idx[..., 1], src_idx[..., 0]]
    return (tuple(int(v) for v in offset),
            map_coordinates(vol.voxels, coords, order=1, mode="nearest"),
            map_coordinates(mask.voxels, coords, order=0, mode="nearest"))


@pytest.mark.parametrize("spacing", [(0.5, 0.5, 0.5), (0.45, 0.6, 0.8)])
def test_sample_pair_matches_coordinate_grid_oracle(spacing):
    spec = small_spec(noise_amplitude=300.0, seed=4,
                      skew=RigidPose(rotation_from_euler_deg(4, -3, 6), np.zeros(3)))
    v, m, _ = generate_phantom(spec)
    vol = Volume(voxels=v.voxels, spacing=spacing, origin=v.origin)
    mask = LabelMask(voxels=m.voxels, spacing=spacing, origin=m.origin)
    for seed in range(8):
        cub, lab = sample_training_pair(vol, mask, seed=seed)
        offset, ref_cub, ref_lab = reference_training_pair(vol, mask, seed)
        assert cub.offset == lab.offset == offset
        assert cub.values.dtype == np.float32 and lab.values.dtype == np.uint8
        np.testing.assert_array_equal(lab.values, ref_lab)
        np.testing.assert_allclose(cub.values, ref_cub, rtol=1e-5,
                                   atol=1e-5 * np.abs(ref_cub).max())
