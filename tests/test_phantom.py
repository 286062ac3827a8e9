import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import map_coordinates
from scipy.spatial import cKDTree

from tbcalib import phantom
from tbcalib.phantom import (PhantomSpec, RigidPose, _arc_distance_sq, _counter_noise,
                             _drawn_points, _spec_grid_origin, generate_phantom, read_pose,
                             rotation_angle_deg, rotation_from_euler_deg, sample_training_pair,
                             write_pose)
from tbcalib.volume import LabelMask, Volume


def small_spec(**kw):
    kw.setdefault("dims", (160, 64, 48))
    return PhantomSpec(**kw)


def _canal_distance_sq(q, spec: PhantomSpec):
    """Squared distance to the nearest of the two canal arcs."""
    d_left = _arc_distance_sq(q, -spec.half_separation, spec.major_radius, spec.arc_span_deg)
    d_right = _arc_distance_sq(q, +spec.half_separation, spec.major_radius, spec.arc_span_deg)
    return np.minimum(d_left, d_right)


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
    ("dims", (160.0, 96, 96)),           # numpy's TypeError at render time
    ("dims", (160.5, 96, 96)),
])
def test_spec_rejects_what_it_cannot_render(name, value):
    with pytest.raises(ValueError):
        PhantomSpec(**{name: value})


def test_spec_accepts_numpy_integer_dims():
    vol, mask, _ = generate_phantom(small_spec(dims=(np.int64(160), 64, 48)))
    ref_vol, ref_mask, _ = generate_phantom(small_spec())
    assert vol.voxels.tobytes() == ref_vol.voxels.tobytes()
    assert mask.voxels.tobytes() == ref_mask.voxels.tobytes()


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
    d2 = _canal_distance_sq(q, spec)
    assert d2.max() <= spec.tube_radius ** 2 + 1e-9


def test_unskewed_mask_lies_on_the_checked_arc():
    """The bounds check samples the arc that is drawn, gap on +y: every
    foreground voxel center of an unskewed phantom lies within r_c (plus half
    a sample step) of the sampled center-lines."""
    spec = small_spec()
    _, mask, _ = generate_phantom(spec)
    drawn = np.concatenate([_drawn_points(spec, c)
                            for c in (-spec.half_separation, spec.half_separation)])
    dist, _ = cKDTree(drawn).query(mask.world(mask.foreground_indices_xyz()))
    assert dist.max() <= spec.tube_radius + 0.01


def test_clipped_canals_raise():
    skew = RigidPose(np.eye(3), np.array([30.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        generate_phantom(small_spec(skew=skew))


def test_gap_ball_past_the_margin_raises():
    """Below a 180-degree span the `d_end` balls lie in the gap, and the
    bounds check sees them: shifted 14 mm along +y on a 160x64x48 grid
    (top face y = 16 mm), a 120-degree canal's ball centers sit at
    y = 15.5 mm, closer than 3*r_c to the face, while its arc stays below
    y = 12.5 mm."""
    spec = small_spec(arc_span_deg=120.0, skew=RigidPose(np.eye(3), np.array([0.0, 14.0, 0.0])))
    drawn = _drawn_points(spec, spec.half_separation)
    reach = 3.0 * spec.tube_radius
    assert drawn[:-2, 1].max() + reach <= 16.0 < drawn[-2:, 1].max() + reach
    with pytest.raises(ValueError):
        generate_phantom(spec)
    generate_phantom(small_spec(arc_span_deg=120.0,  # 2 mm lower, the balls fit
                                skew=RigidPose(np.eye(3), np.array([0.0, 12.0, 0.0]))))


# --- render oracle ---------------------------------------------------------

def reference_phantom(spec: PhantomSpec):
    """The former renderer, bounds check left out: both arc distances at
    every voxel of the grid, one z-slice at a time.  Returns (volume, mask)
    voxel arrays."""
    nx, ny, nz = spec.dims
    sp = np.asarray(spec.spacing, dtype=np.float64)
    origin = _spec_grid_origin(spec)
    inv = spec.skew.inverse()
    vol = np.empty((nz, ny, nx), dtype=np.float32)
    mask = np.empty((nz, ny, nx), dtype=np.uint8)
    xs = origin[0] + np.arange(nx) * sp[0]
    ys = origin[1] + np.arange(ny) * sp[1]
    r_in = spec.tube_radius ** 2
    r_shell = (spec.tube_radius + spec.shell_thickness) ** 2
    for iz in range(nz):
        wz = origin[2] + iz * sp[2]
        w = np.empty((ny, nx, 3), dtype=np.float64)
        w[..., 0] = xs[None, :]
        w[..., 1] = ys[:, None]
        w[..., 2] = wz
        q = inv.apply(w)
        d2 = _canal_distance_sq(q, spec)
        fg = d2 <= r_in
        shell = (d2 <= r_shell) & ~fg
        slab = np.full((ny, nx), spec.background_intensity, dtype=np.float64)
        slab[shell] = spec.shell_intensity
        slab[fg] = spec.canal_intensity
        if spec.noise_amplitude > 0:
            flat = (np.arange(ny * nx, dtype=np.uint64) + np.uint64(iz * ny * nx)).reshape(ny, nx)
            slab = slab + _counter_noise(spec.seed, flat, spec.noise_amplitude)
        vol[iz] = slab.astype(np.float32)
        mask[iz] = fg.astype(np.uint8)
    return vol, mask


SKEW = RigidPose(rotation_from_euler_deg(8, -6, 12), np.array([1.0, -2.0, 1.5]))


@pytest.mark.parametrize("kw", [
    dict(noise_amplitude=300.0, seed=3, skew=SKEW),
    dict(skew=SKEW),
    dict(dims=(112, 64, 64), half_separation=20.0, noise_amplitude=300.0, seed=8, skew=SKEW),
    dict(dims=(160, 64, 48), arc_span_deg=120.0, noise_amplitude=50.0),
    dict(dims=(160, 64, 48), arc_span_deg=360.0, skew=SKEW),
    dict(dims=(160, 80, 64), spacing=(0.45, 0.6, 0.8), skew=SKEW),
    dict(dims=(160, 64, 48), shell_thickness=0.0, noise_amplitude=80.0),
    dict(dims=(64, 64, 48), half_separation=4.0, skew=SKEW),
    dict(dims=(64, 64, 48), half_separation=3.5, noise_amplitude=20.0),
    dict(dims=(160, 64, 48), seed=2 ** 64 - 1, noise_amplitude=100.0),
    # shifted 10 mm up in z: the canal fits its margin, the shell crosses the face
    dict(dims=(160, 64, 48), skew=RigidPose(rotation_from_euler_deg(0, 0, 20),
                                            np.array([0.0, 0.0, 10.0]))),
    dict(dims=(160, 64, 48), major_radius=2.5, tube_radius=0.9, shell_thickness=3.0,
         canal_intensity=-200.0, background_intensity=-1000.0, shell_intensity=2500.5,
         noise_amplitude=150.0, seed=11, skew=SKEW),
    dict(shell_thickness=15.0, noise_amplitude=60.0, seed=12, skew=SKEW),  # box > 2**18 voxels
    dict(dims=(320, 192, 192), spacing=(0.25, 0.25, 0.25), tube_radius=1.2,
         skew=RigidPose(rotation_from_euler_deg(-14, 9, 13), np.array([2.5, -1.0, -2.0]))),
], ids=["default-noisy", "default-clean", "reduced", "span120", "span360", "anisotropic",
        "no-shell", "shells-overlap", "tubes-overlap", "max-seed", "near-margin",
        "intensities", "thick-shell", "battery-grid"])
def test_render_matches_per_slice_oracle(kw):
    spec = PhantomSpec(**kw)
    vol, mask, _ = generate_phantom(spec)
    ref_vol, ref_mask = reference_phantom(spec)
    assert vol.voxels.dtype == np.float32 and mask.voxels.dtype == np.uint8
    assert vol.voxels.tobytes() == ref_vol.tobytes()
    assert mask.voxels.tobytes() == ref_mask.tobytes()
    assert mask.foreground_count() > 0


def reference_noise(seed, indices, amplitude):
    """splitmix64 written out with fresh temporaries at every step."""
    with np.errstate(over="ignore"):
        z = indices.astype(np.uint64) + np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15)
        z = np.uint64(0x9E3779B97F4A7C15) + z
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (2.0 * (z.astype(np.float64) / float(2 ** 64)) - 1.0) * amplitude


@pytest.mark.parametrize("shape", [(1000,), (25, 40)], ids=["1d", "2d"])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_counter_noise_any_dtype_shape_and_scratch(shape, seed):
    flat = np.arange(10 ** 6, 10 ** 6 + math.prod(shape)).reshape(shape)
    want = reference_noise(seed, flat, 300.0)
    for dtype in (np.int64, np.uint64, np.int32):
        idx = flat.astype(dtype)
        assert _counter_noise(seed, idx, 300.0).tobytes() == want.tobytes()
        out = np.empty(shape)
        scratch = (np.empty(shape, np.uint64), np.empty(shape, np.uint64))
        got = _counter_noise(seed, idx, 300.0, out=out, scratch=scratch)
        assert got is out and out.tobytes() == want.tobytes()


@pytest.mark.parametrize("kw", [dict(noise_amplitude=300.0, seed=3, skew=SKEW),
                                dict(dims=(37, 29, 23), half_separation=5.0, major_radius=2.0,
                                     tube_radius=0.4, shell_thickness=0.5,
                                     noise_amplitude=40.0, seed=2 ** 64 - 1)],
                         ids=["default-noisy", "odd-grid"])
def test_render_independent_of_chunk_and_cpu_count(kw, monkeypatch):
    spec = PhantomSpec(**kw)
    ref_vol, ref_mask, _ = generate_phantom(spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers' chunks as finely as possible
    try:
        for chunk, cpus in [(1000, 1), (1000, 3), (phantom.RENDER_CHUNK, 1),
                            (phantom.RENDER_CHUNK, 3)]:
            monkeypatch.setattr(phantom, "RENDER_CHUNK", chunk)
            monkeypatch.setattr(phantom, "usable_cpus", lambda: cpus)
            vol, mask, _ = generate_phantom(spec)
            assert vol.voxels.tobytes() == ref_vol.voxels.tobytes(), (chunk, cpus)
            assert mask.voxels.tobytes() == ref_mask.voxels.tobytes(), (chunk, cpus)
    finally:
        sys.setswitchinterval(interval)


def test_noisy_render_allocates_only_outputs_and_scratch():
    spec = PhantomSpec(noise_amplitude=300.0, seed=4)
    generate_phantom(spec)  # warm-up: first-call allocations of numpy and the thread pool
    count = math.prod(spec.dims)
    workers = min(phantom.usable_cpus(), -(-count // phantom.RENDER_CHUNK))
    scratch = workers * 4 * 8 * phantom.RENDER_CHUNK  # index, two uint64, one float64
    tracemalloc.start()
    try:
        generate_phantom(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= count * (4 + 1) + scratch + 2 ** 20


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


def test_sample_pair_no_rotation_is_plain_window(monkeypatch):
    monkeypatch.setattr(phantom, "MAX_ROTATION_DEG", 0.0)
    vol, mask, _ = generate_phantom(small_spec())
    cub, lab = sample_training_pair(vol, mask, seed=2)
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
