"""End-to-end acceptance suite.

Each test pins one release gate: gradient correctness of every primitive and
loss, the 48->24->12->24->48 shape ladder, oracle equivalences for dilated
convolution and pooling, loss identities, pose recovery and symmetry
restoration on seeded phantoms, single-cuboid overfitting, the full
phantom -> segment -> calibrate pipeline, file-format round-trips, and the
paper's loop, where the served network's segmentation drives calibration.
"""

import importlib.util
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from scipy.spatial.transform import Rotation

from conftest import numeric_grad, rel_err
from tbcalib import calibration as cal
from tbcalib.losses import (class_weight, dsc_loss, dsc_metric, joint_loss,
                            weighted_ce)
from tbcalib.nn import MFFNet, NetworkConfig, load_checkpoint, ops
from tbcalib.phantom import (PhantomSpec, RigidPose, generate_phantom,
                             rotation_angle_deg, rotation_from_euler_deg)
from tbcalib.segment import sliding_window_infer, threshold_segment
from tbcalib.train import train_network
from tbcalib.volume import (BadDtypeError, BadMagicError, BadSpacingError,
                            LabelMask, TruncatedFileError, Volume, read_mvol,
                            write_mvol)

PRIMITIVE_TOL = 1e-4
LOSS_TOL = 1e-6
N_INSTANCES = 20


# -- 1: every primitive and loss vs 64-bit central finite differences ----------

def check(f_loss, analytic, x, tol):
    assert rel_err(analytic, numeric_grad(f_loss, x)) < tol


def test_gradient_suite_primitives_and_losses():
    start = time.time()
    rng = np.random.default_rng(42)

    for _ in range(N_INSTANCES):
        # conv3d: random channels, geometry, stride/dilation/padding
        ci, co = rng.integers(1, 3, size=2)
        stride, dilation, padding = [(1, 1, 0), (1, 1, 1), (1, 2, 2), (2, 1, 1)][
            rng.integers(4)]
        side = 5 if stride == 2 else int(rng.integers(4, 7))
        x = rng.normal(size=(ci, side, side, side))
        w = rng.normal(size=(co, ci, 3, 3, 3))
        b = rng.normal(size=co)
        r = rng.normal(size=ops.conv3d_forward(x, w, b, stride, dilation, padding).shape)

        def conv_loss():
            return float(np.sum(ops.conv3d_forward(x, w, b, stride, dilation, padding) * r))

        gx, gw, gb = ops.conv3d_backward(x, w, r, stride, dilation, padding)
        check(conv_loss, gx, x, PRIMITIVE_TOL)
        check(conv_loss, gw, w, PRIMITIVE_TOL)
        check(conv_loss, gb, b, PRIMITIVE_TOL)

        # transposed conv
        xt = rng.normal(size=(ci, 3, 3, 3))
        wt = rng.normal(size=(ci, co, 2, 2, 2))
        bt = rng.normal(size=co)
        rt = rng.normal(size=ops.conv_transpose3d_forward(xt, wt, bt).shape)

        def tconv_loss():
            return float(np.sum(ops.conv_transpose3d_forward(xt, wt, bt) * rt))

        gx, gw, gb = ops.conv_transpose3d_backward(xt, wt, rt)
        check(tconv_loss, gx, xt, PRIMITIVE_TOL)
        check(tconv_loss, gw, wt, PRIMITIVE_TOL)
        check(tconv_loss, gb, bt, PRIMITIVE_TOL)

        # pooling, both window configurations
        k, s, p = (2, 2, 0) if rng.random() < 0.5 else (3, 2, 1)
        xp = rng.normal(size=(int(rng.integers(1, 3)), 6, 6, 6))
        _, arg = ops.maxpool3d_forward(xp, k, s, p)
        _, counts = ops.avgpool3d_forward(xp, k, s, p)
        rp = rng.normal(size=arg.shape)

        def max_loss():
            return float(np.sum(ops.maxpool3d_forward(xp, k, s, p)[0] * rp))

        def avg_loss():
            return float(np.sum(ops.avgpool3d_forward(xp, k, s, p)[0] * rp))

        check(max_loss, ops.maxpool3d_backward(xp.shape, arg, rp, k, s, p), xp, PRIMITIVE_TOL)
        check(avg_loss, ops.avgpool3d_backward(xp.shape, counts, rp, k, s, p), xp, PRIMITIVE_TOL)

        # batch norm, training and inference modes
        c = int(rng.integers(1, 4))
        xb = rng.normal(size=(c, 4, 4, 4))
        gamma = rng.uniform(0.5, 1.5, c)
        beta = rng.normal(size=c)
        rm = rng.normal(size=c)
        rv = np.abs(rng.normal(size=c)) + 0.5
        training = bool(rng.random() < 0.5)

        def bn_loss():
            y, _ = ops.batchnorm_forward(xb, gamma, beta, rm.copy(), rv.copy(), training)
            return float(np.sum(y * rb))

        y, cache = ops.batchnorm_forward(xb, gamma, beta, rm.copy(), rv.copy(), training)
        rb = rng.normal(size=y.shape)
        gx, ggamma, gbeta = ops.batchnorm_backward(cache, rb)
        check(bn_loss, gx, xb, PRIMITIVE_TOL)
        check(bn_loss, ggamma, gamma, PRIMITIVE_TOL)
        check(bn_loss, gbeta, beta, PRIMITIVE_TOL)

        # activations (away from the ReLU kink)
        xa = rng.normal(size=(2, 4, 4, 4))
        xa[np.abs(xa) < 0.05] = 0.1
        ra = rng.normal(size=xa.shape)
        _, mask = ops.relu_forward(xa)
        check(lambda: float(np.sum(ops.relu_forward(xa)[0] * ra)),
              ops.relu_backward(mask, ra), xa, PRIMITIVE_TOL)
        _, ycache = ops.sigmoid_forward(xa)
        check(lambda: float(np.sum(ops.sigmoid_forward(xa)[0] * ra)),
              ops.sigmoid_backward(ycache, ra), xa, PRIMITIVE_TOL)

        # losses at the tighter tolerance
        pr = rng.uniform(0.05, 0.95, size=(4, 4, 4))
        g = (rng.random((4, 4, 4)) < 0.4).astype(np.float64)
        _, gd = dsc_loss(pr, g)
        check(lambda: dsc_loss(pr, g)[0], gd, pr, LOSS_TOL)
        wgt = float(rng.uniform(0.2, 0.99))
        strict = bool(rng.random() < 0.5)
        _, gc = weighted_ce(pr, g, wgt, strict=strict)
        check(lambda: weighted_ce(pr, g, wgt, strict=strict)[0], gc, pr, LOSS_TOL)
        auxes = [rng.uniform(0.05, 0.95, size=(4, 4, 4)) for _ in range(2)]
        _, _, gm, ga = joint_loss(pr, auxes, g)
        check(lambda: joint_loss(pr, auxes, g)[0], gm, pr, LOSS_TOL)
        check(lambda: joint_loss(pr, auxes, g)[0], ga[0], auxes[0], LOSS_TOL)
        check(lambda: joint_loss(pr, auxes, g)[0], ga[1], auxes[1], LOSS_TOL)

    assert time.time() - start < 120.0


# -- 2: shape ladder ------------------------------------------------------------

def test_shape_ladder_main_and_aux_are_input_sized():
    net = MFFNet(NetworkConfig(), seed=0)
    x = np.random.default_rng(0).random((1, 48, 48, 48)).astype(np.float32)
    main, auxes = net.forward(x, training=False)
    assert main.shape == (1, 48, 48, 48)
    assert [a.shape for a in auxes] == [(1, 48, 48, 48), (1, 48, 48, 48)]


# -- 3: dilated convolution equals zero-inflated dense convolution ----------------

def test_dilated_conv_zero_inflation_oracle_50_cases():
    rng = np.random.default_rng(1)
    for case in range(50):
        dilation = 2 + case % 2
        ci, co = rng.integers(1, 4, size=2)
        side = int(rng.integers(2 * dilation + 1, 10))
        x = rng.normal(size=(ci, side, side, side))
        w = rng.normal(size=(co, ci, 3, 3, 3))
        b = rng.normal(size=co)
        k_eff = 2 * dilation + 1
        w_inf = np.zeros((co, ci, k_eff, k_eff, k_eff))
        w_inf[:, :, ::dilation, ::dilation, ::dilation] = w
        a = ops.conv3d_forward(x, w, b, stride=1, dilation=dilation, padding=dilation)
        c = ops.conv3d_forward(x, w_inf, b, stride=1, dilation=1, padding=dilation)
        assert np.abs(a - c).max() < 1e-6


# -- 4: all four pooling branches vs nested loops ----------------------------------

def test_multipool_branches_match_nested_loop_reference():
    from test_nn_ops import naive_pool
    rng = np.random.default_rng(2)
    for side in (4, 6, 8):
        x = rng.normal(size=(2, side, side, side))
        branches = [
            (ops.maxpool3d_forward(x, 2, 2, 0)[0], naive_pool(x, 2, 2, 0, "max")),
            (ops.avgpool3d_forward(x, 2, 2, 0)[0], naive_pool(x, 2, 2, 0, "avg")),
            (ops.maxpool3d_forward(x, 3, 2, 1)[0], naive_pool(x, 3, 2, 1, "max")),
            (ops.avgpool3d_forward(x, 3, 2, 1)[0], naive_pool(x, 3, 2, 1, "avg")),
        ]
        shapes = {got.shape for got, _ in branches}
        assert shapes == {(2, side // 2, side // 2, side // 2)}
        for got, want in branches:
            np.testing.assert_array_equal(got, want)


# -- 5: loss identities --------------------------------------------------------------

def test_loss_identities():
    rng = np.random.default_rng(3)
    g = (rng.random((4, 4, 4)) < 0.4).astype(np.float64)
    assert dsc_loss(g, g)[0] == pytest.approx(0.0, abs=1e-12)

    a = (rng.random((4, 4, 4)) < 0.5)
    b = (rng.random((4, 4, 4)) < 0.5)
    assert dsc_metric(a, b) == dsc_metric(b, a)

    # class-weight extremes
    assert class_weight(np.zeros((6, 6, 6))) == 1.0
    assert class_weight(np.ones((6, 6, 6))) == 0.0

    # finite difference in each lambda equals that aux head's Dice + CE term
    main = rng.uniform(0.05, 0.95, size=(4, 4, 4))
    auxes = [rng.uniform(0.05, 0.95, size=(4, 4, 4)) for _ in range(2)]
    h = 1e-4
    for k in range(2):
        lam_hi = [0.5, 0.25]
        lam_lo = [0.5, 0.25]
        lam_hi[k] += h
        lam_lo[k] -= h
        fd = (joint_loss(main, auxes, g, lambdas=lam_hi)[0]
              - joint_loss(main, auxes, g, lambdas=lam_lo)[0]) / (2 * h)
        _, brk, _, _ = joint_loss(main, auxes, g)
        assert abs(fd - (brk[f"dsc_aux_{k}"] + brk[f"ce_aux_{k}"])) < 1e-12


# -- 6 & 7: pose recovery and symmetry restoration over 20 seeded phantoms ----------

@pytest.fixture(scope="module")
def calibration_battery():
    """20 phantoms with random skews up to +/-15 deg per axis, exact masks."""
    rng = np.random.default_rng(7)
    results = []
    for seed in range(20):
        angles = rng.uniform(-15, 15, 3)
        translation = rng.uniform(-3, 3, 3)
        spec = PhantomSpec(
            dims=(320, 192, 192), spacing=(0.25, 0.25, 0.25), tube_radius=1.2,
            skew=RigidPose(rotation_from_euler_deg(*angles), translation),
            seed=seed)
        vol, mask, pose_true = generate_phantom(spec)
        t0 = time.time()
        _, _, report, pose_est = cal.calibrate(vol, mask)
        elapsed = time.time() - t0
        resid = pose_est.compose(pose_true)
        results.append({
            "rot_err": rotation_angle_deg(resid.rotation, np.eye(3)),
            "tr_err": float(np.linalg.norm(resid.translation)),
            "slice_gap": report.slice_gap,
            "mirror_dsc": report.mirror_dsc,
            "seconds": elapsed,
        })
    return results


def test_pose_recovery_within_1deg_1mm(calibration_battery):
    ok = [r for r in calibration_battery
          if r["rot_err"] <= 1.0 and r["tr_err"] <= 1.0]
    assert len(ok) >= 19
    # axial centroid gap at the 0.5 mm output grid: <= 1 slice in all successes
    assert all(r["slice_gap"] <= 1.0 for r in ok)
    assert max(r["seconds"] for r in calibration_battery) < 60.0


def test_symmetry_restoration_mirror_dsc(calibration_battery):
    good = sum(r["mirror_dsc"] >= 0.8 for r in calibration_battery)
    assert good >= 19


# -- 8: overfit a single cuboid with the joint loss -----------------------------------

def test_overfit_single_cuboid_reaches_dsc_090():
    vol, mask, _ = generate_phantom(PhantomSpec())
    zz, yy, xx = np.nonzero(mask.voxels)
    left = xx < mask.dims[0] // 2
    offset = (max(0, int(xx[left].mean()) - 24),
              max(0, int(yy[left].mean()) - 24),
              max(0, int(zz[left].mean()) - 24))
    t0 = time.time()
    net, history = train_network(vol, mask, iterations=500, lr=5e-3, seed=0,
                                 fixed_offset=offset, stop_dsc=0.90)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    assert len(history) <= 500

    from tbcalib.volume import extract_cuboid, normalize_intensity
    x = extract_cuboid(normalize_intensity(vol), offset).values
    g = extract_cuboid(mask, offset).values
    # training DSC: batch statistics, the same quantity the early stop monitors
    main, _ = net.forward(x[None], training=True)
    assert dsc_metric(main[0] >= 0.5, g >= 0.5) >= 0.90

    # loss curve monotonically decreasing on average over 50-iteration windows
    totals = np.array([h["total"] for h in history])
    rolling = np.convolve(totals, np.ones(50) / 50, "valid")
    assert np.all(np.diff(rolling) < 0)


# -- 9: end-to-end phantom -> threshold -> calibrate -> rank ---------------------------

def test_end_to_end_default_phantom_rank_excellent():
    vol, _, _ = generate_phantom(PhantomSpec())
    seg = threshold_segment(vol, (300.0, 900.0))
    _, _, report, _ = cal.calibrate(vol, seg)
    assert report.rank == "Excellent"


def test_end_to_end_noisy_acceptable_in_18_of_20():
    acceptable = 0
    for seed in range(20):
        angles = np.random.default_rng(100 + seed).uniform(-15, 15, 3)
        spec = PhantomSpec(
            noise_amplitude=300.0,  # half the canal/background gap
            skew=RigidPose(rotation_from_euler_deg(*angles), np.zeros(3)),
            seed=seed)
        vol, _, _ = generate_phantom(spec)
        seg = threshold_segment(vol, (300.0, 900.0))
        _, _, report, _ = cal.calibrate(vol, seg)
        acceptable += report.rank in ("Excellent", "Good")
    assert acceptable >= 18


# -- 10: file format round-trips and malformed headers ----------------------------------

def test_mvol_roundtrip_100_randomized(tmp_path):
    rng = np.random.default_rng(4)
    for i in range(100):
        nx, ny, nz = rng.integers(1, 14, size=3)
        spacing = rng.uniform(0.1, 3.0, 3)
        origin = rng.uniform(-100, 100, 3)
        if i % 2 == 0:
            obj = Volume(voxels=rng.normal(size=(nz, ny, nx)).astype(np.float32),
                         spacing=spacing, origin=origin)
        else:
            obj = LabelMask(voxels=(rng.random((nz, ny, nx)) < 0.5).astype(np.uint8),
                            spacing=spacing, origin=origin)
        path = tmp_path / f"rt{i}.mvol"  # a new file each time: rewriting one is slow on ext4
        write_mvol(obj, path)
        back = read_mvol(path)
        path2 = tmp_path / f"rt{i}_again.mvol"
        write_mvol(back, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert np.array_equal(back.voxels, obj.voxels)


def test_mvol_malformed_headers_raise_distinct_errors(tmp_path):
    good = tmp_path / "good.mvol"
    write_mvol(Volume(voxels=np.zeros((3, 3, 3), dtype=np.float32)), good)
    raw = good.read_bytes()

    p = tmp_path / "bad.mvol"
    p.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(BadMagicError):
        read_mvol(p)

    p.write_bytes(raw[:20])
    with pytest.raises(TruncatedFileError):
        read_mvol(p)

    p.write_bytes(raw[:-8])
    with pytest.raises(TruncatedFileError):
        read_mvol(p)

    broken = bytearray(raw)
    broken[5] = 99
    p.write_bytes(bytes(broken))
    with pytest.raises(BadDtypeError):
        read_mvol(p)

    broken = bytearray(raw)
    struct.pack_into("<f", broken, 20, 0.0)
    p.write_bytes(bytes(broken))
    with pytest.raises(BadSpacingError):
        read_mvol(p)


# -- 11: the paper's loop: network segmentation drives calibration ----------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_network_route_calibrates_a_held_out_reduced_battery():
    """The benchmark's served checkpoint segments 8 reduced-field volumes
    (112x64x64, half-separation 20 mm, noise 300, skews up to 15 deg and
    3 mm per axis) drawn from seeds that no benchmark run uses, and each is
    calibrated from the network's mask.  Every volume ranks at least Good,
    reaches Dice >= 0.80 and lands within 8 deg / 1.5 mm of the inverse
    skew.  The share within 1 deg / 1 mm and each volume's roll (rotation
    error about x) are printed, not gated: rank_result cannot see roll."""
    spec = importlib.util.spec_from_file_location("bench_phantoms", PERFBENCH / "phantoms.py")
    phantoms = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(phantoms)
    net = MFFNet()
    load_checkpoint(net, PERFBENCH / "data" / "infer.mffw")
    within_1 = 0
    for s in range(100, 104):
        battery = phantoms.reduced_battery(np.random.default_rng([2, s]), 2)
        for j, (vol, truth, pose_true) in enumerate(battery):
            pred = sliding_window_infer(net, vol)
            _, _, report, pose = cal.calibrate(vol, pred)
            resid = pose.compose(pose_true)
            deg = rotation_angle_deg(resid.rotation, np.eye(3))
            mm = float(np.linalg.norm(resid.translation))
            roll = np.degrees(Rotation.from_matrix(resid.rotation).as_rotvec()[0])
            dice = dsc_metric(pred, truth)
            print(f"rng [2, {s}] volume {j}: rank {report.rank}, dice {dice:.3f}, "
                  f"{deg:.2f} deg / {mm:.2f} mm, roll {roll:+.2f} deg")
            assert report.rank in ("Excellent", "Good")
            assert dice >= 0.80 and deg <= 8.0 and mm <= 1.5
            within_1 += deg <= 1.0 and mm <= 1.0
    print(f"within 1 deg / 1 mm: {within_1}/8")
