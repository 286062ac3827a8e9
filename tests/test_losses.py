import math

import numpy as np
import pytest

from conftest import numeric_grad, rel_err
from tbcalib.losses import (class_weight, dsc_loss, dsc_metric, joint_loss,
                            weighted_ce)


def random_pg(rng, shape=(4, 4, 4)):
    p = rng.uniform(0.05, 0.95, size=shape)
    g = (rng.random(shape) < 0.4).astype(np.float64)
    return p, g


# --- hand-computed values ----------------------------------------------------

def test_dsc_loss_perfect_prediction():
    g = np.array([0.0, 1.0, 1.0, 0.0])
    loss, _ = dsc_loss(g, g)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_dsc_loss_half_overlap_hand_value():
    # p = g on half the foreground: inter=1, sums=1+2, smooth=1
    p = np.array([1.0, 0.0, 0.0])
    g = np.array([1.0, 1.0, 0.0])
    loss, _ = dsc_loss(p, g)
    assert loss == pytest.approx(1.0 - (2 * 1 + 1) / (1 + 2 + 1), abs=1e-12)


def test_dsc_loss_empty_empty():
    z = np.zeros(8)
    loss, grad = dsc_loss(z, z)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_class_weight_values():
    assert class_weight(np.zeros((4, 4))) == 1.0
    assert class_weight(np.ones((4, 4))) == 0.0
    labels = np.zeros(48 ** 3)
    labels[:553] = 1
    assert class_weight(labels) == pytest.approx(1.0 - 553 / 110592, abs=1e-15)


def test_weighted_ce_hand_value():
    # single foreground voxel predicted at 0.5 with weight 1: -log(0.5)
    p = np.array([0.5])
    g = np.array([1.0])
    loss, _ = weighted_ce(p, g, weight=1.0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_weighted_ce_strict_ignores_background():
    p = np.array([0.3, 0.9])
    g = np.array([0.0, 0.0])
    loss, grad = weighted_ce(p, g, weight=0.7, strict=True)
    assert loss == 0.0
    np.testing.assert_array_equal(grad, 0.0)
    loss_full, _ = weighted_ce(p, g, weight=0.7, strict=False)
    assert loss_full > 0.0


def test_weighted_ce_shape_mismatch():
    with pytest.raises(ValueError):
        weighted_ce(np.zeros(3), np.zeros(4), weight=0.5)


def test_joint_loss_lambda_linearity():
    """Finite difference of the total in lambda_k equals the aux head's own
    Dice + CE value, exactly (the total is affine in each lambda)."""
    rng = np.random.default_rng(0)
    main, g = random_pg(rng)
    auxes = [random_pg(rng)[0] for _ in range(2)]
    h = 1e-3
    for k in range(2):
        lam = [0.5, 0.25]
        lam_hi = list(lam)
        lam_lo = list(lam)
        lam_hi[k] += h
        lam_lo[k] -= h
        t_hi, _, _, _ = joint_loss(main, auxes, g, lambdas=lam_hi)
        t_lo, _, _, _ = joint_loss(main, auxes, g, lambdas=lam_lo)
        _, breakdown, _, _ = joint_loss(main, auxes, g, lambdas=lam)
        fd = (t_hi - t_lo) / (2 * h)
        aux_term = breakdown[f"dsc_aux_{k}"] + breakdown[f"ce_aux_{k}"]
        assert abs(fd - aux_term) < 1e-12


def test_joint_loss_breakdown_sums_to_total():
    rng = np.random.default_rng(1)
    main, g = random_pg(rng)
    auxes = [random_pg(rng)[0] for _ in range(2)]
    total, b, _, _ = joint_loss(main, auxes, g)
    recon = b["dsc_main"] + b["ce_main"] + \
        0.5 * (b["dsc_aux_0"] + b["ce_aux_0"]) + \
        0.25 * (b["dsc_aux_1"] + b["ce_aux_1"])
    assert total == pytest.approx(recon, abs=1e-12)
    assert b["total"] == total


def test_joint_loss_lambda_count_mismatch():
    rng = np.random.default_rng(2)
    main, g = random_pg(rng)
    with pytest.raises(ValueError):
        joint_loss(main, [main, main, main], g, lambdas=(0.5, 0.25))
    with pytest.raises(ValueError):  # a third lambda would be ignored
        joint_loss(main, [main, main], g, lambdas=(0.5, 0.25, 0.9))


# --- gradients ----------------------------------------------------------------

def test_dsc_loss_gradient():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p, g = random_pg(rng)
        _, grad = dsc_loss(p, g)
        num = numeric_grad(lambda: dsc_loss(p, g)[0], p)
        assert rel_err(grad, num) < 1e-6


def test_weighted_ce_gradient():
    rng = np.random.default_rng(4)
    for strict in (False, True):
        p, g = random_pg(rng)
        _, grad = weighted_ce(p, g, weight=0.8, strict=strict)
        num = numeric_grad(lambda: weighted_ce(p, g, weight=0.8, strict=strict)[0], p)
        assert rel_err(grad, num) < 1e-6


def test_joint_loss_gradients():
    rng = np.random.default_rng(5)
    main, g = random_pg(rng)
    auxes = [random_pg(rng)[0] for _ in range(2)]
    _, _, gmain, gaux = joint_loss(main, auxes, g)
    num_main = numeric_grad(lambda: joint_loss(main, auxes, g)[0], main)
    assert rel_err(gmain, num_main) < 1e-6
    for k in range(2):
        num_k = numeric_grad(lambda: joint_loss(main, auxes, g)[0], auxes[k])
        assert rel_err(gaux[k], num_k) < 1e-6


# --- metric --------------------------------------------------------------------

def test_dsc_metric_basics():
    a = np.array([1, 1, 0, 0], dtype=np.uint8)
    b = np.array([1, 0, 1, 0], dtype=np.uint8)
    assert dsc_metric(a, b) == pytest.approx(0.5)
    assert dsc_metric(a, b) == dsc_metric(b, a)
    assert dsc_metric(a, a) == 1.0
    assert dsc_metric(np.zeros(4), np.zeros(4)) == 1.0
    assert dsc_metric(a, np.zeros(4)) == 0.0


def test_dsc_metric_accepts_masks():
    from tbcalib.volume import LabelMask
    m = LabelMask(voxels=np.ones((2, 2, 2), dtype=np.uint8))
    assert dsc_metric(m, m) == 1.0
