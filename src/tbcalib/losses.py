"""Training losses (overlap loss, weighted cross-entropy, joint loss) and the
overlap evaluation metric, all with analytic gradients.

Reductions run in numpy's default sequential order so results are bitwise
reproducible.
"""

from __future__ import annotations

import numpy as np

DICE_SMOOTH = 1.0
CE_CLAMP = 1e-7
DEFAULT_LAMBDAS = (0.5, 0.25)


def dsc_loss(p: np.ndarray, g: np.ndarray):
    """Soft Dice loss 1 - (2*sum(p*g) + s) / (sum(p) + sum(g) + s).

    Returns (loss, dloss/dp).  The smoothing term makes the empty-empty
    case well defined (loss 0) and keeps gradients bounded.
    """
    p = np.asarray(p, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    inter = float(np.sum(p * g))
    denom = float(np.sum(p) + np.sum(g)) + DICE_SMOOTH
    num = 2.0 * inter + DICE_SMOOTH
    loss = 1.0 - num / denom
    grad = -(2.0 * g * denom - num) / denom ** 2
    return loss, grad


def class_weight(labels: np.ndarray) -> float:
    """W = 1 - (foreground voxels / total voxels) of a label cuboid."""
    labels = np.asarray(labels)
    return 1.0 - float(np.count_nonzero(labels)) / labels.size


def weighted_ce(p: np.ndarray, g: np.ndarray, weight: float, strict: bool = False):
    """Class-weighted cross-entropy; returns (loss, dloss/dp).

    Foreground voxels are weighted by `weight`, background by 1 - weight.
    With strict=True only the foreground log-likelihood term is kept
    (background voxels then contribute nothing to the loss).
    """
    p = np.asarray(p, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    n = p.size
    ph = np.clip(p, CE_CLAMP, 1.0 - CE_CLAMP)
    inside = (p > CE_CLAMP) & (p < 1.0 - CE_CLAMP)  # clamp gradient gate
    fg_term = weight * g * np.log(ph)
    if strict:
        loss = -float(np.sum(fg_term)) / n
        grad = -(weight * g / ph) / n
    else:
        bg_term = (1.0 - weight) * (1.0 - g) * np.log(1.0 - ph)
        loss = -float(np.sum(fg_term + bg_term)) / n
        grad = -(weight * g / ph - (1.0 - weight) * (1.0 - g) / (1.0 - ph)) / n
    return loss, np.where(inside, grad, 0.0)


def joint_loss(main_p: np.ndarray, aux_ps, g: np.ndarray, lambdas=DEFAULT_LAMBDAS):
    """Joint training loss: Dice + CE weighted by class_weight(g) on the main
    head plus lambda-weighted Dice + CE terms for each auxiliary head.

    Returns (total, breakdown dict, grad wrt main, [grads wrt aux]).
    """
    aux_ps = list(aux_ps)
    lambdas = list(lambdas)
    if len(lambdas) != len(aux_ps):
        raise ValueError(f"need one lambda per aux head: {len(lambdas)} vs {len(aux_ps)}")
    weight = class_weight(g)
    heads = [("main", 1.0, main_p)] + [(f"aux_{k}", lam, aux)
                                       for k, (lam, aux) in enumerate(zip(lambdas, aux_ps))]
    total, breakdown, grads = 0.0, {}, []
    for name, lam, p in heads:
        d, gd = dsc_loss(p, g)
        c, gc = weighted_ce(p, g, weight)
        total += lam * (d + c)
        breakdown[f"dsc_{name}"] = d
        breakdown[f"ce_{name}"] = c
        grads.append(lam * (gd + gc))
    breakdown["total"] = total
    return total, breakdown, grads[0], grads[1:]


def dsc_metric(a, b) -> float:
    """Dice-Sorensen coefficient 2|A n B| / (|A| + |B|) between binary masks.

    Accepts LabelMask-like objects (with .voxels) or plain arrays.  Both
    empty counts as perfect agreement (1.0).
    """
    va = a.voxels if hasattr(a, "voxels") else np.asarray(a)
    vb = b.voxels if hasattr(b, "voxels") else np.asarray(b)
    if va.shape != vb.shape:
        raise ValueError(f"shape mismatch {va.shape} vs {vb.shape}")
    va = va.astype(bool)
    vb = vb.astype(bool)
    return dice_from_counts(int((va & vb).sum()), int(va.sum()), int(vb.sum()))


def dice_from_counts(n_both: int, n_a: int, n_b: int) -> float:
    """dsc_metric from the counts |A n B|, |A| and |B|."""
    if n_a + n_b == 0:
        return 1.0
    return 2.0 * n_both / (n_a + n_b)
