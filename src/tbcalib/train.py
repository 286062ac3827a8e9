"""Joint-loss training loop over sampled 48^3 cuboids."""

from __future__ import annotations

import contextlib
import csv
from collections import Counter

import numpy as np

from .losses import DEFAULT_LAMBDAS, dsc_metric, joint_loss
from .nn import Adam, MFFNet, NetworkConfig
from .phantom import sample_training_pair
from .volume import LabelMask, Volume, extract_cuboid, normalize_intensity

CHECK_EVERY = 10  # iterations between early-stopping Dice checks


class TrainingDivergedError(Exception):
    def __init__(self, iteration: int):
        super().__init__(f"loss became non-finite at iteration {iteration}")
        self.iteration = iteration


def train_network(vol: Volume, mask: LabelMask,
                  iterations: int = 500,
                  lr: float = 1e-3,
                  seed: int = 0,
                  batch_size: int | None = None,
                  config: NetworkConfig | None = None,
                  lambdas=DEFAULT_LAMBDAS,
                  fixed_offset=None,
                  log_path=None,
                  stop_dsc: float | None = None):
    """Train a fresh network on cuboids sampled from (vol, mask).

    The volume is normalized once and every window is taken from the
    result.  With `fixed_offset` the same window is used every step with
    no augmentation (single-cuboid overfitting); otherwise foreground-biased
    augmented pairs are drawn per step.  `batch_size` defaults to 2 pairs
    per step, or to 1 with `fixed_offset`, which takes no other value.
    `stop_dsc` enables early stopping once the thresholded prediction of the
    training cuboid reaches that Dice score (checked every CHECK_EVERY
    iterations, on the batch's last sample).  `lambdas` weight the joint
    loss's two deep-supervision heads, the 12^3 head's first, each in [0, 1].

    The result is bit-reproducible in `seed` for a fixed CPU count only: the
    BLAS thread count sets the summation order of the conv GEMMs.

    Returns (net, history) where history is a list of per-iteration
    breakdown dicts (CSV-logged to log_path when given).
    """
    if batch_size is None:
        batch_size = 1 if fixed_offset is not None else 2
    if iterations < 0 or batch_size < 1:
        raise ValueError(f"need iterations >= 0 and batch_size >= 1, "
                         f"got {iterations} and {batch_size}")
    if not 0 < lr < np.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if len(lambdas) != 2 or any(not 0 <= l <= 1 for l in lambdas):
        raise ValueError(f"lambdas must be two weights in [0, 1], got {lambdas}")
    if fixed_offset is not None and batch_size > 1:
        raise ValueError(f"fixed_offset trains on one window, got batch_size {batch_size}")
    net = MFFNet(config, seed=seed)
    opt = Adam(net.named_params(), lr=lr)
    norm = normalize_intensity(vol)
    fixed = None if fixed_offset is None else (extract_cuboid(norm, fixed_offset),
                                               extract_cuboid(mask, fixed_offset))
    history = []
    with open(log_path, "w") if log_path else contextlib.nullcontext() as log_file:
        log = csv.writer(log_file, lineterminator="\n") if log_file else None
        for it in range(iterations):
            net.zero_grad()
            sums = Counter()
            for b in range(batch_size):
                cub, lab = fixed or sample_training_pair(
                    norm, mask, seed=seed * 1000003 + it * 17 + b)
                x, g = cub.values, lab.values.astype(np.float64)
                main, auxes = net.forward(x[None], training=True)
                loss, breakdown, gmain, gaux = joint_loss(
                    main[0], [a[0] for a in auxes], g, lambdas=lambdas)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(it)
                net.backward(gmain[None], [ga[None] for ga in gaux])
                sums.update(breakdown)
            for _, p in net.named_params():
                p.grad /= batch_size  # the batch mean, before the update
            opt.step()
            history.append({k: v / batch_size for k, v in sums.items()} | {"iteration": it})
            if log:
                if it == 0:
                    aux_keys = sorted(k for k in sums if "_aux_" in k)
                    keys = ["dsc_main", "ce_main", *aux_keys, "total"]
                    log.writerow(["iteration", *keys])
                log.writerow([it, *(f"{history[-1][k]:.8g}" for k in keys)])
            if (stop_dsc is not None and (it + 1) % CHECK_EVERY == 0
                    and dsc_metric(main[0] >= 0.5, g >= 0.5) >= stop_dsc):
                break
    return net, history
