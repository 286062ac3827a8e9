"""Train the fixed MFFNet weights that the `infer` workload loads.

    python3 perfbench/make_checkpoint.py [--output PATH]

The training volume stacks several noisy reduced-field phantoms along z,
each under its own random skew and noise seed, all drawn from a seed stream
that the benchmark's own input seeds never use.  Training goes through the
public `train_network` (default batch of 2, foreground-biased augmented
sampling).  The script then reports the Dice of `sliding_window_infer`
against the analytic mask on held-out phantoms from the same stream.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from tbcalib import (LabelMask, Volume, dsc_metric, sliding_window_infer,  # noqa: E402
                     train_network)
from tbcalib.nn import save_checkpoint  # noqa: E402

from phantoms import (INFER_DIMS, INFER_HALF_SEPARATION, MAX_SHIFT_MM,  # noqa: E402
                      MAX_SKEW_DEG, skewed_phantom)

CHECKPOINT = HERE / "data" / "infer.mffw"
STREAM = 20200629  # seed stream of the training phantoms; workloads use others
PHANTOMS = 4        # stacked into one training volume
ITERATIONS = 150
LR = 3e-3
HELD_OUT = 3


def _phantom(rng):
    """A reduced-field phantom with independently drawn skew angles and shifts."""
    angles = rng.uniform(-MAX_SKEW_DEG, MAX_SKEW_DEG, 3)
    shift = rng.uniform(-MAX_SHIFT_MM, MAX_SHIFT_MM, 3)
    return skewed_phantom(rng, angles, shift, dims=INFER_DIMS,
                          half_separation=INFER_HALF_SEPARATION)


def stack_z(pairs):
    """Concatenate (vol, mask) pairs on one grid along z into one training pair."""
    vol0, mask0 = pairs[0]
    vol = Volume(np.concatenate([v.voxels for v, _ in pairs], axis=0),
                 spacing=vol0.spacing, origin=vol0.origin)
    mask = LabelMask(np.concatenate([m.voxels for _, m in pairs], axis=0),
                     spacing=mask0.spacing, origin=mask0.origin)
    return vol, mask


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", type=Path, default=CHECKPOINT)
    args = ap.parse_args(argv)

    rng = np.random.default_rng([STREAM, 0])
    vol, mask = stack_z([_phantom(rng)[:2] for _ in range(PHANTOMS)])
    t0 = time.perf_counter()
    net, history = train_network(vol, mask, iterations=ITERATIONS, lr=LR, seed=STREAM)
    print(f"trained {ITERATIONS} iterations in {time.perf_counter() - t0:.1f} s; "
          f"final loss {history[-1]['total']:.4f}")
    args.output.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(net, args.output)
    print(f"wrote {args.output}")

    held = np.random.default_rng([STREAM, 1])
    for i in range(HELD_OUT):
        hv, hm, _ = _phantom(held)
        pred = sliding_window_infer(net, hv)
        print(f"held-out {i}: dice {dsc_metric(pred, hm):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
