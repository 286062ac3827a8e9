"""Seeded phantom batteries shared by the workloads and the checkpoint script.

Every input of the benchmark is drawn here from an explicit
`numpy.random.Generator`, so the same seed always yields the same volumes.
"""

from __future__ import annotations

import numpy as np

from tbcalib import PhantomSpec, RigidPose, phantom, rotation_from_euler_deg

MAX_SKEW_DEG = 15.0     # per axis, as in the acceptance battery
MAX_SHIFT_MM = 3.0      # per axis
NOISE = 300.0           # half the canal/background gap
THRESHOLD_BAND = (300.0, 900.0)

# Reduced field for the network route: 112x64x64 at 0.5 mm holds 16
# overlapping 48^3 windows at the default stride.
INFER_DIMS = (112, 64, 64)
INFER_HALF_SEPARATION = 20.0


def skewed_phantom(rng: np.random.Generator, angles, shift, **spec_kwargs):
    """Render one noisy phantom under the given skew (Euler degrees, mm),
    with its noise seed drawn from rng; returns (vol, mask, pose)."""
    spec = PhantomSpec(noise_amplitude=NOISE, seed=int(rng.integers(2 ** 31)),
                       skew=RigidPose(rotation_from_euler_deg(*angles), shift),
                       **spec_kwargs)
    return phantom.generate_phantom(spec)  # module attribute, so a trace sees it


def skewed_battery(rng: np.random.Generator, n: int, **spec_kwargs):
    """Render n noisy phantoms under random skews; returns [(vol, mask, pose)].

    The skew magnitudes are a fixed Latin-hypercube design over 0-15 degrees
    per axis, the same for every seed, and the phantoms come in design order;
    the seed draws each angle's sign, the shifts and the noise.  Calibration time
    follows the size of the resampled grid, which bounds the rotated field
    and so grows with the rotation's magnitude (0.74-1.21 s across one
    battery of eight), while the sign barely changes that size.  With this
    design the median time of an eight-phantom battery differs by about 2%
    from seed to seed.
    """
    design = np.random.default_rng(n)
    magnitudes = (np.argsort(design.random((3, n)), axis=1) + design.random((3, n))) / n
    angles = magnitudes * MAX_SKEW_DEG * rng.choice((-1.0, 1.0), size=(3, n))
    shifts = rng.uniform(-MAX_SHIFT_MM, MAX_SHIFT_MM, (3, n))
    return [skewed_phantom(rng, angles[:, j], shifts[:, j], **spec_kwargs)
            for j in range(n)]


def reduced_battery(rng: np.random.Generator, n: int):
    """Skewed phantoms on the reduced field used by the network route."""
    return skewed_battery(rng, n, dims=INFER_DIMS, half_separation=INFER_HALF_SEPARATION)

