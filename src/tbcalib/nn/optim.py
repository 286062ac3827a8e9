"""Adam optimizer over named parameters."""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, named_params, lr=1e-3):
        self.params = dict(named_params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data, dtype=np.float64) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data, dtype=np.float64) for k, p in self.params.items()}

    def step(self):
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad.astype(np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)
            p.data -= update.astype(p.data.dtype)
