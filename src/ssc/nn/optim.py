"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .params import ParamSet

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam over a ParamSet; deterministic given parameters and gradients."""

    def __init__(self, params: ParamSet, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        """Apply one update from the accumulated gradients (missing = zero)."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
