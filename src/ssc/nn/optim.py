"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .params import ParamSet

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
SLICE = 65536  # elements per in-place block: 256 KB at float32, so both scratch blocks stay in L2


class Adam:
    """Adam over a ParamSet; deterministic given parameters and gradients."""

    def __init__(self, params: ParamSet, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._scratch: dict[np.dtype, np.ndarray] = {}

    def step(self) -> None:
        """Apply one update from the accumulated gradients (missing = zero), in
        place, SLICE elements at a time through two scratch blocks per dtype, with
        the whole-array formula's result bit for bit. A parameter that is not C-contiguous,
        or whose gradient differs in shape or dtype, raises ValueError first."""
        for name, p in self.params.items():
            g = p.data if p.grad is None else p.grad
            if not p.data.flags.c_contiguous or (g.shape, g.dtype) != (p.data.shape, p.data.dtype):
                raise ValueError(f"{name}: parameter {p.data.shape} {p.data.dtype} (C-contiguous: "
                                 f"{p.data.flags.c_contiguous}), gradient {g.shape} {g.dtype}")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            if p.data.dtype not in self._scratch:
                self._scratch[p.data.dtype] = np.empty((2, SLICE), p.data.dtype)
            a, b = self._scratch[p.data.dtype]
            flat, m, v = p.data.reshape(-1), self.m[name].reshape(-1), self.v[name].reshape(-1)
            g_flat = None if p.grad is None else p.grad.reshape(-1)
            for lo in range(0, flat.size, SLICE):
                hi = min(lo + SLICE, flat.size)
                g = 0.0 if g_flat is None else g_flat[lo:hi]
                ms, vs, ta, tb = m[lo:hi], v[lo:hi], a[:hi - lo], b[:hi - lo]
                ms *= BETA1
                ms += np.multiply(1.0 - BETA1, g, out=ta)
                vs *= BETA2
                vs += np.multiply(1.0 - BETA2, np.square(g, out=ta), out=ta)
                step = np.multiply(self.lr, np.divide(ms, bc1, out=ta), out=ta)
                denom = np.add(np.sqrt(np.divide(vs, bc2, out=tb), out=tb), EPS, out=tb)
                flat[lo:hi] -= np.divide(step, denom, out=ta)
