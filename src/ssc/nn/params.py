"""Named parameter sets and seeded initialization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, default_dtype


class ParamSet:
    """Ordered mapping of parameter names to trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.ascontiguousarray(data), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self._params):
            missing = set(self._params) - set(state)
            extra = set(state) - set(self._params)
            raise ValueError(f"parameter names do not match (missing={missing}, extra={extra})")
        for name, arr in state.items():
            p = self._params[name]
            if arr.shape != p.data.shape:
                raise ValueError(f"{name}: shape {arr.shape} does not match {p.data.shape}")
            p.data = np.ascontiguousarray(arr, dtype=p.data.dtype)
            p.grad = None


def glorot_bound(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


@dataclass(frozen=True)
class ParamSpec:
    """Declares one parameter: init is 'glorot', 'zeros' or 'embedding'.

    For glorot, the fans of a 2-D shape are its extents; conv kernels
    (k, C, F) use fan_in = k*C and fan_out = k*F.
    """

    name: str
    shape: tuple[int, ...]
    init: str = "glorot"


def _fans(spec: ParamSpec) -> tuple[int, int]:
    if len(spec.shape) == 2:
        return spec.shape
    if len(spec.shape) == 3:
        k, c, f = spec.shape
        return k * c, k * f
    raise ValueError(f"{spec.name}: cannot infer fans for shape {spec.shape}")


def init_params(specs, seed: int, dtype=None) -> ParamSet:
    """Initialize parameters deterministically from a seed.

    Glorot-uniform for conv/dense weights, zeros for biases, uniform in
    [-0.05, 0.05] for embedding tables. Draw order follows the spec list,
    so the same (specs, seed) pair always yields identical values.
    """
    dtype = dtype or default_dtype()
    rng = np.random.default_rng(seed)
    params = ParamSet()
    for spec in specs:
        if spec.init == "zeros":
            data = np.zeros(spec.shape, dtype=dtype)
        elif spec.init == "glorot":
            bound = glorot_bound(*_fans(spec))
            data = rng.uniform(-bound, bound, spec.shape).astype(dtype)
        elif spec.init == "embedding":
            data = rng.uniform(-0.05, 0.05, spec.shape).astype(dtype)
        else:
            raise ValueError(f"{spec.name}: unknown init {spec.init!r}")
        params.add(spec.name, data)
    return params
