"""Reverse-mode autodiff over numpy arrays.

A Tensor wraps a numpy array plus an optional gradient buffer. Ops build a
graph of backward closures; Tensor.backward() walks it in reverse
topological order. Training defaults to 32-bit floats; verification (e.g.
finite-difference checks) runs in 64-bit. The SSC_PRECISION environment
variable (32 or 64) selects the starting default; any other value fails
the import.
"""

from __future__ import annotations

import os

import numpy as np

_PRECISIONS = {"32": np.float32, "64": np.float64}
_env_precision = os.environ.get("SSC_PRECISION", "32")
if _env_precision not in _PRECISIONS:
    raise ValueError(f"SSC_PRECISION must be 32 or 64, got {_env_precision!r}")
_default_dtype = _PRECISIONS[_env_precision]


def set_precision(bits: int) -> None:
    """Set the default float dtype for newly created tensors/parameters."""
    global _default_dtype
    if str(bits) not in _PRECISIONS:
        raise ValueError("precision must be 32 or 64")
    _default_dtype = _PRECISIONS[str(bits)]


def default_dtype():
    return _default_dtype


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray):
            self.data = data
        else:
            self.data = np.asarray(data, dtype=_default_dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._bwd = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Propagate gradients from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(data: np.ndarray, parents: tuple[Tensor, ...], bwd) -> Tensor:
    """Build a graph node; requires_grad propagates from the parents."""
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._bwd = bwd
    return out
