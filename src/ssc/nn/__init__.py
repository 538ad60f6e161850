"""Minimal tensor/layer engine with reverse-mode gradients."""

from .tensor import Tensor, astensor, default_dtype
from .ops import (
    char_branch,
    concat,
    conv1d,
    dense,
    dropout,
    embedding_lookup,
    global_maxpool,
    maxpool1d,
    relu,
    reshape,
    selu,
    softmax,
    softmax_xent,
    tanh,
    SELU_ALPHA,
    SELU_LAMBDA,
)
from .params import ParamSet, ParamSpec, glorot_bound, init_params
from .optim import Adam
from .checkpoint import (
    CheckpointError,
    ModelCheckpoint,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "Tensor", "astensor", "default_dtype",
    "char_branch", "concat", "conv1d", "dense", "dropout", "embedding_lookup",
    "global_maxpool", "maxpool1d", "relu", "reshape", "selu", "softmax",
    "softmax_xent", "tanh", "SELU_ALPHA", "SELU_LAMBDA",
    "ParamSet", "ParamSpec", "glorot_bound", "init_params",
    "Adam",
    "CheckpointError", "ModelCheckpoint", "load_checkpoint", "save_checkpoint",
]
