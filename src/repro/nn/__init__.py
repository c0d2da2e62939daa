"""Deep-learning stack (autograd, layers, optimisers, scalers).

Replaces PyTorch in the reproduction.  See :mod:`repro.nn.autograd` for the
reverse-mode engine, :mod:`repro.nn.layers` for the module system and
:mod:`repro.nn.optim` for SGD / Adam / AdamW (the paper trains with AdamW).
Array operations route through the pluggable backend seam in
:mod:`repro.nn.backend` (numpy reference, instrumented ``checked``);
configure it — together with the default dtype and segment-ops knobs — via
``runtime.configure`` / ``runtime.use`` (:mod:`repro.nn.runtime`).
"""

from repro.nn import backend, runtime
from repro.nn.autograd import (
    SegmentLayout,
    Tensor,
    as_tensor,
    concat,
    config_epoch,
    default_dtype,
    dropout,
    fast_segment_ops_enabled,
    get_default_dtype,
    grad_enabled,
    gradcheck,
    no_grad,
    segment_mean,
    segment_sum,
    stack_rows,
    use_fast_segment_ops,
)
from repro.nn.functional import (
    accuracy,
    binary_cross_entropy,
    cross_entropy,
    f1_score,
    log_softmax,
    mse_loss,
    softmax,
)
from repro.nn.layers import (
    Dropout,
    Linear,
    Module,
    MLP,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.backend import xp
from repro.nn.optim import SGD, Adam, AdamW, Optimizer
from repro.nn.scalers import GaussRankScaler, MinMaxScaler, StandardScaler
from repro.nn.tape import TapeRunner, TapeUnsupported
from repro.nn.training import (
    EarlyStopping,
    iterate_minibatches,
    set_seed,
    train_epoch,
)

__all__ = [
    "backend",
    "runtime",
    "xp",
    "Tensor",
    "SegmentLayout",
    "as_tensor",
    "concat",
    "stack_rows",
    "segment_mean",
    "segment_sum",
    "dropout",
    "gradcheck",
    "no_grad",
    "grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "fast_segment_ops_enabled",
    "use_fast_segment_ops",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy",
    "mse_loss",
    "accuracy",
    "f1_score",
    "Module",
    "Linear",
    "Dropout",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Sequential",
    "MLP",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "StandardScaler",
    "MinMaxScaler",
    "GaussRankScaler",
    "EarlyStopping",
    "iterate_minibatches",
    "set_seed",
    "config_epoch",
    "TapeRunner",
    "TapeUnsupported",
    "train_epoch",
]
