"""RMSprop with a momentum buffer and decoupled weight decay.

Update rule per parameter:

    acc  <- rho * acc + (1 - rho) * g^2
    eff  <- g / (sqrt(acc) + eps)
    buf  <- momentum * buf + eff
    w    <- w - lr * buf - lr * wd * w

The literature's "momentum 0.9" is read as a separate momentum buffer on the
scaled gradient; the smoothing constant rho stays configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import Tensor


@dataclass
class OptimizerConfig:
    lr: float = 1e-3
    momentum: float = 0.9
    rho: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 1e-4

    def __post_init__(self):
        for name in ("rho", "momentum"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("lr", "weight_decay"):
            if not getattr(self, name) >= 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")


@dataclass
class RmsPropState:
    config: OptimizerConfig
    square_avg: dict[str, np.ndarray] = field(default_factory=dict)
    momentum_buf: dict[str, np.ndarray] = field(default_factory=dict)


def optimizer_step(state: RmsPropState, params: dict[str, Tensor],
                   grads: dict[str, np.ndarray]) -> None:
    """Apply one RMSprop update in place; ``grads`` holds one gradient per
    parameter and is only read.

    ``acc``, ``buf`` and the weights are updated in place through one scratch
    array, with the same float64 operations in the same order as the
    out-of-place expressions of the update rule above, so the result is the
    same to the bit.  Each ``p.data`` is written into, so it must be a
    writeable array that the parameter does not share with other code.
    """
    cfg = state.config
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        w = p.data
        # get, not setdefault, whose zeros_like argument would fill a new
        # array on every step
        acc = state.square_avg.get(name)
        if acc is None:
            acc = state.square_avg[name] = np.zeros_like(w)
        buf = state.momentum_buf.get(name)
        if buf is None:
            buf = state.momentum_buf[name] = np.zeros_like(w)
        # acc += (1 - rho) * g * g
        scratch = np.multiply(1.0 - cfg.rho, g, out=np.empty_like(w))
        scratch *= g
        acc *= cfg.rho
        acc += scratch
        # buf += g / (sqrt(acc) + eps)
        np.sqrt(acc, out=scratch)
        scratch += cfg.eps
        np.divide(g, scratch, out=scratch)
        buf *= cfg.momentum
        buf += scratch
        # w <- (w - lr * buf) - (lr * wd) * w
        np.multiply(cfg.lr, buf, out=scratch)
        np.subtract(w, scratch, out=scratch)
        w *= cfg.lr * cfg.weight_decay
        np.subtract(scratch, w, out=w)
        if not np.all(np.isfinite(w)):
            raise NumericError(f"parameter {name!r} became non-finite after step")
