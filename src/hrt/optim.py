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

from .errors import NumericError
from .tensor import Tensor


@dataclass
class OptimizerConfig:
    lr: float = 1e-3
    momentum: float = 0.9
    rho: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 1e-4


@dataclass
class RmsPropState:
    config: OptimizerConfig
    square_avg: dict[str, np.ndarray] = field(default_factory=dict)
    momentum_buf: dict[str, np.ndarray] = field(default_factory=dict)


def optimizer_step(state: RmsPropState, params: dict[str, Tensor],
                   grads: dict[str, np.ndarray]) -> None:
    """Apply one RMSprop update in place; ``grads`` holds one gradient per
    parameter."""
    cfg = state.config
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        acc = state.square_avg.setdefault(name, np.zeros_like(p.data))
        buf = state.momentum_buf.setdefault(name, np.zeros_like(p.data))
        acc *= cfg.rho
        acc += (1.0 - cfg.rho) * g * g
        eff = g / (np.sqrt(acc) + cfg.eps)
        buf *= cfg.momentum
        buf += eff
        p.data = p.data - cfg.lr * buf - cfg.lr * cfg.weight_decay * p.data
        if not np.all(np.isfinite(p.data)):
            raise NumericError(f"parameter {name!r} became non-finite after step")
