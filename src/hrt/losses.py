"""The three loss terms, calibration offsets, and prediction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from . import tensor as T
from .tensor import Tensor


@dataclass(frozen=True)
class LossConfig:
    lambda1: float = 0.1        # weight of the calibration term
    lambda2: float = 0.033      # weight of the attribute regression term
    gamma_per_class: np.ndarray | None = None  # [C] calibration offsets

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            if not getattr(self, name) >= 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}")


def gamma_profile(num_classes: int, seen_classes, unseen_classes, *,
                  seen_offset: float = -0.5,
                  unseen_offset: float = 1.0) -> np.ndarray:
    """Per-class calibration offsets. The defaults are the fine-grained
    (CUB/SUN) offsets and ``config.DEFAULTS["gamma"]``."""
    gamma = np.zeros(num_classes)
    gamma[list(seen_classes)] = seen_offset
    gamma[list(unseen_classes)] = unseen_offset
    return gamma


def cross_entropy(s: Tensor, label: int, offset=None) -> Tensor:
    """-log softmax(s + offset)[label] in stable log-sum-exp form."""
    return T.log_softmax_nll(s, int(label), offset)


def calibration_loss(s: Tensor, label: int, gamma: np.ndarray) -> Tensor:
    """Cross entropy of the calibrated scores s + gamma at the true label."""
    return cross_entropy(s, label, np.asarray(gamma, dtype=np.float64))


def attribute_regression_loss(psi: Tensor, z_true) -> Tensor:
    """Squared Euclidean distance between predicted and true attribute rows."""
    return T.squared_distance(psi, np.asarray(z_true, dtype=np.float64))


def predict(s) -> int:
    """argmax of s; ties resolve to the lowest class index."""
    s = s.data if isinstance(s, Tensor) else np.asarray(s, dtype=np.float64)
    return int(np.argmax(s))  # np.argmax returns the first (lowest) maximizer
