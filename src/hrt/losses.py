"""The three loss terms, calibration offsets, and prediction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from . import tensor as T
from .tensor import Tensor, as_tensor


@dataclass
class LossConfig:
    lambda1: float = 0.1        # weight of the calibration term
    lambda2: float = 0.033      # weight of the attribute regression term
    gamma_per_class: np.ndarray | None = None  # [C] calibration offsets

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            if not getattr(self, name) >= 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        if self.gamma_per_class is not None:
            self.gamma_per_class = np.asarray(self.gamma_per_class,
                                              dtype=np.float64)


def gamma_profile(num_classes: int, seen_classes, unseen_classes, *,
                  seen_offset: float = -0.5,
                  unseen_offset: float = 1.0) -> np.ndarray:
    """Per-class calibration offsets. The defaults are the fine-grained
    (CUB/SUN) offsets and ``config.DEFAULTS["gamma"]``."""
    gamma = np.zeros(num_classes)
    gamma[list(seen_classes)] = seen_offset
    gamma[list(unseen_classes)] = unseen_offset
    return gamma


def cross_entropy(s: Tensor, label: int) -> Tensor:
    """-log softmax(s)[label] in stable log-sum-exp form."""
    if s.data.ndim != 1:
        raise DimensionError(f"scores must be a vector, got shape {s.shape}")
    if not 0 <= label < s.data.shape[0]:
        raise IndexError(f"label {label} out of range for {s.data.shape[0]} classes")
    return T.logsumexp(s) - s[int(label)]


def calibration_loss(s: Tensor, label: int, gamma: np.ndarray) -> Tensor:
    """Cross entropy of the calibrated scores s + gamma at the true label."""
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != s.data.shape:
        raise DimensionError(
            f"gamma shape {gamma.shape} does not match scores {s.shape}")
    return cross_entropy(s + Tensor(gamma), label)


def attribute_regression_loss(psi: Tensor, z_true) -> Tensor:
    """Squared Euclidean distance between predicted and true attribute rows."""
    z_true = as_tensor(z_true)
    if psi.data.shape != z_true.data.shape:
        raise DimensionError(
            f"attribute vectors disagree: {psi.shape} vs {z_true.shape}")
    return T.tsum(T.square(psi - z_true))


def predict(s) -> int:
    """argmax of s; ties resolve to the lowest class index."""
    s = s.data if isinstance(s, Tensor) else np.asarray(s, dtype=np.float64)
    return int(np.argmax(s))  # np.argmax returns the first (lowest) maximizer
