"""Attribute semantic spaces and dimensionality compaction.

Attribute word vectors v_a live in a tau-dimensional space; routing capsules
are d-dimensional. ``compact_semantics`` bridges the two, by an EM-fitted
factor-analysis model or by PCA scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError


@dataclass
class SemanticSpace:
    """Attribute vectors, their compacted versions, and class attribute rows."""

    attr_vectors: np.ndarray     # [A, tau]
    compact_vectors: np.ndarray  # [A, d]
    class_attr: np.ndarray       # [C, A]

    def __post_init__(self):
        self.attr_vectors = np.asarray(self.attr_vectors, dtype=np.float64)
        self.compact_vectors = np.asarray(self.compact_vectors, dtype=np.float64)
        self.class_attr = np.asarray(self.class_attr, dtype=np.float64)
        for name in ("attr_vectors", "compact_vectors"):
            shape = getattr(self, name).shape
            if len(shape) != 2:
                raise DimensionError(f"{name} must be 2-D, got shape {shape}")
        a = self.attr_vectors.shape[0]
        if a < 1:
            raise DimensionError("need at least one attribute")
        if self.class_attr.ndim != 2 or self.class_attr.shape[0] < 2:
            raise DimensionError("need a [C, A] class attribute matrix with C >= 2")
        if self.class_attr.shape[1] != a or self.compact_vectors.shape[0] != a:
            raise DimensionError(
                f"attribute counts disagree: vectors {self.attr_vectors.shape}, "
                f"compact {self.compact_vectors.shape}, class_attr {self.class_attr.shape}")
        if not np.all(np.isfinite(self.class_attr)):
            raise NumericError("class attribute matrix contains non-finite values")

    @property
    def num_attributes(self) -> int:
        return self.attr_vectors.shape[0]

    @property
    def num_classes(self) -> int:
        return self.class_attr.shape[0]


def _pca_scores(x: np.ndarray, d: int) -> np.ndarray:
    """Top-d principal-component scores of the rows of x, deterministic signs."""
    centered = x - x.mean(axis=0, keepdims=True)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    scores = np.zeros((x.shape[0], d))
    k = min(d, s.size)
    comp = vt[:k]
    # fix sign: largest-magnitude loading coordinate is positive
    for i in range(k):
        j = np.argmax(np.abs(comp[i]))
        if comp[i, j] < 0:
            comp[i] = -comp[i]
    scores[:, :k] = centered @ comp.T
    return scores


def factor_analysis(x: np.ndarray, d: int, iterations: int = 50,
                    psi_floor: float = 1e-6):
    """Fit a d-factor analysis model x = mu + L f + eps by EM.

    Returns (scores, loadings, psi): the posterior factor means E[f | x] per
    row, the loadings L [p, d] and the residual variances psi [p].
    """
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    mu = x.mean(axis=0)
    xc = x - mu
    var = xc.var(axis=0)
    if not np.any(var > 0):
        raise NumericError("factor analysis needs input with nonzero variance")
    # deterministic init: principal directions, uniform residual variance
    _, s, vt = np.linalg.svd(xc, full_matrices=False)
    loadings = np.zeros((p, d))
    k = min(d, s.size)
    loadings[:, :k] = (vt[:k].T * (s[:k] / np.sqrt(n)))
    psi = np.maximum(var - (loadings ** 2).sum(axis=1), psi_floor)

    data_var = np.diag(xc.T @ xc / n)
    eye_d = np.eye(d)
    for _ in range(iterations):
        # E-step
        psi_inv_l = loadings / psi[:, None]           # Psi^-1 L, [p, d]
        g = np.linalg.inv(eye_d + loadings.T @ psi_inv_l)
        ez = xc @ psi_inv_l @ g                       # [n, d] posterior means
        ezz = n * g + ez.T @ ez                       # sum_i E[f f^T]
        # M-step
        xz = xc.T @ ez                                # [p, d]
        loadings = xz @ np.linalg.inv(ezz)
        psi = np.maximum(data_var - np.sum(loadings * xz, axis=1) / n,
                         psi_floor)

    psi_inv_l = loadings / psi[:, None]
    g = np.linalg.inv(eye_d + loadings.T @ psi_inv_l)
    scores = xc @ psi_inv_l @ g
    return scores, loadings, psi


# the compaction methods ``compact_semantics`` knows
COMPACTION_METHODS = ("factor-analysis", "pca")


def compact_semantics(v: np.ndarray, d: int, method: str) -> np.ndarray:
    """Reduce attribute vectors [A, tau] to routing dimension [A, d] by
    ``method``, one of ``COMPACTION_METHODS``."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise DimensionError(f"attribute vectors must be [A, tau], got {v.shape}")
    a, tau = v.shape
    if d < 1 or tau < d:
        raise DimensionError(f"cannot compact tau={tau} down to d={d}")
    if a < 2:
        raise DimensionError("compaction needs at least two attribute vectors")
    if not np.any(v.var(axis=0) > 0):
        raise NumericError(f"{method} compaction on zero-variance input is degenerate")
    if method == "pca":
        return _pca_scores(v, d)
    if method == "factor-analysis":
        scores, _, _ = factor_analysis(v, d)
        return scores
    raise DimensionError(f"unknown compaction method {method!r}")
