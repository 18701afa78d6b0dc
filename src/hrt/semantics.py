"""Attribute semantic spaces and dimensionality compaction.

Attribute word vectors v_a live in a tau-dimensional space; routing capsules
are d-dimensional. ``compact_semantics`` bridges the two by PCA scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError


@dataclass
class SemanticSpace:
    """Attribute vectors and class attribute rows, and the compacted
    attribute vectors once a model has computed them: a dataset's semantics
    leave ``compact_vectors`` None, a model's always carry them."""

    attr_vectors: np.ndarray                   # [A, tau]
    class_attr: np.ndarray                     # [C, A]
    compact_vectors: np.ndarray | None = None  # [A, d]

    def __post_init__(self):
        held = ("attr_vectors", "class_attr") + (
            () if self.compact_vectors is None else ("compact_vectors",))
        for name in held:
            array = np.asarray(getattr(self, name), dtype=np.float64)
            if array.ndim != 2:
                raise DimensionError(f"{name} must be 2-D, got shape {array.shape}")
            setattr(self, name, array)
        a = self.attr_vectors.shape[0]
        if a < 1:
            raise DimensionError("need at least one attribute")
        if self.class_attr.shape[0] < 2:
            raise DimensionError("need a [C, A] class attribute matrix with C >= 2")
        compact = self.compact_vectors
        if self.class_attr.shape[1] != a or (compact is not None
                                             and compact.shape[0] != a):
            raise DimensionError(
                f"attribute counts disagree: vectors {self.attr_vectors.shape}, "
                f"compact {np.shape(compact)}, class_attr {self.class_attr.shape}")
        for name in held:
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericError(f"{name} contains non-finite values")

    @property
    def num_attributes(self) -> int:
        return self.attr_vectors.shape[0]

    @property
    def num_classes(self) -> int:
        return self.class_attr.shape[0]


def compact_semantics(v: np.ndarray, d: int) -> np.ndarray:
    """Reduce attribute vectors [A, tau] to routing dimension [A, d] by
    their top-d principal-component scores, with deterministic signs.

    The centred vectors have rank at most A - 1, so for d >= A the columns
    from A - 1 on are zero (column A - 1 up to rounding)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise DimensionError(f"attribute vectors must be [A, tau], got {v.shape}")
    a, tau = v.shape
    if d < 1 or tau < d:
        raise DimensionError(f"cannot compact tau={tau} down to d={d}")
    if a < 2:
        raise DimensionError("compaction needs at least two attribute vectors")
    if not np.any(v.var(axis=0) > 0):
        raise NumericError("compaction on zero-variance input is degenerate")
    centered = v - v.mean(axis=0, keepdims=True)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    scores = np.zeros((a, d))
    k = min(d, s.size)
    comp = vt[:k]
    # fix sign: largest-magnitude loading coordinate is positive
    for i in range(k):
        j = np.argmax(np.abs(comp[i]))
        if comp[i, j] < 0:
            comp[i] = -comp[i]
    scores[:, :k] = centered @ comp.T
    return scores
