"""The static-routing decoder: aligned features -> calibratable class scores.

Each function takes the aligned features ``h`` [D_feat, A] as a tensor and
only the decoder weight it reads: ``adjust_class_attributes(h, semantics,
w_beta)`` gates every class attribute row per attribute by how well the
aligned visual feature matches the attribute's semantic vector;
``content_attribute_scores(h, semantics, w_d)`` gives a bilinear content score
per attribute, which ``class_scores`` matches against the gated class
attribute rows.
"""

from __future__ import annotations

from .errors import DimensionError
from . import tensor as T
from .tensor import Tensor
from .semantics import SemanticSpace


def _dims(h: Tensor, semantics: SemanticSpace) -> tuple[int, int]:
    """(D_feat, tau) of aligned features h [D_feat, A] over these semantics."""
    d_feat, a = h.data.shape
    if a != semantics.num_attributes:
        raise DimensionError(
            f"{a} aligned features for {semantics.num_attributes} attributes")
    return d_feat, semantics.attr_vectors.shape[1]


def _check_dims(w: Tensor, name: str, rows: int, cols: int) -> None:
    if w.data.shape != (rows, cols):
        raise DimensionError(f"{name} has shape {w.data.shape}, expected {(rows, cols)}")


def adjust_class_attributes(h: Tensor, semantics: SemanticSpace,
                            w_beta: Tensor) -> Tensor:
    """Gate every class attribute row so unimportant attributes are damped:
    gate_a = sigmoid(v_a^T W_beta h_a), one scalar per attribute."""
    d_feat, tau = _dims(h, semantics)
    _check_dims(w_beta, "w_beta", tau, d_feat)
    lam = Tensor(semantics.attr_vectors.T)            # [tau, A], columns v_a
    m = T.einsum("ta,tf->af", lam, w_beta)            # v_a^T W_beta rows
    gates = T.sigmoid(T.einsum("af,fa->a", m, h))     # [A]
    z = Tensor(semantics.class_attr)                  # [C, A]
    return T.einsum("a,ca->ca", gates, z)


def content_attribute_scores(h: Tensor, semantics: SemanticSpace,
                             w_d: Tensor) -> Tensor:
    """psi_a = h_a^T W_d v_a, the content-aware attribute score vector."""
    d_feat, tau = _dims(h, semantics)
    _check_dims(w_d, "w_d", d_feat, tau)
    lam = Tensor(semantics.attr_vectors.T)            # [tau, A]
    proj = T.einsum("ft,fa->ta", w_d, h)              # W_d^T h_a columns
    return T.einsum("ta,ta->a", proj, lam)


def class_scores(psi: Tensor, z_tilde: Tensor) -> Tensor:
    """s_c = sum_a psi_a * z_tilde[c, a]."""
    if z_tilde.data.ndim != 2 or psi.data.ndim != 1 \
            or z_tilde.data.shape[1] != psi.data.shape[0]:
        raise DimensionError(
            f"cannot score psi {psi.shape} against class rows {z_tilde.shape}")
    return T.einsum("ca,a->c", z_tilde, psi)
