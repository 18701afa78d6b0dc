"""The static-routing decoder: aligned features -> calibratable class scores.

Each function takes the aligned features ``h`` [D_feat, A] and only the
tensors it reads: the attribute vectors as the columns of ``lam`` [tau, A],
the class attribute rows ``class_attr`` [C, A] and one decoder weight.
``adjust_class_attributes(h, lam, class_attr, w_beta)`` gates every class
attribute row per attribute by how well the aligned visual feature matches
the attribute's semantic vector; ``content_attribute_scores(h, lam, w_d)``
gives a bilinear content score per attribute, which ``class_scores`` matches
against the gated class attribute rows.
"""

from __future__ import annotations

from .errors import DimensionError
from . import tensor as T
from .tensor import Tensor


def _check_dims(w: Tensor, name: str, rows: int, cols: int) -> None:
    if w.data.shape != (rows, cols):
        raise DimensionError(f"{name} has shape {w.data.shape}, expected {(rows, cols)}")


def adjust_class_attributes(h: Tensor, lam: Tensor, class_attr: Tensor,
                            w_beta: Tensor) -> Tensor:
    """Gate every class attribute row so unimportant attributes are damped:
    gate_a = sigmoid(v_a^T W_beta h_a), one scalar per attribute."""
    d_feat, a = h.data.shape
    tau = lam.data.shape[0]
    _check_dims(lam, "lam", tau, a)
    _check_dims(class_attr, "class_attr", class_attr.data.shape[0], a)
    _check_dims(w_beta, "w_beta", tau, d_feat)
    m = T.einsum("ta,tf->af", lam, w_beta)            # v_a^T W_beta rows
    gates = T.sigmoid(T.einsum("af,fa->a", m, h))     # [A]
    return T.einsum("a,ca->ca", gates, class_attr)


def content_attribute_scores(h: Tensor, lam: Tensor, w_d: Tensor) -> Tensor:
    """psi_a = h_a^T W_d v_a, the content-aware attribute score vector."""
    d_feat, a = h.data.shape
    tau = lam.data.shape[0]
    _check_dims(lam, "lam", tau, a)
    _check_dims(w_d, "w_d", d_feat, tau)
    proj = T.einsum("ft,fa->ta", w_d, h)              # W_d^T h_a columns
    return T.einsum("ta,ta->a", proj, lam)


def class_scores(psi: Tensor, z_tilde: Tensor) -> Tensor:
    """s_c = sum_a psi_a * z_tilde[c, a]."""
    if z_tilde.data.ndim != 2 or psi.data.ndim != 1 \
            or z_tilde.data.shape[1] != psi.data.shape[0]:
        raise DimensionError(
            f"cannot score psi {psi.shape} against class rows {z_tilde.shape}")
    return T.einsum("ca,a->c", z_tilde, psi)
