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

from . import tensor as T
from .tensor import Tensor


def adjust_class_attributes(h: Tensor, lam: Tensor, class_attr: Tensor,
                            w_beta: Tensor) -> Tensor:
    """Gate every class attribute row so unimportant attributes are damped:
    gate_a = sigmoid(v_a^T W_beta h_a), one scalar per attribute."""
    m = T.einsum("ta,tf->af", lam, w_beta)            # v_a^T W_beta rows
    gates = T.sigmoid(T.einsum("af,fa->a", m, h))     # [A]
    return T.einsum("a,ca->ca", gates, class_attr)


def content_attribute_scores(h: Tensor, lam: Tensor, w_d: Tensor) -> Tensor:
    """psi_a = h_a^T W_d v_a, the content-aware attribute score vector."""
    proj = T.einsum("ft,fa->ta", w_d, h)              # W_d^T h_a columns
    return T.einsum("ta,ta->a", proj, lam)


def class_scores(psi: Tensor, z_tilde: Tensor) -> Tensor:
    """s_c = sum_a psi_a * z_tilde[c, a]."""
    return T.einsum("ca,a->c", z_tilde, psi)
