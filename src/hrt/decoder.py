"""The static-routing decoder: aligned features -> calibratable class scores.

Class attribute vectors are gated per attribute by how well the aligned visual
feature matches the attribute's semantic vector; a bilinear content score per
attribute is then matched against the gated class attribute rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from . import tensor as T
from .tensor import Tensor
from .encoder import AlignedFeatures
from .semantics import SemanticSpace


@dataclass
class DecoderParams:
    w_beta: Tensor  # [tau, D_feat]
    w_d: Tensor     # [D_feat, tau]


def _check_dims(w: Tensor, name: str, rows: int, cols: int) -> None:
    if w.data.shape != (rows, cols):
        raise DimensionError(f"{name} has shape {w.data.shape}, expected {(rows, cols)}")


def attribute_gates(h: AlignedFeatures, semantics: SemanticSpace,
                    params: DecoderParams) -> Tensor:
    """gate_a = sigmoid(v_a^T W_beta h_a), one scalar per attribute."""
    d_feat, a = h.h.data.shape
    tau = semantics.attr_vectors.shape[1]
    if a != semantics.num_attributes:
        raise DimensionError(
            f"{a} aligned features for {semantics.num_attributes} attributes")
    _check_dims(params.w_beta, "w_beta", tau, d_feat)
    lam = Tensor(semantics.attr_vectors.T)            # [tau, A], columns v_a
    m = T.einsum("ta,tf->af", lam, params.w_beta)     # v_a^T W_beta rows
    return T.sigmoid(T.einsum("af,fa->a", m, h.h))


def adjust_class_attributes(h: AlignedFeatures, semantics: SemanticSpace,
                            params: DecoderParams) -> Tensor:
    """Gate every class attribute row so unimportant attributes are damped."""
    gates = attribute_gates(h, semantics, params)     # [A]
    z = Tensor(semantics.class_attr)                  # [C, A]
    return T.einsum("a,ca->ca", gates, z)


def content_attribute_scores(h: AlignedFeatures, semantics: SemanticSpace,
                             params: DecoderParams) -> Tensor:
    """psi_a = h_a^T W_d v_a, the content-aware attribute score vector."""
    d_feat, a = h.h.data.shape
    tau = semantics.attr_vectors.shape[1]
    if a != semantics.num_attributes:
        raise DimensionError(
            f"{a} aligned features for {semantics.num_attributes} attributes")
    _check_dims(params.w_d, "w_d", d_feat, tau)
    lam = Tensor(semantics.attr_vectors.T)            # [tau, A]
    proj = T.einsum("ft,fa->ta", params.w_d, h.h)     # W_d^T h_a columns
    return T.einsum("ta,ta->a", proj, lam)


def class_scores(psi: Tensor, z_tilde: Tensor) -> Tensor:
    """s_c = sum_a psi_a * z_tilde[c, a]."""
    if z_tilde.data.ndim != 2 or psi.data.ndim != 1 \
            or z_tilde.data.shape[1] != psi.data.shape[0]:
        raise DimensionError(
            f"cannot score psi {psi.shape} against class rows {z_tilde.shape}")
    return T.einsum("ca,a->c", z_tilde, psi)
