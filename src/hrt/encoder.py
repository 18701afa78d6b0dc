"""The routing encoder: patch features -> attribute-aligned visual features.

For each patch, primary capsules are EM-routed into one patch capsule; the
patch capsules are then routed top-down against attribute capsules initialized
from the compacted attribute vectors. The resulting agreement map, softmaxed
over the patch axis, mixes the raw patch features into one visual feature per
attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from . import tensor as T
from .tensor import Tensor
from .routing import (InvertedRoutingParams, batched_em_routing,
                      batched_primary_capsules, inverted_routing)
from .semantics import SemanticSpace


@dataclass
class AlignedFeatures:
    """Per-attribute visual features and the attention that produced them."""

    h: Tensor          # [D_feat, A], column a is h_a
    attention: Tensor  # [R, A], each column a probability vector over patches
    agreement: Tensor  # [R, A], raw agreement map from the top-down routing
    patch_capsules: Tensor  # [R, d], the bottom-up routed patch capsules


@dataclass
class EncoderParams:
    """All learnables of the encoder plus routing configuration."""

    proj: Tensor       # [D_feat, N * d_cap] primary-capsule pose projection
    act_proj: Tensor   # [D_feat, N] primary-capsule activation projection
    inverted: InvertedRoutingParams


def encode(patch_features: Tensor, semantics: SemanticSpace,
           params: EncoderParams) -> AlignedFeatures:
    """Run the full encoder on one sample's patch grid [R, D_feat]."""
    if patch_features.data.ndim != 2:
        raise DimensionError(
            f"patch features must be [R, D_feat], got {patch_features.shape}")
    compact = semantics.compact_vectors
    poses, acts = batched_primary_capsules(patch_features, params.proj,
                                           params.act_proj)
    if compact.shape[1] != poses.data.shape[2]:
        raise DimensionError(
            f"patch capsule dim {poses.data.shape[2]} does not match "
            f"compacted attribute dim {compact.shape[1]}")
    g_poses = batched_em_routing(poses, acts)                       # [R, d]
    _parents, agreement, _route = inverted_routing(
        g_poses, Tensor(compact), params.inverted)
    # each attribute picks where to look: softmax over the patch axis
    attention = T.softmax(agreement, axis=0)                        # [R, A]
    h = T.einsum("rf,ra->fa", patch_features, attention)            # V . attention
    return AlignedFeatures(h=h, attention=attention, agreement=agreement,
                           patch_capsules=g_poses)
