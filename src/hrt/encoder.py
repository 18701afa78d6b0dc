"""The routing encoder: patch features -> attribute-aligned visual features.

For each patch, primary capsules are EM-routed into one patch capsule; the
patch capsules are then routed top-down against attribute capsules initialized
from the compacted attribute vectors. The resulting agreement map, softmaxed
over the patch axis, mixes the raw patch features into one visual feature per
attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from . import tensor as T
from .tensor import Tensor
from .routing import (EmRoutingParams, InvertedRoutingParams,
                      batched_em_routing, batched_primary_capsules,
                      inverted_routing)
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
    em: EmRoutingParams
    inverted: InvertedRoutingParams


def encode(patch_features: Tensor, semantics: SemanticSpace,
           params: EncoderParams) -> AlignedFeatures:
    """Run the full encoder on one sample's patch grid [R, D_feat]."""
    if patch_features.data.ndim != 2:
        raise DimensionError(
            f"patch features must be [R, D_feat], got {patch_features.shape}")
    compact = semantics.compact_vectors
    d_route = params.em.transforms.data.shape[1]
    if params.em.pose_mode == "matrix":
        d_route = d_route * d_route
    if compact.shape[1] != d_route:
        raise DimensionError(
            f"patch capsule dim {d_route} does not match compacted attribute "
            f"dim {compact.shape[1]}")

    poses, acts = batched_primary_capsules(patch_features, params.proj,
                                           params.act_proj)
    g_poses = batched_em_routing(poses, acts, params.em)            # [R, d]
    _parents, agreement, _route = inverted_routing(
        g_poses, Tensor(compact), params.inverted)
    # each attribute picks where to look: softmax over the patch axis
    attention = T.softmax(agreement, axis=0)                        # [R, A]
    h = T.einsum("rf,ra->fa", patch_features, attention)            # V . attention
    return AlignedFeatures(h=h, attention=attention, agreement=agreement,
                           patch_capsules=g_poses)
