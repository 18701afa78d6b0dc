"""The routing encoder: patch features -> attribute-aligned visual features.

``encode(patch_features, compact, proj, act_proj, vote_transforms,
iterations)`` takes the compacted attribute vectors and the three encoder
weights as tensors. For each patch, primary capsules are EM-routed into one
patch capsule; the patch capsules are then routed top-down against attribute
capsules initialized from the compacted attribute vectors. The routing's
final agreement map [R, A] is all the encoder reads of it: softmaxed over the
patch axis, it mixes the raw patch features into one visual feature per
attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .tensor import Tensor
from .routing import (batched_em_routing, batched_primary_capsules,
                      inverted_routing)


@dataclass
class AlignedFeatures:
    """Per-attribute visual features and the attention that produced them."""

    h: Tensor          # [D_feat, A], column a is h_a
    attention: Tensor  # [R, A], each column a probability vector over patches
    agreement: Tensor  # [R, A], raw agreement map from the top-down routing


def encode(patch_features: Tensor, compact: Tensor, proj: Tensor,
           act_proj: Tensor, vote_transforms: Tensor,
           iterations: int) -> AlignedFeatures:
    """Run the full encoder on one sample's patch grid [R, D_feat].

    proj [D_feat, N, d_cap] and act_proj [D_feat, N] project the primary
    capsules; the compacted attribute vectors compact [A, d_cap] start the
    attribute capsules, and vote_transforms [A, d_cap, d_cap] and iterations
    drive the top-down routing.
    """
    poses, acts = batched_primary_capsules(patch_features, proj, act_proj)
    g_poses = batched_em_routing(poses, acts)                       # [R, d]
    agreement = inverted_routing(g_poses, compact, vote_transforms,
                                 iterations)                        # [R, A]
    # each attribute picks where to look: softmax over the patch axis
    attention = T.softmax(agreement, axis=0)                        # [R, A]
    h = T.einsum("rf,ra->fa", patch_features, attention)            # V . attention
    return AlignedFeatures(h=h, attention=attention, agreement=agreement)
