"""The routing encoder: patch features -> attribute-aligned visual features.

``encode(patch_features, semantics, proj, act_proj, vote_transforms,
iterations)`` takes the three encoder weights as tensors. For each patch,
primary capsules are EM-routed into one patch capsule; the patch capsules are
then routed top-down against attribute capsules initialized from the
compacted attribute vectors. The routing's final agreement map [R, A] is all
the encoder reads of it: softmaxed over the patch axis, it mixes the raw
patch features into one visual feature per attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from . import tensor as T
from .tensor import Tensor
from .routing import (batched_em_routing, batched_primary_capsules,
                      inverted_routing)
from .semantics import SemanticSpace


@dataclass
class AlignedFeatures:
    """Per-attribute visual features and the attention that produced them."""

    h: Tensor          # [D_feat, A], column a is h_a
    attention: Tensor  # [R, A], each column a probability vector over patches
    agreement: Tensor  # [R, A], raw agreement map from the top-down routing


def encode(patch_features: Tensor, semantics: SemanticSpace, proj: Tensor,
           act_proj: Tensor, vote_transforms: Tensor,
           iterations: int) -> AlignedFeatures:
    """Run the full encoder on one sample's patch grid [R, D_feat].

    proj [D_feat, N * d_cap] and act_proj [D_feat, N] project the primary
    capsules; vote_transforms [A, d_cap, d_cap] and iterations drive the
    top-down routing.
    """
    if patch_features.data.ndim != 2:
        raise DimensionError(
            f"patch features must be [R, D_feat], got {patch_features.shape}")
    compact = semantics.compact_vectors
    poses, acts = batched_primary_capsules(patch_features, proj, act_proj)
    if compact.shape[1] != poses.data.shape[2]:
        raise DimensionError(
            f"patch capsule dim {poses.data.shape[2]} does not match "
            f"compacted attribute dim {compact.shape[1]}")
    g_poses = batched_em_routing(poses, acts)                       # [R, d]
    agreement = inverted_routing(g_poses, Tensor(compact), vote_transforms,
                                 iterations)                        # [R, A]
    # each attribute picks where to look: softmax over the patch axis
    attention = T.softmax(agreement, axis=0)                        # [R, A]
    h = T.einsum("rf,ra->fa", patch_features, attention)            # V . attention
    return AlignedFeatures(h=h, attention=attention, agreement=agreement)
