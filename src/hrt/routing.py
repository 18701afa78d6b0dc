"""Capsule routing primitives.

Two routing mechanisms drive the encoder:

  * bottom-up EM routing, compressing the primary capsules of each image
    patch into a single patch capsule. With one parent every responsibility
    is 1, so the parent pose is the activation-weighted mean of the votes,
    computed in closed form. The primary poses vote as they are: a
    per-capsule linear vote transform would follow the linear pose
    projection and so only re-parametrize it;
  * top-down inverted dot-product attention routing between patch capsules and
    attribute capsules, where agreement is the dot product between a parent's
    current state and a child's vote, normalized over parents to update the
    parents; it returns the final agreement map, the only routing result the
    encoder reads.

Both work on a whole patch grid at once (a leading patch axis ``R``), are
pure functions of the tensors they are handed (each weight is passed as its
own argument) and are fully differentiable through the autograd tensors in
``tensor.py``.
"""

from __future__ import annotations

from .errors import DimensionError
from . import tensor as T
from .tensor import Tensor

# epsilon of the layer norm that closes each inverted-routing iteration
LAYER_NORM_EPS = 1e-5


def batched_primary_capsules(feats: Tensor, proj: Tensor, act_proj: Tensor):
    """Vectorized primary-capsule projection for a whole patch grid.

    feats [R, D_feat], proj [D_feat, N, d_cap] (a pose projection per
    capsule), act_proj [D_feat, N] -> poses [R, N, d_cap], activations [R, N].
    """
    poses = T.einsum("rf,fnh->rnh", feats, proj)
    # no contraction relates the two projections' capsule counts
    if act_proj.data.shape != proj.data.shape[:2]:
        raise DimensionError(f"activation projection {act_proj.shape} is not "
                             f"[D_feat, N] = {proj.data.shape[:2]}")
    acts = T.sigmoid(T.matmul(feats, act_proj))
    return poses, acts


def batched_em_routing(poses: Tensor, activations: Tensor) -> Tensor:
    """Parent poses [R, d_cap] of EM routing onto one parent per patch: the
    activation-weighted mean of the child poses, the fixed point of every
    round.

    poses [R, N, d_cap] and activations [R, N] are the primary capsules of
    R patches.
    """
    return T.weighted_mean(poses, activations)


def inverted_routing(children: Tensor, parent_init: Tensor,
                     vote_transforms: Tensor, iterations: int):
    """Inverted dot-product attention routing.

    children: [R, d_child] child capsules (patch capsules), R >= 1.
    parent_init: [A, d_parent] initial parent states, A >= 1 -- the compacted
    attribute vectors; parents are never zero- or random-initialized.
    vote_transforms: [A, d_parent, d_child], one per parent, shared across
    children; the model's are square, d_parent = d_child = d_cap.
    iterations: routing rounds, >= 1.

    Returns the agreement map [R, A] of the final round. The first round
    scores the children against ``parent_init``; each later round first
    routes every child over the parents (softmax over the parent axis),
    pools the votes into layer-normed parents and scores against those, so
    ``iterations`` rounds make ``iterations - 1`` parent updates.
    """
    if iterations < 1:
        raise DimensionError("inverted routing needs iterations >= 1")
    if 0 in children.data.shape[:1] + parent_init.data.shape[:1]:
        raise DimensionError(f"inverted routing needs R, A >= 1, got children "
                             f"{children.shape}, parents {parent_init.shape}")

    # votes depend only on the (fixed) children: nu[r, a, :] = W_e[a] @ p_r
    votes = T.einsum("ade,re->rad", vote_transforms, children)
    agreement = T.einsum("ad,rad->ra", parent_init, votes)   # o_ij
    for _ in range(iterations - 1):
        route = T.softmax(agreement, axis=1)                 # over parents
        pooled = T.einsum("ra,rad->ad", route, votes)
        parents = T.layer_norm(pooled, eps=LAYER_NORM_EPS)
        agreement = T.einsum("ad,rad->ra", parents, votes)
    return agreement
