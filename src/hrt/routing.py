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

    feats: [R, D_feat] -> poses [R, N, d_cap], activations [R, N].
    """
    if feats.data.ndim != 2:
        raise DimensionError(f"patch features must be [R, D_feat], got {feats.shape}")
    d_feat = feats.data.shape[1]
    if proj.data.ndim != 2 or proj.data.shape[0] != d_feat:
        raise DimensionError(
            f"pose projection {proj.shape} does not accept features of width {d_feat}")
    if act_proj.data.ndim != 2 or act_proj.data.shape[0] != d_feat:
        raise DimensionError(
            f"activation projection {act_proj.shape} does not accept features of width {d_feat}")
    n = act_proj.data.shape[1]
    if proj.data.shape[1] % n != 0:
        raise DimensionError(
            f"pose width {proj.data.shape[1]} is not a multiple of {n} capsules")
    d_cap = proj.data.shape[1] // n
    r = feats.data.shape[0]
    poses = T.reshape(T.matmul(feats, proj), (r, n, d_cap))
    acts = T.sigmoid(T.matmul(feats, act_proj))
    return poses, acts


def batched_em_routing(poses: Tensor, activations: Tensor) -> Tensor:
    """Parent poses [R, d_cap] of EM routing onto one parent per patch: the
    activation-weighted mean of the child poses, the fixed point of every
    round.

    poses [R, N, d_cap] and activations [R, N] are the primary capsules of
    R patches.
    """
    if poses.data.ndim != 3 or activations.data.shape != poses.data.shape[:2]:
        raise DimensionError(f"poses {poses.shape} and activations "
                             f"{activations.shape} are not [R, N, d] and [R, N]")
    return (T.einsum("rn,rnh->rh", activations, poses)
            / T.tsum(activations, axis=1, keepdims=True))


def inverted_routing(children: Tensor, parent_init: Tensor,
                     vote_transforms: Tensor, iterations: int):
    """Inverted dot-product attention routing.

    children: [R, d] child capsules (patch capsules).
    parent_init: [A, d] initial parent states -- the compacted attribute
    vectors; parents are deliberately never zero- or random-initialized.
    vote_transforms: [A, d, d], one per parent, shared across children.
    iterations: routing rounds, >= 1.

    Returns the agreement map [R, A] of the final round. The first round
    scores the children against ``parent_init``; each later round first
    routes every child over the parents (softmax over the parent axis),
    pools the votes into layer-normed parents and scores against those, so
    ``iterations`` rounds make ``iterations - 1`` parent updates.
    """
    if iterations < 1:
        raise DimensionError("inverted routing needs iterations >= 1")
    if children.data.ndim != 2 or children.data.shape[0] < 1:
        raise DimensionError(f"children must be [R, d] with R >= 1, got {children.shape}")
    if parent_init.data.ndim != 2 or parent_init.data.shape[0] < 1:
        raise DimensionError(f"parent_init must be [A, d] with A >= 1, got {parent_init.shape}")
    d = children.data.shape[1]
    if parent_init.data.shape[1] != d or vote_transforms.data.shape[1:] != (d, d):
        raise DimensionError(
            f"capsule dims disagree: children {children.shape}, parents "
            f"{parent_init.shape}, transforms {vote_transforms.shape}")
    if vote_transforms.data.shape[0] != parent_init.data.shape[0]:
        raise DimensionError(
            f"{vote_transforms.data.shape[0]} vote transforms for "
            f"{parent_init.data.shape[0]} parents")

    # votes depend only on the (fixed) children: nu[r, a, :] = W_e[a] @ p_r
    votes = T.einsum("ade,re->rad", vote_transforms, children)
    agreement = T.einsum("ad,rad->ra", parent_init, votes)   # o_ij
    for _ in range(iterations - 1):
        route = T.softmax(agreement, axis=1)                 # over parents
        pooled = T.einsum("ra,rad->ad", route, votes)
        parents = T.layer_norm(pooled, eps=LAYER_NORM_EPS)
        agreement = T.einsum("ad,rad->ra", parents, votes)
    return agreement
