"""Capsule routing primitives.

Two routing mechanisms drive the encoder:

  * bottom-up EM routing, compressing the primary capsules of one image patch
    into a single patch capsule. With one parent every responsibility is 1,
    so each EM round repeats the same M-step and the iteration count
    (``k_em``) does not change the model; the encoder reads only the pose;
  * top-down inverted dot-product attention routing between patch capsules and
    attribute capsules, where agreement is the dot product between a parent's
    current state and a child's vote, normalized over parents.

Both are pure functions of their inputs and are fully differentiable through
the autograd tensors in ``tensor.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from . import tensor as T
from .tensor import Tensor


@dataclass
class CapsuleSet:
    """Pose vectors plus activations for one layer of capsules."""

    poses: Tensor       # [N, d_cap]
    activations: Tensor  # [N], values in [0, 1]

    def __post_init__(self):
        if self.poses.data.ndim != 2 or self.poses.data.shape[0] < 1:
            raise DimensionError(f"capsule poses must be [N, d], got {self.poses.shape}")
        if self.activations.data.shape != (self.poses.data.shape[0],):
            raise DimensionError(
                f"activations shape {self.activations.shape} does not match "
                f"{self.poses.data.shape[0]} capsules")

    @property
    def count(self) -> int:
        return self.poses.data.shape[0]

    @property
    def dim(self) -> int:
        return self.poses.data.shape[1]


@dataclass
class EmRoutingParams:
    """Learnables and hyper-parameters of the bottom-up EM routing step.

    Only :func:`em_routing`'s activation reads beta, gamma, lam, sigma_floor.
    """

    transforms: Tensor   # [N_child, p, p]; p = d_cap (vector mode) or sqrt(d_cap) (matrix mode)
    beta: Tensor = field(default_factory=lambda: Tensor(0.0))   # scalar
    gamma: Tensor = field(default_factory=lambda: Tensor(0.0))  # scalar
    lam: float = 1.0
    iterations: int = 5
    sigma_floor: float = 1e-6
    pose_mode: str = "matrix"  # "matrix": votes by pose-matrix product; "vector": row-vector transform

    def __post_init__(self):
        if self.iterations < 1:
            raise DimensionError("EM routing needs iterations >= 1")
        if self.sigma_floor <= 0:
            raise DimensionError("sigma_floor must be positive")
        if self.pose_mode not in ("matrix", "vector"):
            raise DimensionError(f"unknown pose_mode {self.pose_mode!r}")


@dataclass
class InvertedRoutingParams:
    """Per-parent vote transforms for inverted dot-product attention routing."""

    vote_transforms: Tensor  # [A, d, d], one per parent, shared across children
    iterations: int = 2
    layer_norm_eps: float = 1e-5

    def __post_init__(self):
        if self.iterations < 1:
            raise DimensionError("inverted routing needs iterations >= 1")
        if self.vote_transforms.data.ndim != 3:
            raise DimensionError(
                f"vote_transforms must be [A, d, d], got {self.vote_transforms.shape}")


def primary_capsules(f: Tensor, proj: Tensor, act_proj: Tensor) -> CapsuleSet:
    """Project one patch feature vector into primary capsules.

    ``proj`` maps the D_feat feature to N*d_cap pose scalars (the 1x1
    convolution applied to a single spatial cell); ``act_proj`` plus a sigmoid
    supplies the per-capsule activation.
    """
    poses, acts = batched_primary_capsules(T.reshape(f, (1, -1)), proj, act_proj)
    n = act_proj.data.shape[1]
    d_cap = proj.data.shape[1] // n
    return CapsuleSet(poses=T.reshape(poses, (n, d_cap)),
                      activations=T.reshape(acts, (n,)))


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


def _em_votes(poses: Tensor, params: EmRoutingParams) -> Tensor:
    """Votes O_i for the single parent; [R, N, d_cap] from poses [R, N, d_cap]."""
    n, p = params.transforms.data.shape[0], params.transforms.data.shape[1]
    r, n_in, d_cap = poses.data.shape
    if n_in != n:
        raise DimensionError(f"{n_in} child capsules but {n} transforms")
    if params.pose_mode == "matrix":
        if p * p != d_cap:
            raise DimensionError(
                f"matrix pose_mode needs square capsules; d_cap={d_cap}, transform {p}x{p}")
        m = T.reshape(poses, (r, n, p, p))
        votes = T.einsum("rnij,njk->rnik", m, params.transforms)
        return T.reshape(votes, (r, n, d_cap))
    if p != d_cap:
        raise DimensionError(f"vector pose_mode needs {d_cap}x{d_cap} transforms, got {p}x{p}")
    return T.einsum("rnd,nde->rne", poses, params.transforms)


def _vote_mean(w: Tensor, x: Tensor) -> Tensor:
    """Weighted mean over the child axis: w [R, N], x [R, N, H] -> [R, H]."""
    return T.einsum("rn,rnh->rh", w, x) / T.tsum(w, axis=1, keepdims=True)


def batched_em_routing(poses: Tensor, activations: Tensor,
                       params: EmRoutingParams) -> Tensor:
    """Parent poses [R, d_cap] of EM routing onto one parent per patch: the
    activation-weighted mean of the votes, the fixed point of every round."""
    return _vote_mean(activations, _em_votes(poses, params))


def em_routing(children: CapsuleSet, params: EmRoutingParams) -> CapsuleSet:
    """Route a set of child capsules onto a single parent capsule.

    Pose and activation are computed once, in closed form: with a single
    parent every EM round would repeat them.
    """
    n, d_cap = children.poses.data.shape
    w = T.reshape(children.activations, (1, n))
    votes = _em_votes(T.reshape(children.poses, (1, n, d_cap)), params)
    mu = _vote_mean(w, votes)                                  # [1, H]
    dev2 = T.square(votes - T.reshape(mu, (1, 1, d_cap)))
    var = T.reshape(T.clamp_min(_vote_mean(w, dev2), params.sigma_floor),
                    (1, 1, d_cap))
    log_p = (-0.5 * (math.log(2.0 * math.pi) + T.log(var))
             - dev2 / (2.0 * var))
    cost = -T.tsum(log_p, axis=1)         # [1, H]; -sum_i r_i ln P_{i|h}
    act = T.sigmoid(params.lam * (params.beta - params.gamma * float(n)
                                  - T.tsum(cost, axis=1)))       # [1]
    return CapsuleSet(poses=mu, activations=act)


def inverted_routing(children: Tensor, parent_init: Tensor,
                     params: InvertedRoutingParams):
    """Inverted dot-product attention routing.

    children: [R, d] child capsules (patch capsules).
    parent_init: [A, d] initial parent states -- the compacted attribute
    vectors; parents are deliberately never zero- or random-initialized.

    Returns (parents [A, d], agreement [R, A], routing [R, A]); agreement and
    routing are the values computed in the final iteration.
    """
    if children.data.ndim != 2 or children.data.shape[0] < 1:
        raise DimensionError(f"children must be [R, d] with R >= 1, got {children.shape}")
    if parent_init.data.ndim != 2 or parent_init.data.shape[0] < 1:
        raise DimensionError(f"parent_init must be [A, d] with A >= 1, got {parent_init.shape}")
    d = children.data.shape[1]
    if parent_init.data.shape[1] != d or params.vote_transforms.data.shape[1:] != (d, d):
        raise DimensionError(
            f"capsule dims disagree: children {children.shape}, parents "
            f"{parent_init.shape}, transforms {params.vote_transforms.shape}")
    if params.vote_transforms.data.shape[0] != parent_init.data.shape[0]:
        raise DimensionError(
            f"{params.vote_transforms.data.shape[0]} vote transforms for "
            f"{parent_init.data.shape[0]} parents")

    # votes depend only on the (fixed) children: nu[r, a, :] = W_e[a] @ p_r
    votes = T.einsum("ade,re->rad", params.vote_transforms, children)
    parents = parent_init
    agreement = route = None
    for _ in range(params.iterations):
        agreement = T.einsum("ad,rad->ra", parents, votes)   # o_ij
        route = T.softmax(agreement, axis=1)                 # over parents
        pooled = T.einsum("ra,rad->ad", route, votes)
        parents = T.layer_norm(pooled, eps=params.layer_norm_eps)
    return parents, agreement, route
