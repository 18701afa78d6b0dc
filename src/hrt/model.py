"""Full model: parameter container, seeded initialization, forward pass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, allocating
from .tensor import Tensor
from .rng import SeededRng
from .encoder import AlignedFeatures, encode
from .decoder import (adjust_class_attributes, class_scores,
                      content_attribute_scores)
from .semantics import COMPACTION_METHODS, SemanticSpace, compact_semantics


@dataclass
class ModelConfig:
    """Shape and routing configuration; desk-scale defaults."""

    d_feat: int = 64
    num_attributes: int = 12
    num_classes: int = 12
    tau: int = 32
    d_cap: int = 16
    n_primary: int = 128
    k_em: int = 5    # EM iterations; no effect, single-parent EM is closed form
    k_td: int = 2
    compaction: str = "factor-analysis"  # or "pca"

    def validate(self) -> None:
        for name in ("d_feat", "num_attributes", "num_classes", "tau",
                     "d_cap", "n_primary", "k_em", "k_td"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.compaction not in COMPACTION_METHODS:
            raise ConfigError(f"compaction must be one of "
                              f"{', '.join(COMPACTION_METHODS)}, "
                              f"got {self.compaction!r}")


def param_shapes(c: ModelConfig) -> dict[str, tuple[tuple[int, ...], int]]:
    """Each parameter's shape and init fan-in, in draw order."""
    return {
        "enc.proj": ((c.d_feat, c.n_primary * c.d_cap), c.d_feat),
        "enc.act_proj": ((c.d_feat, c.n_primary), c.d_feat),
        "enc.vote_transforms": ((c.num_attributes, c.d_cap, c.d_cap), c.d_cap),
        "dec.w_beta": ((c.tau, c.d_feat), c.tau),
        "dec.w_d": ((c.d_feat, c.tau), c.d_feat),
    }


# the config fields each shape in ``param_shapes`` is built from, named when
# a parameter cannot be allocated
SIZED_BY = {
    "enc.proj": "model.d_feat, model.n_primary and model.d_cap",
    "enc.act_proj": "model.d_feat and model.n_primary",
    "enc.vote_transforms": "model.num_attributes and model.d_cap",
    "dec.w_beta": "model.tau and model.d_feat",
    "dec.w_d": "model.d_feat and model.tau",
}


def array_layout(c: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every array a model holds and its shape, in checkpoint payload order:
    the semantic arrays, then the parameters in name order."""
    params = param_shapes(c)
    return {"sem.attr_vectors": (c.num_attributes, c.tau),
            "sem.compact_vectors": (c.num_attributes, c.d_cap),
            "sem.class_attr": (c.num_classes, c.num_attributes),
            **{name: params[name][0] for name in sorted(params)}}


@dataclass
class ForwardResult:
    scores: Tensor            # [C]
    psi: Tensor               # [A]
    aligned: AlignedFeatures


class HrtModel:
    """Encoder + decoder parameters with a seeded-uniform initialization.

    Weights are drawn uniformly in +-1/sqrt(fan_in) (``param_shapes``), or
    taken as they are from ``arrays`` by parameter name (other entries are
    ignored), which must be writeable; attribute
    capsules are initialized from the compacted attribute vectors, which are
    computed once at construction and cached.
    """

    def __init__(self, config: ModelConfig, semantics: SemanticSpace,
                 seed: int = 0, arrays: dict[str, np.ndarray] | None = None):
        config.validate()
        if semantics.num_attributes != config.num_attributes:
            raise ConfigError(
                f"semantic space has {semantics.num_attributes} attributes, "
                f"config says {config.num_attributes}")
        if semantics.class_attr.shape[0] != config.num_classes:
            raise ConfigError(
                f"semantic space has {semantics.class_attr.shape[0]} classes, "
                f"config says {config.num_classes}")
        if semantics.compact_vectors.shape[1] != config.d_cap:
            raise ConfigError(
                f"compacted attribute vectors have dim "
                f"{semantics.compact_vectors.shape[1]}, routing capsules need "
                f"{config.d_cap}")
        self.config = config
        self.semantics = semantics
        self.seed = seed
        shapes = param_shapes(config)
        if arrays is None:
            rng = SeededRng(seed)
            arrays = {}
            for name, (shape, fan_in) in shapes.items():
                with allocating(f"parameter {name!r}", SIZED_BY[name]):
                    arrays[name] = rng.uniform(shape, -1.0 / np.sqrt(fan_in),
                                               1.0 / np.sqrt(fan_in))
        self.params: dict[str, Tensor] = {
            name: Tensor(arrays[name], requires_grad=True) for name in shapes}

    @classmethod
    def build(cls, config: ModelConfig, attr_vectors: np.ndarray,
              class_attr: np.ndarray, seed: int = 0) -> "HrtModel":
        """Construct semantics (with compaction) and the model in one go."""
        config.validate()
        compact = compact_semantics(attr_vectors, config.d_cap,
                                    method=config.compaction)
        semantics = SemanticSpace(attr_vectors=attr_vectors,
                                  compact_vectors=compact,
                                  class_attr=class_attr)
        return cls(config, semantics, seed=seed)

    # -- forward -------------------------------------------------------------

    def forward(self, patch_features: Tensor) -> ForwardResult:
        p = self.params
        aligned = encode(patch_features, self.semantics, p["enc.proj"],
                         p["enc.act_proj"], p["enc.vote_transforms"],
                         self.config.k_td)
        z_tilde = adjust_class_attributes(aligned.h, self.semantics,
                                          p["dec.w_beta"])
        psi = content_attribute_scores(aligned.h, self.semantics, p["dec.w_d"])
        scores = class_scores(psi, z_tilde)
        return ForwardResult(scores=scores, psi=psi, aligned=aligned)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
