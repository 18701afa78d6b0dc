"""Full model: parameter container, seeded initialization, forward pass."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, allocating
from .tensor import Parameter, Tensor
from .rng import SeededRng
from .encoder import AlignedFeatures, encode
from .decoder import (adjust_class_attributes, class_scores,
                      content_attribute_scores)
from .semantics import SemanticSpace, compact_semantics


# the ModelConfig fields that come from the dataset, not from config keys
DATASET_FIELDS = ("d_feat", "num_attributes", "num_classes", "tau")


@dataclass(frozen=True)
class ModelConfig:
    """Shape and routing configuration; the sizes come from the dataset or
    a checkpoint. A config that is out of range raises a ConfigError."""

    d_feat: int
    num_attributes: int
    num_classes: int
    tau: int
    d_cap: int = 16
    n_primary: int = 128
    k_em: int = 5    # EM iterations; no effect, single-parent EM is closed form
    k_td: int = 2

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1")


def param_shapes(c: ModelConfig) -> dict:
    """Each parameter's shape, init fan-in and what sizes it (a config key
    ``model.<field>`` or a dimension ``the dataset's <field>``), in draw
    order, from one table of the fields that give them."""
    table = {"enc.proj": (("d_feat", "n_primary", "d_cap"), "d_feat"),
             "enc.act_proj": (("d_feat", "n_primary"), "d_feat"),
             "enc.vote_transforms": (("num_attributes", "d_cap", "d_cap"),
                                     "d_cap"),
             "dec.w_beta": (("tau", "d_feat"), "tau"),
             "dec.w_d": (("d_feat", "tau"), "d_feat")}
    return {name: (tuple(getattr(c, k) for k in axes), getattr(c, fan_in),
                   [f"the dataset's {k}" if k in DATASET_FIELDS
                    else f"model.{k}" for k in dict.fromkeys(axes)])
            for name, (axes, fan_in) in table.items()}


def array_layout(c: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every array a model holds and its shape, in checkpoint payload order:
    the semantic arrays, then the parameters in name order."""
    params = param_shapes(c)
    return {"sem.attr_vectors": (c.num_attributes, c.tau),
            "sem.compact_vectors": (c.num_attributes, c.d_cap),
            "sem.class_attr": (c.num_classes, c.num_attributes),
            **{name: params[name][0] for name in sorted(params)}}


def _check_shapes(config: ModelConfig,
                  arrays: dict[str, np.ndarray | None]) -> None:
    """Raise a ConfigError naming the first of ``arrays`` (keyed as in
    ``array_layout``) that is missing (None) or whose shape ``config`` does
    not give."""
    layout = array_layout(config)
    for name, array in arrays.items():
        if array is None:
            raise ConfigError(f"array {name!r} is missing")
        if np.shape(array) != layout[name]:
            raise ConfigError(f"array {name!r} has shape "
                              f"{np.shape(array)}, config needs "
                              f"{layout[name]}")


@dataclass
class ForwardResult:
    scores: Tensor            # [C]
    psi: Tensor               # [A]
    aligned: AlignedFeatures


class HrtModel:
    """Encoder + decoder parameters with a seeded-uniform initialization.

    Weights are drawn uniformly in +-1/sqrt(fan_in) (``param_shapes``), or
    taken as they are from ``arrays`` by parameter name (other entries are
    ignored), which must be writeable float64 arrays.  One that is missing
    or misshapen raises a ConfigError naming it before any is wrapped, and
    one that is not finite a NumericError.  ``semantics`` must carry the
    compacted attribute vectors (``build`` computes them); the model wraps
    them, the attribute vectors and the class attribute rows as constant
    tensors once, and every forward reads those.
    """

    def __init__(self, config: ModelConfig, semantics: SemanticSpace,
                 seed: int = 0, arrays: dict[str, np.ndarray] | None = None):
        if semantics.compact_vectors is None:
            raise ConfigError("semantic array 'sem.compact_vectors' is "
                              "missing: the attribute vectors are not "
                              "compacted (HrtModel.build compacts them)")
        shapes = param_shapes(config)
        _check_shapes(config, {
            "sem.attr_vectors": semantics.attr_vectors,
            "sem.compact_vectors": semantics.compact_vectors,
            "sem.class_attr": semantics.class_attr,
            **({} if arrays is None
               else {name: arrays.get(name) for name in shapes})})
        self.config = config
        self.semantics = semantics
        self.seed = seed
        if arrays is None:
            rng = SeededRng(seed)
            arrays = {}
            for name, (shape, fan_in, keys) in shapes.items():
                with allocating(f"parameter {name!r}", ", ".join(keys[:-1])
                                + " and " + keys[-1]):
                    arrays[name] = rng.uniform(shape, -1.0 / np.sqrt(fan_in),
                                               1.0 / np.sqrt(fan_in))
        self.params: dict[str, Parameter] = {
            name: Parameter(arrays[name]) for name in shapes}
        # the semantic constants; lam is a view whose columns are the v_a
        self.compact = Tensor(semantics.compact_vectors)   # [A, d_cap]
        self.lam = Tensor(semantics.attr_vectors.T)        # [tau, A]
        self.class_attr = Tensor(semantics.class_attr)     # [C, A]

    @classmethod
    def build(cls, config: ModelConfig, attr_vectors: np.ndarray,
              class_attr: np.ndarray, seed: int = 0) -> "HrtModel":
        """Check the semantic arrays, compact the attribute vectors and
        build the model over semantics that carry them."""
        _check_shapes(config, {"sem.attr_vectors": attr_vectors,
                               "sem.class_attr": class_attr})
        semantics = SemanticSpace(attr_vectors=attr_vectors,
                                  class_attr=class_attr)
        compact = compact_semantics(semantics.attr_vectors, config.d_cap)
        return cls(config, replace(semantics, compact_vectors=compact),
                   seed=seed)

    # -- forward -------------------------------------------------------------

    def forward(self, patch_features: np.ndarray) -> ForwardResult:
        """Forward one patch grid [R, D_feat], given as an array."""
        p = self.params
        aligned = encode(Tensor(patch_features), self.compact, p["enc.proj"],
                         p["enc.act_proj"], p["enc.vote_transforms"],
                         self.config.k_td)
        z_tilde = adjust_class_attributes(aligned.h, self.lam,
                                          self.class_attr, p["dec.w_beta"])
        psi = content_attribute_scores(aligned.h, self.lam, p["dec.w_d"])
        scores = class_scores(psi, z_tilde)
        return ForwardResult(scores=scores, psi=psi, aligned=aligned)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
