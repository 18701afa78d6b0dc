"""Capsule-routing transformer for zero-shot learning.

A numpy library with a verified-gradient autodiff core, bottom-up EM capsule
routing, top-down inverted dot-product attention routing, a static-routing
decoder, and a full train / evaluate harness for (generalized) zero-shot
classification on synthetic or precomputed-feature datasets.
"""

from .errors import (ConfigError, DataFormatError, DimensionError,
                     NumericError)
from .tensor import Parameter, Tensor, no_grad
from .rng import SeededRng
from .gradcheck import grad_check, GradCheckReport
from .routing import inverted_routing
from .semantics import SemanticSpace, compact_semantics
from .encoder import AlignedFeatures, encode
from .decoder import (adjust_class_attributes, class_scores,
                      content_attribute_scores)
from .model import HrtModel, ModelConfig
from .losses import (LossConfig, attribute_regression_loss, calibration_loss,
                     cross_entropy, gamma_profile, predict)
from .optim import OptimizerConfig, RmsPropState, optimizer_step
from .train import (config_hash, load_checkpoint, save_checkpoint,
                    total_loss, train, write_history)
from .data import (SyntheticSpec, ZslDataset, generate_synthetic,
                   load_features, save_dataset)
from .metrics import Metrics, evaluate, harmonic_mean
from .ablation import run_ablation

__version__ = "0.1.0"

__all__ = [
    "AlignedFeatures", "ConfigError", "DataFormatError", "DimensionError",
    "GradCheckReport", "HrtModel", "LossConfig",
    "Metrics", "ModelConfig", "NumericError", "OptimizerConfig", "Parameter",
    "RmsPropState", "SeededRng", "SemanticSpace", "SyntheticSpec", "Tensor",
    "ZslDataset", "adjust_class_attributes", "attribute_regression_loss",
    "calibration_loss", "class_scores", "compact_semantics",
    "config_hash", "content_attribute_scores", "cross_entropy", "encode",
    "evaluate", "gamma_profile", "generate_synthetic",
    "grad_check", "harmonic_mean", "inverted_routing", "load_checkpoint",
    "load_features", "no_grad", "optimizer_step", "predict",
    "run_ablation", "save_checkpoint", "save_dataset",
    "total_loss", "train", "write_history",
]
