"""Experiment configuration: defaults, JSON overrides, resolved echo."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .losses import LossConfig, gamma_profile
from .model import ModelConfig

GAMMA_PROFILES = {
    "cub_sun": {"seen_offset": -0.5, "unseen_offset": 1.0},
    "awa2": {"seen_offset": -0.8, "unseen_offset": 1.0},
    "zero": {"seen_offset": 0.0, "unseen_offset": 0.0},
}

DEFAULTS: dict = {
    "model": {
        "d_cap": 16,
        "n_primary": 128,
        "k_em": 5,
        "k_td": 2,
        "layer_norm_eps": 1e-5,
        "pose_mode": "matrix",
        "compaction": "factor-analysis",
    },
    "loss": {"lambda1": 0.1, "lambda2": 0.033},
    # profile picks preset offsets; set profile to null to use explicit ones
    "gamma": {"profile": "cub_sun", "seen_offset": None, "unseen_offset": None},
    "optimizer": {"lr": 1e-3, "momentum": 0.9, "rho": 0.99, "eps": 1e-8,
                  "weight_decay": 1e-4},
    "train": {"epochs": 200, "batch_size": 16, "seed": 0},
    "synthetic": {"c_seen": 8, "c_unseen": 4, "num_attributes": 12,
                  "r_patches": 9, "d_feat": 64, "tau": 32,
                  "samples_per_class": 40, "noise_std": 0.1,
                  "signal_patches_per_attribute": 2, "train_fraction": 0.75,
                  "seed": 0},
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if key not in out:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(out[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            out[key] = _merge(out[key], val, path + key + ".")
        else:
            out[key] = val
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, then the JSON file, then programmatic overrides."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        config = _merge(config, loaded)
    if overrides:
        config = _merge(config, overrides)
    return config


def echo_config(config: dict, out_dir) -> None:
    """Write the fully resolved config next to an output artifact."""
    (Path(out_dir) / "config.json").write_text(
        json.dumps(config, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def model_config_for(config: dict, dataset) -> ModelConfig:
    """Combine configured routing settings with the dataset's dimensions."""
    m = config["model"]
    return ModelConfig(r_patches=dataset.r_patches,
                       d_feat=dataset.d_feat,
                       num_attributes=dataset.semantics.num_attributes,
                       num_classes=dataset.semantics.class_attr.shape[0],
                       tau=dataset.semantics.attr_vectors.shape[1],
                       **m)


def loss_config_for(config: dict, dataset) -> LossConfig:
    """The configured loss weights with the dataset's calibration offsets."""
    gamma = gamma_offsets(config, dataset.semantics.class_attr.shape[0],
                          dataset.seen_classes, dataset.unseen_classes)
    return LossConfig(lambda1=config["loss"]["lambda1"],
                      lambda2=config["loss"]["lambda2"],
                      gamma_per_class=gamma)


def gamma_offsets(config: dict, num_classes: int, seen_classes,
                  unseen_classes) -> np.ndarray:
    g = config["gamma"]
    if g.get("profile") is not None:
        if g["profile"] not in GAMMA_PROFILES:
            raise ConfigError(f"unknown gamma profile {g['profile']!r}")
        offsets = GAMMA_PROFILES[g["profile"]]
    else:
        seen = g.get("seen_offset")
        unseen = g.get("unseen_offset")
        if seen is None or unseen is None:
            raise ConfigError("gamma profile null requires explicit "
                              "seen_offset and unseen_offset")
        offsets = {"seen_offset": seen, "unseen_offset": unseen}
    return gamma_profile(num_classes, seen_classes, unseen_classes, **offsets)
