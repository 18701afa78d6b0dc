"""Experiment configuration: defaults, JSON overrides, resolved echo.

Every default lives in one place: the routing, loss, optimizer and synthetic
task defaults are the fields of ``ModelConfig``, ``LossConfig``,
``OptimizerConfig`` and ``SyntheticSpec``, and ``DEFAULTS`` is built from
them. Only the ``gamma`` and ``train`` sections, which no dataclass holds,
are written here.
"""

from __future__ import annotations

import copy
import inspect
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import SyntheticSpec
from .errors import ConfigError
from .losses import LossConfig, gamma_profile
from .model import ModelConfig
from .optim import OptimizerConfig

# the ModelConfig fields that model_config_for takes from the dataset
DATASET_FIELDS = ("r_patches", "d_feat", "num_attributes", "num_classes", "tau")


def _field_defaults(cls, exclude=()) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name not in exclude}


GAMMA_PROFILES = {
    # the fine-grained offsets are gamma_profile's defaults
    "cub_sun": {name: p.default for name, p
                in inspect.signature(gamma_profile).parameters.items()
                if p.default is not p.empty},
    "awa2": {"seen_offset": -0.8, "unseen_offset": 1.0},
    "zero": {"seen_offset": 0.0, "unseen_offset": 0.0},
}

DEFAULTS: dict = {
    "model": _field_defaults(ModelConfig, exclude=DATASET_FIELDS),
    "loss": _field_defaults(LossConfig, exclude=("gamma_per_class",)),
    # profile picks preset offsets; set profile to null to use explicit ones
    "gamma": {"profile": "cub_sun", "seen_offset": None, "unseen_offset": None},
    "optimizer": _field_defaults(OptimizerConfig),
    "train": {"epochs": 200, "batch_size": 16, "seed": 0},
    "synthetic": {**_field_defaults(SyntheticSpec), "seed": 0},
}

# leaves that may be null, with the type of a value that is not
NULLABLE = {"gamma.profile": str, "gamma.seen_offset": float,
            "gamma.unseen_offset": float}


def fits_type(value, kind: type) -> bool:
    """Whether ``value`` is a ``kind``; an int stands for a float, and a bool
    is never a number."""
    if kind is float and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is kind


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        name = path + key
        if key not in out:
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(out[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {name!r} must be an object")
            out[key] = _merge(out[key], val, name + ".")
            continue
        kind = NULLABLE.get(name, type(out[key]))
        if not (fits_type(val, kind) or (val is None and name in NULLABLE)):
            null = " or null" if name in NULLABLE else ""
            raise ConfigError(f"config key {name!r} must be "
                              f"{kind.__name__}{null}, got {val!r}")
        out[key] = val
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, then the JSON file, then programmatic overrides."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        config = _merge(config, loaded)
    if overrides:
        config = _merge(config, overrides)
    return config


def echo_config(config: dict, path) -> None:
    """Write the fully resolved config to ``path``, next to an output."""
    Path(path).write_text(json.dumps(config, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def dataset_dims(dataset) -> dict:
    """The ``DATASET_FIELDS`` of ``dataset``."""
    sem = dataset.semantics
    return {"r_patches": dataset.r_patches, "d_feat": dataset.d_feat,
            "num_attributes": sem.num_attributes,
            "num_classes": sem.num_classes, "tau": sem.attr_vectors.shape[1]}


def model_config_for(config: dict, dataset) -> ModelConfig:
    """Combine configured routing settings with the dataset's dimensions."""
    return ModelConfig(**dataset_dims(dataset), **config["model"])


def loss_config_for(config: dict, dataset) -> LossConfig:
    """The configured loss weights with the dataset's calibration offsets."""
    gamma = gamma_offsets(config, dataset.semantics.num_classes,
                          dataset.seen_classes, dataset.unseen_classes)
    return LossConfig(**config["loss"], gamma_per_class=gamma)


def gamma_offsets(config: dict, num_classes: int, seen_classes,
                  unseen_classes) -> np.ndarray:
    g = config["gamma"]
    if g.get("profile") is not None:
        if g["profile"] not in GAMMA_PROFILES:
            raise ConfigError(f"unknown gamma profile {g['profile']!r}")
        for key in ("seen_offset", "unseen_offset"):
            if g.get(key) is not None:
                raise ConfigError(
                    f"gamma.{key} is set but gamma.profile {g['profile']!r} "
                    f"picks the offsets; set gamma.profile to null to use "
                    f"explicit offsets")
        offsets = GAMMA_PROFILES[g["profile"]]
    else:
        seen = g.get("seen_offset")
        unseen = g.get("unseen_offset")
        if seen is None or unseen is None:
            raise ConfigError("gamma profile null requires explicit "
                              "seen_offset and unseen_offset")
        offsets = {"seen_offset": seen, "unseen_offset": unseen}
    return gamma_profile(num_classes, seen_classes, unseen_classes, **offsets)
