"""Experiment configuration: defaults, JSON overrides, resolved echo.

Every default lives in one place: the routing, loss, optimizer and synthetic
task defaults are the fields of ``ModelConfig``, ``LossConfig``,
``OptimizerConfig`` and ``SyntheticSpec``, the calibration offsets are the
keyword defaults of ``losses.gamma_profile``, and ``DEFAULTS`` is built from
them. Only the ``train`` section, which nothing else holds, is written here.
"""

from __future__ import annotations

import copy
import json
import math
import os
import stat
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import SyntheticSpec
from .errors import ConfigError
from .losses import LossConfig, gamma_profile
from .model import ModelConfig
from .optim import OptimizerConfig
from .rng import check_seed

# the ModelConfig fields that model_config_for takes from the dataset
DATASET_FIELDS = ("d_feat", "num_attributes", "num_classes", "tau")


def _field_defaults(cls, exclude=()) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name not in exclude}


DEFAULTS: dict = {
    "model": _field_defaults(ModelConfig, exclude=DATASET_FIELDS),
    "loss": _field_defaults(LossConfig, exclude=("gamma_per_class",)),
    "gamma": dict(gamma_profile.__kwdefaults__),
    "optimizer": _field_defaults(OptimizerConfig),
    "train": {"epochs": 200, "batch_size": 16, "seed": 0},
    "synthetic": {**_field_defaults(SyntheticSpec), "seed": 0},
}


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
        kind = type(out[key])
        if not fits_type(val, kind):
            raise ConfigError(f"config key {name!r} must be "
                              f"{kind.__name__}, got {val!r}")
        if kind is float and not math.isfinite(val):
            raise ConfigError(f"config key {name!r} must be finite, got {val!r}")
        out[key] = val
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, then the JSON file, then programmatic overrides."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            # opening a named pipe would wait for a writer
            if not stat.S_ISREG(os.stat(path).st_mode):
                raise ConfigError(f"config {path} is not a regular file")
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as e:
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
    return {"d_feat": dataset.d_feat, "num_attributes": sem.num_attributes,
            "num_classes": sem.num_classes, "tau": sem.attr_vectors.shape[1]}


def model_config_for(config: dict, dataset) -> ModelConfig:
    """Combine configured routing settings with the dataset's dimensions."""
    return ModelConfig(**dataset_dims(dataset), **config["model"])


def synthetic_spec_for(config: dict) -> tuple[SyntheticSpec, int]:
    """The configured synthetic recipe and the seed to generate it from,
    both checked."""
    params = dict(config["synthetic"])
    seed = params.pop("seed")
    return SyntheticSpec(**params), check_seed(seed)


def loss_config_for(config: dict, dataset) -> LossConfig:
    """The configured loss weights with the dataset's calibration offsets."""
    gamma = gamma_offsets(config, dataset.semantics.num_classes,
                          dataset.seen_classes, dataset.unseen_classes)
    return LossConfig(**config["loss"], gamma_per_class=gamma)


def gamma_offsets(config: dict, num_classes: int, seen_classes,
                  unseen_classes) -> np.ndarray:
    """The configured calibration offset of every class."""
    return gamma_profile(num_classes, seen_classes, unseen_classes,
                         **config["gamma"])
