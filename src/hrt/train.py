"""Training loss and loop, per-epoch history, and the flat-binary checkpoint
format."""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, DimensionError
from .config import DEFAULTS, fits_type, loss_config_for, model_config_for
from . import tensor as T
from .rng import SEED_BOUND, SeededRng
from .model import ForwardResult, HrtModel, ModelConfig, array_layout
from .semantics import SemanticSpace
from .losses import (LossConfig, attribute_regression_loss, calibration_loss,
                     cross_entropy, predict)
from .optim import OptimizerConfig, RmsPropState, optimizer_step

CHECKPOINT_MAGIC = b"HRTC"
CHECKPOINT_VERSION = 7
HISTORY_HEADER = "epoch,L_ce,L_cal,L_reg,total,train_acc"


@dataclass
class EpochStats:
    epoch: int
    ce: float
    cal: float
    reg: float
    total: float
    train_acc: float

    def csv_row(self) -> str:
        return (f"{self.epoch},{self.ce!r},{self.cal!r},{self.reg!r},"
                f"{self.total!r},{self.train_acc!r}")


def result_loss(model: HrtModel, result: ForwardResult, label: int,
                loss_config: LossConfig):
    """L_ce + lambda1 * L_cal + lambda2 * L_reg over one forward result.

    Returns (total, parts) where parts maps component names to detached floats.
    """
    s = result.scores
    l_ce = cross_entropy(s, label)
    gamma = loss_config.gamma_per_class
    if gamma is None:
        gamma = np.zeros(s.data.shape[0])
    l_cal = calibration_loss(s, label, gamma)
    l_reg = attribute_regression_loss(result.psi,
                                      model.semantics.class_attr[label])
    total = T.weighted_sum((l_ce, l_cal, l_reg),
                           (1.0, loss_config.lambda1, loss_config.lambda2))
    parts = {"ce": l_ce.item(), "cal": l_cal.item(), "reg": l_reg.item(),
             "total": total.item()}
    return total, parts


def total_loss(model: HrtModel, patch_features, label: int,
               loss_config: LossConfig):
    """The training loss of one sample through the full forward pass."""
    return result_loss(model, model.forward(patch_features),
                       label, loss_config)


def train(dataset, model: HrtModel, loss_config: LossConfig,
          optimizer_config: OptimizerConfig, epochs: int,
          seed: int = DEFAULTS["train"]["seed"],
          batch_size: int = DEFAULTS["train"]["batch_size"]) -> list[EpochStats]:
    """Train on the seen-class train split; deterministic for a fixed seed.

    Samples are read from ``dataset.features`` by index, not copied out."""
    features, labels = dataset.features, dataset.labels
    train_idx = dataset.splits["train"]
    n = train_idx.size
    if n == 0:
        raise ConfigError("training split is empty")
    if epochs < 0 or batch_size < 1:
        raise ConfigError("need epochs >= 0 and batch_size >= 1")
    rng = SeededRng(seed)
    state = RmsPropState(config=optimizer_config)
    history: list[EpochStats] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        sums = np.zeros(4)
        correct = 0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            model.zero_grad()
            for i in train_idx[batch]:
                result = model.forward(features[i])
                total, parts = result_loss(model, result, int(labels[i]),
                                           loss_config)
                correct += int(predict(result.scores) == labels[i])
                total.backward()
                sums += [parts[k] for k in ("ce", "cal", "reg", "total")]
            # each leaf owns its gradient array, so the mean is formed in place
            for p in model.params.values():
                p.grad /= batch.size
            optimizer_step(state, model.params)
        history.append(EpochStats(epoch=epoch,
                                  ce=float(sums[0] / n),
                                  cal=float(sums[1] / n),
                                  reg=float(sums[2] / n),
                                  total=float(sums[3] / n),
                                  train_acc=correct / n))
    return history


def train_from_config(config: dict,
                      dataset) -> tuple[HrtModel, list[EpochStats]]:
    """Build the model a resolved experiment config gives for ``dataset``,
    initialised from ``train.seed``, and train it as ``config`` says. Both
    ``hrt train`` and each ``hrt ablate`` row take this path."""
    settings = config["train"]
    model = HrtModel.build(model_config_for(config, dataset),
                           dataset.semantics.attr_vectors,
                           dataset.semantics.class_attr, seed=settings["seed"])
    history = train(dataset, model, loss_config_for(config, dataset),
                    OptimizerConfig(**config["optimizer"]),
                    epochs=settings["epochs"], seed=settings["seed"],
                    batch_size=settings["batch_size"])
    return model, history


def write_history(history: list[EpochStats], path) -> None:
    lines = [HISTORY_HEADER] + [h.csv_row() for h in history]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- checkpoint format -------------------------------------------------------
#
# [4-byte magic "HRTC"][8-byte little-endian header length][UTF-8 JSON header]
# [float64 little-endian payload]
#
# The header holds the format version, the init seed, the model config and a
# hash of the resolved experiment config, and nothing else: the model config
# fixes the payload, which is the arrays of ``model.array_layout`` in its
# order, each holding only finite values. Any other version is rejected. A
# loaded model is built from the stored arrays and draws no random numbers.
#
# Arrays stream between the file and the model: a save writes each from its
# own buffer, and a load reads each straight into the array the model keeps,
# after checking that the file holds it, so a load holds one copy of the
# payload and a save none.


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def save_checkpoint(model: HrtModel, path,
                    experiment_config: dict | None = None) -> None:
    sem = model.semantics
    arrays = {"sem.attr_vectors": sem.attr_vectors,
              "sem.compact_vectors": sem.compact_vectors,
              "sem.class_attr": sem.class_attr,
              **{name: p.data for name, p in model.params.items()}}
    layout = array_layout(model.config)
    for name, shape in layout.items():
        if arrays[name].shape != shape:
            raise DimensionError(f"array {name!r} has shape "
                                 f"{arrays[name].shape}, the model config "
                                 f"gives {shape}")
    header = {
        "version": CHECKPOINT_VERSION,
        "seed": model.seed,
        "model_config": asdict(model.config),
        "config_hash": config_hash(experiment_config or {}),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in layout:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8"))


def _field(header, name: str, kind: type):
    """Header entry ``name``; a DataFormatError names it unless it is a
    ``kind`` (a bool is never an int)."""
    value = header.get(name) if isinstance(header, dict) else None
    if not fits_type(value, kind):
        raise DataFormatError(f"checkpoint header field {name!r} is missing "
                              f"or not of type {kind.__name__}")
    return value


def checkpoint_size(path) -> int:
    """The size of the checkpoint file ``path``, refused before it is opened
    unless it is a regular file: opening a named pipe waits for a writer."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        raise DataFormatError(f"missing checkpoint {path}") from None
    if not stat.S_ISREG(st.st_mode):
        raise DataFormatError(f"checkpoint {path} is not a regular file")
    return st.st_size


def load_checkpoint(path) -> HrtModel:
    size = checkpoint_size(path)
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != CHECKPOINT_MAGIC:
            raise DataFormatError("not a model checkpoint (bad magic)")
        if len(head) < 12:
            raise DataFormatError("checkpoint ends inside its header length")
        (hlen,) = struct.unpack("<Q", head[4:])
        if 12 + hlen > size:
            raise DataFormatError(f"checkpoint header length {hlen} runs past "
                                  f"the end of the {size}-byte file")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise DataFormatError(f"checkpoint {path} has a corrupt header: "
                                  f"{e}") from e
        config, seed = _header_config(header)

        arrays, offset = {}, 12 + hlen
        for name, shape in array_layout(config).items():
            nbytes = 8 * math.prod(shape)
            if offset + nbytes > size:
                raise DataFormatError(f"checkpoint truncated in array {name!r}")
            # the array read is the one the model keeps: the optimizer
            # updates parameters in place
            array = arrays[name] = np.empty(shape, dtype="<f8")
            if fh.readinto(array) != nbytes:
                raise DataFormatError(f"checkpoint truncated in array {name!r}")
            # a NaN carries through min and max, and an infinity is one of
            # them, so no mask the size of the array is built
            if not (np.isfinite(array.min()) and np.isfinite(array.max())):
                raise DataFormatError(
                    f"checkpoint array {name!r} holds a non-finite value")
            offset += nbytes
    if offset != size:
        raise DataFormatError(f"checkpoint has {size - offset} trailing bytes")
    semantics = SemanticSpace(attr_vectors=arrays["sem.attr_vectors"],
                              compact_vectors=arrays["sem.compact_vectors"],
                              class_attr=arrays["sem.class_attr"])
    return HrtModel(config, semantics, seed=seed, arrays=arrays)


def _header_config(header) -> tuple[ModelConfig, int]:
    """The model config and init seed of a decoded checkpoint header; a
    DataFormatError names the field at fault."""
    version = _field(header, "version", int)
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version} "
                              f"(expected {CHECKPOINT_VERSION})")
    seed = _field(header, "seed", int)
    if not 0 <= seed < SEED_BOUND:
        raise DataFormatError(f"checkpoint header field 'seed' is {seed}, "
                              "outside [0, 2**64)")
    model_config = _field(header, "model_config", dict)
    names = {f.name for f in fields(ModelConfig)}
    if model_config.keys() != names or not all(
            fits_type(value, int) for value in model_config.values()):
        raise DataFormatError("checkpoint header field 'model_config' does "
                              f"not match ModelConfig: {model_config}")
    digest = _field(header, "config_hash", str)
    if len(digest) != 64 or digest.strip("0123456789abcdef"):
        raise DataFormatError("checkpoint header field 'config_hash' is not "
                              "64 lowercase hex digits")
    unknown = set(header) - {"version", "seed", "model_config", "config_hash"}
    if unknown:
        raise DataFormatError(f"unknown checkpoint header field {min(unknown)!r}")
    try:
        return ModelConfig(**model_config), seed
    except ConfigError as e:
        raise DataFormatError(
            f"checkpoint header field 'model_config': {e}") from e
