"""Training loss and loop, per-epoch history, and the flat-binary checkpoint
format."""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError
from .tensor import Tensor, as_tensor
from .rng import SeededRng
from .model import ForwardResult, HrtModel, ModelConfig
from .semantics import SemanticSpace
from .losses import (LossConfig, attribute_regression_loss, calibration_loss,
                     cross_entropy, predict)
from .optim import OptimizerConfig, RmsPropState, optimizer_step

CHECKPOINT_MAGIC = b"HRTC"
CHECKPOINT_VERSION = 2
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
    total = l_ce + loss_config.lambda1 * l_cal + loss_config.lambda2 * l_reg
    parts = {"ce": l_ce.item(), "cal": l_cal.item(), "reg": l_reg.item(),
             "total": total.item()}
    return total, parts


def total_loss(model: HrtModel, patch_features, label: int,
               loss_config: LossConfig):
    """The training loss of one sample through the full forward pass."""
    return result_loss(model, model.forward(as_tensor(patch_features)),
                       label, loss_config)


def train(dataset, model: HrtModel, loss_config: LossConfig,
          optimizer_config: OptimizerConfig, epochs: int, seed: int = 0,
          batch_size: int = 16) -> list[EpochStats]:
    """Train on the seen-class train split; deterministic for a fixed seed."""
    feats, labels = dataset.split_samples("train")
    n = feats.shape[0]
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
            for i in batch:
                result = model.forward(Tensor(feats[i]))
                total, parts = result_loss(model, result, int(labels[i]),
                                           loss_config)
                correct += int(predict(result.scores) == labels[i])
                total.backward()
                sums += [parts[k] for k in ("ce", "cal", "reg", "total")]
            grads = {name: (p.grad if p.grad is not None
                            else np.zeros_like(p.data)) / batch.size
                     for name, p in model.params.items()}
            optimizer_step(state, model.params, grads)
        history.append(EpochStats(epoch=epoch,
                                  ce=float(sums[0] / n),
                                  cal=float(sums[1] / n),
                                  reg=float(sums[2] / n),
                                  total=float(sums[3] / n),
                                  train_acc=correct / n))
    return history


def write_history(history: list[EpochStats], path) -> None:
    lines = [HISTORY_HEADER] + [h.csv_row() for h in history]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- checkpoint format -------------------------------------------------------
#
# [4-byte magic "HRTC"][8-byte little-endian header length][UTF-8 JSON header]
# [float64 little-endian payload]
#
# The header declares the format version, tensor names/shapes in payload
# order, the model config, the init seed, and a hash of the resolved
# experiment config. Version 2 dropped the encoder's EM ``beta``/``gamma``
# parameters and the ``em_lambda``/``sigma_floor`` model config keys; any
# other version is rejected.


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def save_checkpoint(model: HrtModel, path, experiment_config: dict | None = None,
                    extra: dict | None = None) -> None:
    names = sorted(model.params)
    sem = model.semantics
    arrays = [("sem.attr_vectors", sem.attr_vectors),
              ("sem.compact_vectors", sem.compact_vectors),
              ("sem.class_attr", sem.class_attr)]
    arrays += [(n, model.params[n].data) for n in names]
    header = {
        "version": CHECKPOINT_VERSION,
        "dtype": "f64",
        "endianness": "little",
        "seed": model.seed,
        "model_config": model.config_dict(),
        "config_hash": config_hash(experiment_config or {}),
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _field(header, name: str, kind: type):
    """Header entry ``name``; a DataFormatError names it unless it is a ``kind``."""
    value = header.get(name) if isinstance(header, dict) else None
    if not isinstance(value, kind):
        raise DataFormatError(f"checkpoint header field {name!r} is missing "
                              f"or not of type {kind.__name__}")
    return value


def load_checkpoint(path) -> HrtModel:
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError("not a model checkpoint (bad magic)")
    if len(raw) < 12:
        raise DataFormatError("checkpoint ends inside its header length")
    (hlen,) = struct.unpack("<Q", raw[4:12])
    if 12 + hlen > len(raw):
        raise DataFormatError(f"checkpoint header length {hlen} runs past "
                              f"the end of the {len(raw)}-byte file")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataFormatError(f"corrupt checkpoint header: {e}") from e
    version = _field(header, "version", int)
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version} "
                              f"(expected {CHECKPOINT_VERSION})")
    model_config = _field(header, "model_config", dict)
    defaults = {f.name: f.default for f in fields(ModelConfig)}
    # a float field may hold an int, as a JSON config can write 1 for 1.0
    if model_config.keys() != defaults.keys() or any(
            not isinstance(model_config[k],
                           (int, float) if type(v) is float else type(v))
            for k, v in defaults.items()):
        raise DataFormatError("checkpoint header field 'model_config' does "
                              f"not match ModelConfig: {model_config}")
    seed = _field(header, "seed", int)
    offset = 12 + hlen
    tensors = {}
    for entry in _field(header, "tensors", list):
        name, shape = _field(entry, "name", str), _field(entry, "shape", list)
        if not all(isinstance(d, int) and d >= 0 for d in shape):
            raise DataFormatError(f"tensor {name!r} has bad shape {shape}")
        end = offset + math.prod(shape) * 8
        if end > len(raw):
            raise DataFormatError(f"checkpoint truncated in tensor {name!r}")
        tensors[name] = np.frombuffer(raw[offset:end],
                                      dtype="<f8").reshape(shape)
        offset = end
    if offset != len(raw):
        raise DataFormatError(
            f"checkpoint has {len(raw) - offset} trailing bytes")
    for name in ("sem.attr_vectors", "sem.compact_vectors", "sem.class_attr"):
        if name not in tensors:
            raise DataFormatError(f"checkpoint missing tensor {name!r}")

    config = ModelConfig(**model_config)
    semantics = SemanticSpace(attr_vectors=tensors["sem.attr_vectors"],
                              compact_vectors=tensors["sem.compact_vectors"],
                              class_attr=tensors["sem.class_attr"])
    model = HrtModel(config, semantics, seed=seed)
    for name, p in model.params.items():
        if name not in tensors:
            raise DataFormatError(f"checkpoint missing parameter {name!r}")
        if tensors[name].shape != p.data.shape:
            raise DataFormatError(
                f"parameter {name!r} has shape {tensors[name].shape}, "
                f"expected {p.data.shape}")
        p.data = tensors[name].copy()
    return model
