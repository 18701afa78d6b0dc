"""Routing-iteration ablation sweeps."""

from __future__ import annotations

import copy

from .errors import ConfigError
from .config import loss_config_for, model_config_for
from .data import ZslDataset
from .metrics import evaluate
from .model import HrtModel
from .optim import OptimizerConfig
from .train import train

# not k_em: single-parent EM routing is closed form, so k_em changes nothing
# and a sweep over it would train the same model once per value
ABLATION_AXES = {"k_td"}
ABLATION_HEADER = "axis,value,tr,ts,h"


def run_ablation(dataset: ZslDataset, config: dict, axis: str,
                 values=(1, 2, 3, 4, 5), seed: int = 0) -> list[dict]:
    """Train and evaluate once per routing-iteration value; returns GZSL rows."""
    if axis not in ABLATION_AXES:
        raise ConfigError(f"ablation axis must be one of {sorted(ABLATION_AXES)}")
    loss_config = loss_config_for(config, dataset)
    rows = []
    for value in values:
        cfg = copy.deepcopy(config)
        cfg["model"][axis] = int(value)
        model = HrtModel.build(model_config_for(cfg, dataset),
                               dataset.semantics.attr_vectors,
                               dataset.semantics.class_attr, seed=seed)
        train(dataset, model, loss_config, OptimizerConfig(**cfg["optimizer"]),
              epochs=cfg["train"]["epochs"], seed=cfg["train"]["seed"],
              batch_size=cfg["train"]["batch_size"])
        metrics = evaluate(model, dataset, mode="gzsl",
                           gamma=loss_config.gamma_per_class)
        rows.append({"axis": axis, "value": int(value), "tr": metrics.tr,
                     "ts": metrics.ts, "h": metrics.h})
    return rows


def ablation_csv(rows: list[dict]) -> str:
    lines = [ABLATION_HEADER]
    for r in rows:
        lines.append(f"{r['axis']},{r['value']},{r['tr']!r},{r['ts']!r},{r['h']!r}")
    return "\n".join(lines) + "\n"
