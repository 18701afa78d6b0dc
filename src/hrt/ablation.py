"""Routing-iteration ablation sweeps."""

from __future__ import annotations

import copy

from .config import loss_config_for, model_config_for
from .data import ZslDataset
from .metrics import evaluate
from .model import HrtModel
from .optim import OptimizerConfig
from .train import train

ABLATION_HEADER = "axis,value,tr,ts,h"
K_TD_VALUES = (1, 2, 3, 4, 5)


def run_ablation(dataset: ZslDataset, config: dict) -> list[dict]:
    """Train and evaluate once per top-down routing iteration count ``k_td``
    in ``K_TD_VALUES``; returns GZSL rows.

    As in ``hrt train``, ``config["train"]["seed"]`` both initialises each
    model and orders its training data, so the row at the configured ``k_td``
    reproduces a train and evaluate run. ``k_em`` is not swept: single-parent
    EM routing is closed form, so it would train the same model once per value.
    """
    loss_config = loss_config_for(config, dataset)
    seed = config["train"]["seed"]
    rows = []
    for value in K_TD_VALUES:
        cfg = copy.deepcopy(config)
        cfg["model"]["k_td"] = value
        model = HrtModel.build(model_config_for(cfg, dataset),
                               dataset.semantics.attr_vectors,
                               dataset.semantics.class_attr, seed=seed)
        train(dataset, model, loss_config, OptimizerConfig(**cfg["optimizer"]),
              epochs=cfg["train"]["epochs"], seed=seed,
              batch_size=cfg["train"]["batch_size"])
        metrics = evaluate(model, dataset, mode="gzsl",
                           gamma=loss_config.gamma_per_class)
        rows.append({"axis": "k_td", "value": value, "tr": metrics.tr,
                     "ts": metrics.ts, "h": metrics.h})
    return rows


def ablation_csv(rows: list[dict]) -> str:
    lines = [ABLATION_HEADER]
    for r in rows:
        lines.append(f"{r['axis']},{r['value']},{r['tr']!r},{r['ts']!r},{r['h']!r}")
    return "\n".join(lines) + "\n"
