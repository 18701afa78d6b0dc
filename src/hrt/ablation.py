"""Routing-iteration ablation sweeps."""

from __future__ import annotations

from .config import gamma_offsets
from .data import ZslDataset
from .metrics import evaluate
from .train import train_from_config

ABLATION_HEADER = "axis,value,tr,ts,h"
K_TD_VALUES = (1, 2, 3, 4, 5)


def run_ablation(dataset: ZslDataset, config: dict) -> list[dict]:
    """Train and evaluate once per top-down routing iteration count ``k_td``
    in ``K_TD_VALUES``; returns GZSL rows.

    Each row trains with ``train_from_config``, as ``hrt train`` does, and is
    scored with the calibration offsets ``hrt eval`` uses, so the row at the
    configured ``k_td`` reproduces a train and evaluate run. ``k_em`` is not
    swept: single-parent EM routing is closed form, so it would train the
    same model once per value.
    """
    gamma = gamma_offsets(config, dataset.semantics.num_classes,
                          dataset.seen_classes, dataset.unseen_classes)
    rows = []
    for value in K_TD_VALUES:
        model, _ = train_from_config(
            {**config, "model": {**config["model"], "k_td": value}}, dataset)
        metrics = evaluate(model, dataset, mode="gzsl", gamma=gamma)
        rows.append({"axis": "k_td", "value": value, "tr": metrics.tr,
                     "ts": metrics.ts, "h": metrics.h})
    return rows


def ablation_csv(rows: list[dict]) -> str:
    lines = [ABLATION_HEADER]
    for r in rows:
        lines.append(f"{r['axis']},{r['value']},{r['tr']!r},{r['ts']!r},{r['h']!r}")
    return "\n".join(lines) + "\n"
