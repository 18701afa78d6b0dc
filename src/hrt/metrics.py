"""ZSL / GZSL evaluation with per-class top-1 accuracy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import no_grad


@dataclass
class Metrics:
    t1: float | None = None   # ZSL: per-class top-1 on unseen, unseen label space
    tr: float | None = None   # GZSL: per-class top-1 on test_seen, full label space
    ts: float | None = None   # GZSL: per-class top-1 on test_unseen, full label space
    h: float | None = None    # harmonic mean of tr and ts

    def to_dict(self) -> dict:
        return {"t1": self.t1, "tr": self.tr, "ts": self.ts, "h": self.h}


def harmonic_mean(tr: float, ts: float) -> float:
    """2*tr*ts/(tr+ts), with the defined limit 0 when both are 0."""
    if tr == 0.0 and ts == 0.0:
        return 0.0
    return 2.0 * tr * ts / (tr + ts)


def _per_class_accuracy(labels: np.ndarray, predictions: np.ndarray) -> float:
    """Unweighted mean of per-class accuracies, in class-index order."""
    accs = []
    for c in sorted(set(labels.tolist())):
        mask = labels == c
        accs.append(float(np.mean(predictions[mask] == c)))
    return float(np.mean(accs))


def _score_split(model, dataset, split: str):
    """The scores [n, C] and labels of the samples of ``split``, each read
    from ``dataset.features`` in place."""
    idx = dataset.splits[split]
    if idx.size == 0:
        raise ConfigError(f"{split} split is empty")
    scores = np.zeros((idx.size, model.config.num_classes))
    features = dataset.features
    with no_grad():
        for row, i in enumerate(idx):
            scores[row] = model.forward(features[i]).scores.data
    return scores, dataset.labels[idx]


def evaluate(model, dataset, mode: str = "gzsl",
             gamma: np.ndarray | None = None) -> Metrics:
    """Evaluate a trained model.

    ``zsl`` restricts candidates to the unseen classes and reports t1;
    ``gzsl`` scores over the full label space with per-class calibration
    offsets and reports tr, ts, and their harmonic mean.
    """
    if mode not in ("zsl", "gzsl"):
        raise ConfigError(f"unknown evaluation mode {mode!r}")
    if mode == "zsl":
        scores, labels = _score_split(model, dataset, "test_unseen")
        unseen = np.array(dataset.unseen_classes, dtype=np.int64)
        # argmax restricted to unseen classes, ties to lowest class index
        preds = unseen[np.argmax(scores[:, unseen], axis=1)]
        return Metrics(t1=_per_class_accuracy(labels, preds))

    gamma = (np.zeros(model.config.num_classes) if gamma is None
             else np.asarray(gamma, dtype=np.float64))
    if gamma.shape != (model.config.num_classes,):
        raise DimensionError(f"gamma shape {gamma.shape} does not match "
                             f"{model.config.num_classes} classes")
    accs = {}
    for split in ("test_seen", "test_unseen"):
        scores, labels = _score_split(model, dataset, split)
        # ties resolve to the lowest class index, as in losses.predict
        preds = np.argmax(scores + gamma, axis=1)
        accs[split] = _per_class_accuracy(labels, preds)
    tr, ts = accs["test_seen"], accs["test_unseen"]
    return Metrics(tr=tr, ts=ts, h=harmonic_mean(tr, ts))
