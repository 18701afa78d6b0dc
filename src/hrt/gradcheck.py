"""Finite-difference verification of analytic gradients.

Central differences (f(x+h) - f(x-h)) / 2h are compared against the gradients
produced by reverse-mode accumulation, per parameter group. The relative error
uses a unit floor in the denominator so that near-zero gradient pairs compare
on absolute terms.

``check_model_gradients`` runs the check over the full training loss of the
tiny problem (``TINY_SPEC`` and ``TINY_MODEL``), as ``hrt gradcheck`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .config import dataset_dims, loss_config_for
from .data import SyntheticSpec, ZslDataset, generate_synthetic
from .errors import NumericError
from .model import HrtModel, ModelConfig
from .tensor import Parameter, Tensor, no_grad
from .train import total_loss

# the tiny problem: small enough that a full finite-difference sweep of every
# parameter finishes in seconds.  TINY_MODEL sets only the model's own sizes;
# the dataset's (d_feat, num_attributes, num_classes, tau) come from TINY_SPEC
TINY_SPEC = SyntheticSpec(c_seen=5, c_unseen=2, num_attributes=6, r_patches=4,
                          d_feat=16, tau=8, samples_per_class=2, noise_std=0.1,
                          signal_patches_per_attribute=1)
TINY_MODEL = dict(d_cap=8, n_primary=8, k_em=2, k_td=2)


@dataclass
class GradCheckReport:
    passed: bool
    tol: float
    h: float
    max_rel_error: float
    per_group: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [f"gradcheck {'PASS' if self.passed else 'FAIL'} "
                 f"(tol={self.tol:g}, h={self.h:g}, max_rel={self.max_rel_error:.3e})"]
        for name, err in sorted(self.per_group.items()):
            lines.append(f"  {name:30s} max_rel={err:.3e}")
        return "\n".join(lines)


def _rel_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1.0)


def grad_check(f: Callable[[], Tensor], params: Mapping[str, Parameter], *,
               h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Check the analytic gradient of ``f`` with respect to every scalar in
    ``params`` against central finite differences.

    ``f`` is a closure over the parameter tensors; it is re-evaluated with
    perturbed entries for the numeric side and once with backward() for the
    analytic side.
    """
    for p in params.values():
        p.zero_grad()
    out = f()
    if out.data.size != 1:
        raise NumericError("grad_check target must be scalar-valued")
    out.backward()
    analytic = {name: np.zeros_like(p.data) if p.grad is None else p.grad
                for name, p in params.items()}

    per_group: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        aflat = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            try:
                with no_grad():
                    flat[i] = orig + h
                    f_plus = f().item()
                    flat[i] = orig - h
                    f_minus = f().item()
            finally:
                flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite objective while probing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            worst = max(worst, _rel_error(aflat[i], numeric))
        per_group[name] = worst

    max_rel = max(per_group.values()) if per_group else 0.0
    return GradCheckReport(passed=max_rel <= tol, tol=tol, h=h,
                           max_rel_error=max_rel, per_group=per_group)


def tiny_problem(seed: int) -> tuple[ZslDataset, HrtModel]:
    """The ``TINY_SPEC`` dataset and a ``TINY_MODEL`` over it, both drawn
    from ``seed``."""
    dataset = generate_synthetic(TINY_SPEC, seed)
    model = HrtModel.build(ModelConfig(**dataset_dims(dataset), **TINY_MODEL),
                           dataset.semantics.attr_vectors,
                           dataset.semantics.class_attr, seed=seed)
    return dataset, model


def check_model_gradients(config: dict, seed: int, *, h: float,
                          tol: float) -> GradCheckReport:
    """Check every parameter's gradient of the training loss, with the
    ``loss`` and ``gamma`` sections of ``config``, on the first ``train``
    sample of ``tiny_problem(seed)``."""
    dataset, model = tiny_problem(seed)
    loss_config = loss_config_for(config, dataset)
    i = dataset.splits["train"][0]
    x, label = dataset.features[i], int(dataset.labels[i])
    return grad_check(lambda: total_loss(model, x, label, loss_config)[0],
                      model.params, h=h, tol=tol)
