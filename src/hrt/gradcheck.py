"""Finite-difference verification of analytic gradients.

Central differences (f(x+h) - f(x-h)) / 2h are compared against the gradients
produced by reverse-mode accumulation, per parameter group. The relative error
uses a unit floor in the denominator so that near-zero gradient pairs compare
on absolute terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import NumericError
from .tensor import Tensor, no_grad


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


def grad_check(f: Callable[[], Tensor], params: Mapping[str, Tensor], *,
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

    per_group: dict[str, float] = {}
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = np.asarray(analytic, dtype=np.float64).reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + h
                f_plus = f().item()
                flat[i] = orig - h
                f_minus = f().item()
                flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite objective while probing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            worst = max(worst, _rel_error(aflat[i], numeric))
        per_group[name] = worst

    max_rel = max(per_group.values()) if per_group else 0.0
    return GradCheckReport(passed=max_rel <= tol, tol=tol, h=h,
                           max_rel_error=max_rel, per_group=per_group)
