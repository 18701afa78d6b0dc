"""Directional gradient checks at every shape the benchmark trains.

The gradient suite probes every scalar, so it runs only on the tiny
problem. Here the analytic derivative of the training loss along a random
unit direction, the dot product of the gradient with it, is compared with
the central difference of the loss along it: k directions over all
parameters, and k more within each parameter group, so a failure names its
group. That costs two forwards a direction, so it runs at the default and
``train_wide_grid`` shapes too (the fast mode of PyTorch's ``gradcheck``
works the same way).
"""

import numpy as np
import pytest

from hrt import HrtModel, generate_synthetic, no_grad, total_loss
from hrt.config import (load_config, loss_config_for, model_config_for,
                        synthetic_spec_for)
from hrt.gradcheck import tiny_problem

from helpers import WIDE_GRID

# the gradient suite's tiny problem, and the default and train_wide_grid
# configs of bench/run.py
OVERLAYS = {"tiny": None, "default": {},
            "wide_grid": {"synthetic": WIDE_GRID,
                          "model": {"k_em": 1, "k_td": 3}}}
TOL = 1e-6


def loss_problem(shape: str):
    """The training loss of the first train sample at ``shape``, as a
    closure over the model's parameters, and those parameters."""
    if OVERLAYS[shape] is None:
        dataset, model = tiny_problem(0)
        config = load_config()
    else:
        config = load_config(overrides=OVERLAYS[shape])
        dataset = generate_synthetic(*synthetic_spec_for(config))
        model = HrtModel.build(model_config_for(config, dataset),
                               dataset.semantics.attr_vectors,
                               dataset.semantics.class_attr, seed=0)
    loss_config = loss_config_for(config, dataset)
    i = dataset.splits["train"][0]
    x, label = dataset.features[i], int(dataset.labels[i])
    return (lambda: total_loss(model, x, label, loss_config)[0]), model.params


def gradients(f, params) -> dict:
    for p in params.values():
        p.zero_grad()
    f().backward()
    return {name: p.grad.copy() for name, p in params.items()}


def directional_check(f, params, grads, *, k=8, seed=0, h=1e-5) -> dict:
    """The worst relative error between ``grads`` and central differences
    of ``f`` along ``k`` random unit directions over all ``params`` (key
    "all") and ``k`` within each group (keyed by its name).

    The central difference carries a rounding error of about eps * |f| / h
    whatever the direction, so a group whose derivative is far below the
    model's would fail on rounding alone under a plain relative error. The
    denominator is therefore at least the root mean square derivative along
    a unit direction over all parameters, |grad| / sqrt(size), and not the
    unit floor of ``gradcheck._rel_error``, which is far above the
    derivatives at the wide shape.
    """
    floor = np.sqrt(sum(np.vdot(g, g) for g in grads.values())
                    / sum(g.size for g in grads.values()))
    saved = {name: p.data.copy() for name, p in params.items()}
    rng = np.random.default_rng(seed)
    worst = {}
    for key in ("all", *params):
        group = list(params) if key == "all" else [key]
        worst[key] = 0.0
        for _ in range(k):
            u = {name: rng.standard_normal(saved[name].shape)
                 for name in group}
            norm = np.sqrt(sum(np.vdot(v, v) for v in u.values()))
            analytic = sum(np.vdot(grads[name], v) for name, v in u.items())
            analytic /= norm
            values = []
            for step in (h / norm, -h / norm):
                for name, v in u.items():
                    np.add(saved[name], step * v, out=params[name].data)
                with no_grad():
                    values.append(f().item())
            for name in group:
                params[name].data[...] = saved[name]
            numeric = (values[0] - values[1]) / (2 * h)
            error = abs(analytic - numeric) / max(abs(analytic),
                                                  abs(numeric), floor)
            worst[key] = max(worst[key], error)
    return worst


@pytest.mark.parametrize("shape", list(OVERLAYS))
def test_directional_derivatives_agree(shape):
    f, params = loss_problem(shape)
    errors = directional_check(f, params, gradients(f, params))
    assert set(errors) == {"all", *params}
    assert max(errors.values()) <= TOL, errors


@pytest.mark.parametrize("group", ["enc.proj", "enc.act_proj",
                                   "enc.vote_transforms", "dec.w_beta",
                                   "dec.w_d"])
def test_scaled_group_gradient_fails_naming_the_group(group):
    f, params = loss_problem("tiny")
    grads = gradients(f, params)
    grads[group] = grads[group] * 1.001
    errors = directional_check(f, params, grads)
    failed = {key for key, error in errors.items() if error > TOL}
    # the directions over all parameters cross every group
    assert failed - {"all"} == {group}, errors
