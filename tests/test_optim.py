import math

import numpy as np
import pytest

from hrt import NumericError, OptimizerConfig, Parameter, RmsPropState, \
    Tensor, optimizer_step
from hrt import tensor as T


def test_zero_grad_zero_decay_is_fixed_point():
    p = Parameter(np.array([1.0, -2.0]))
    state = RmsPropState(OptimizerConfig(weight_decay=0.0))
    before = p.data.copy()
    for _ in range(5):
        p.grad = np.zeros(2)
        optimizer_step(state, {"p": p})
    assert np.array_equal(p.data, before)


def test_zero_grad_with_decay_shrinks_params():
    lr, wd = 1e-3, 1e-2
    p = Parameter(np.array([1.0]))
    state = RmsPropState(OptimizerConfig(lr=lr, weight_decay=wd))
    expected = 1.0
    for _ in range(10):
        p.grad = np.zeros(1)
        optimizer_step(state, {"p": p})
        expected *= (1.0 - lr * wd)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)


def test_quadratic_trajectory_matches_loop_oracle():
    cfg = OptimizerConfig()  # lr 1e-3, momentum 0.9, rho 0.99, wd 1e-4
    p = Parameter(np.array([1.0]))
    state = RmsPropState(cfg)

    theta, acc, buf = 1.0, 0.0, 0.0
    for _ in range(10):
        p.grad = np.array([2.0 * p.data[0]])
        optimizer_step(state, {"p": p})
        # independent recursion of the documented update equations
        g_o = 2.0 * theta
        acc = cfg.rho * acc + (1.0 - cfg.rho) * g_o * g_o
        eff = g_o / (math.sqrt(acc) + cfg.eps)
        buf = cfg.momentum * buf + eff
        theta = theta - cfg.lr * buf - cfg.lr * cfg.weight_decay * theta
        assert p.data[0] == pytest.approx(theta, rel=1e-12)


def test_nonfinite_gradient_aborts():
    p = Parameter(np.array([1.0]))
    state = RmsPropState(OptimizerConfig())
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError, match="p"):
        optimizer_step(state, {"p": p})


def test_parameter_without_gradient_is_named_before_any_change():
    # v, stepped first, has a gradient and keeps its weights and state too
    v, w = Parameter(np.ones(2)), Parameter(np.ones(3))
    v.grad = np.ones(2)
    state = RmsPropState(OptimizerConfig())
    with pytest.raises(NumericError,
                       match="parameter 'w' received no gradient"):
        optimizer_step(state, {"v": v, "w": w})
    assert np.array_equal(v.data, np.ones(2))
    assert np.array_equal(w.data, np.ones(3))
    assert state.square_avg == {} and state.momentum_buf == {}


# 1e200 is finite but its square is not; a refused step changes no state
def test_gradient_whose_square_overflows_aborts():
    p = Parameter(np.array([1.0, -2.0]))
    state = RmsPropState(OptimizerConfig())
    p.grad = np.array([1.0, -1.0])
    optimizer_step(state, {"p": p})
    before = (p.data.copy(), state.square_avg["p"].copy(),
              state.momentum_buf["p"].copy())
    p.grad = np.array([1e200, 1.0])
    with pytest.raises(NumericError, match="'p'"):
        optimizer_step(state, {"p": p})
    assert np.all(np.isfinite(state.square_avg["p"]))
    after = (p.data, state.square_avg["p"], state.momentum_buf["p"])
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_overflowing_step_raises_numeric_error():
    # the suite turns RuntimeWarnings into errors, so numpy's overflow
    # warning would be raised here in place of the NumericError
    p = Parameter(np.array([1.0, -2.0]))
    state = RmsPropState(OptimizerConfig(lr=1e308))
    p.grad = np.array([1.0, -1.0])
    with pytest.raises(NumericError, match="'p' became non-finite"):
        optimizer_step(state, {"p": p})


def test_accumulators_stay_nonnegative():
    p = Parameter(np.array([0.5, -0.5]))
    state = RmsPropState(OptimizerConfig())
    rng = np.random.default_rng(0)
    for _ in range(50):
        p.grad = rng.normal(size=2)
        optimizer_step(state, {"p": p})
    assert np.all(state.square_avg["p"] >= 0)


def reference_step(cfg, w, acc, buf, g):
    """One update written as the out-of-place expressions of the documented
    rule; returns the new (w, acc, buf)."""
    acc = cfg.rho * acc + (1.0 - cfg.rho) * g * g
    eff = g / (np.sqrt(acc) + cfg.eps)
    buf = cfg.momentum * buf + eff
    return w - cfg.lr * buf - cfg.lr * cfg.weight_decay * w, acc, buf


# "pending": a's gradient is the rank-1 product u v^T of a backward pass,
# its one row stacked in a and not yet multiplied when the step reads .grad
@pytest.mark.parametrize("shape,pending", [((7,), False), ((3, 5), False),
                                           ((2, 3, 4), False), ((3, 5), True)],
                         ids=["shape0", "shape1", "shape2", "pending"])
def test_in_place_update_equals_out_of_place_bitwise(shape, pending):
    cfg = OptimizerConfig(lr=3e-2, momentum=0.8, rho=0.95, eps=1e-6,
                          weight_decay=1e-2)
    rng = np.random.default_rng(1)
    params = {"a": Parameter(rng.normal(size=shape)),
              "b": Parameter(rng.normal(size=(4,)))}
    state = RmsPropState(cfg)
    ref = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
           for n, p in params.items()}
    for _ in range(25):
        # gradients spanning many magnitudes, with exact zeros
        grads = {n: rng.normal(size=p.data.shape)
                 * 10.0 ** rng.integers(-6, 4, size=p.data.shape)
                 * (rng.random(p.data.shape) > 0.2)
                 for n, p in params.items()}
        for n, p in params.items():
            p.grad = grads[n]
        if pending:
            u, v = (rng.normal(size=size)
                    * 10.0 ** rng.integers(-3, 2, size=size)
                    * (rng.random(size) > 0.2) for size in shape)
            grads["a"] = np.outer(u, v)
            a = params["a"]
            a.zero_grad()
            # the gradient of a in u . a . v is u v^T, a product with
            # k = 1: one row, fewer than min(3, 5), so it stays stacked
            T.einsum("j,j->", T.einsum("i,ij->j", Tensor(u), a),
                     Tensor(v)).backward()
            assert a._stacked == 1
        optimizer_step(state, params)
        ref = {n: reference_step(cfg, *ref[n], grads[n]) for n in params}
        for n, p in params.items():
            w, acc, buf = ref[n]
            assert np.array_equal(p.data, w)
            assert np.array_equal(state.square_avg[n], acc)
            assert np.array_equal(state.momentum_buf[n], buf)


def test_step_leaves_callers_gradients_unmodified():
    rng = np.random.default_rng(2)
    p = Parameter(rng.normal(size=(3, 4)))
    state = RmsPropState(OptimizerConfig())
    for _ in range(3):
        g = rng.normal(size=(3, 4))
        before = g.copy()
        p.grad = g
        optimizer_step(state, {"p": p})
        assert np.array_equal(g, before)
