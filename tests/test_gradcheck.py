import numpy as np
import pytest

from hrt import NumericError, Tensor, grad_check
from hrt import tensor as T


def square(t):
    return T.einsum(",->", t, t)


def test_quadratic():
    theta = Tensor(3.0, requires_grad=True)
    report = grad_check(lambda: square(theta), {"theta": theta}, h=1e-5)
    assert report.passed
    assert report.max_rel_error <= 1e-9
    assert theta.grad == pytest.approx(6.0)


def test_constant_function():
    theta = Tensor([1.0, -2.0], requires_grad=True)
    ones = Tensor(np.ones(2))
    report = grad_check(
        lambda: T.weighted_sum((T.einsum("i,i->", theta, ones),), (0.0,)),
        {"theta": theta})
    assert report.passed
    assert report.max_rel_error == 0.0


def test_multi_group_report():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(0.5, requires_grad=True)
    report = grad_check(lambda: T.einsum(",->", T.einsum("i,i->", a, a), b),
                        {"a": a, "b": b})
    assert set(report.per_group) == {"a", "b"}
    assert report.passed
    assert "PASS" in report.summary()


def test_nonfinite_probe_errors():
    # finite at theta = 1, and past the largest float once a probe steps up
    theta = Tensor(1.0, requires_grad=True)

    def f():
        return T.weighted_sum((theta,), (np.finfo(np.float64).max,))

    with pytest.raises(NumericError):
        grad_check(f, {"theta": theta})


def test_probe_restored_when_the_objective_raises():
    # the probe past the largest float raises, and the entry is put back
    theta = Tensor([1.0], requires_grad=True)

    def f():
        return T.weighted_sum((theta,), (np.finfo(np.float64).max,))

    with pytest.raises(NumericError):
        grad_check(f, {"theta": theta})
    assert theta.data[0] == 1.0


def test_wrong_gradient_detected():
    # exercise the checker itself: a deliberately wrong backward must fail
    theta = Tensor(2.0, requires_grad=True)

    def f():
        return square(theta)

    report = grad_check(f, {"theta": theta}, tol=1e-4)
    assert report.passed
    # now corrupt the analytic side by checking against a different function
    theta2 = Tensor(2.0, requires_grad=True)
    calls = {"n": 0}

    def inconsistent():
        calls["n"] += 1
        return (square(theta2) if calls["n"] == 1
                else T.weighted_sum((theta2,), (3.0,)))

    report = grad_check(inconsistent, {"theta": theta2}, tol=1e-4)
    assert not report.passed
