import numpy as np
import pytest

from hrt import NumericError, Parameter, SeededRng, Tensor, grad_check
from hrt import tensor as T


def square(t):
    return T.einsum(",->", t, t)


def test_quadratic():
    theta = Parameter(3.0)
    report = grad_check(lambda: square(theta), {"theta": theta}, h=1e-5)
    assert report.passed
    assert report.max_rel_error <= 1e-9
    assert theta.grad == pytest.approx(6.0)


def test_constant_function():
    theta = Parameter([1.0, -2.0])
    ones = Tensor(np.ones(2))
    report = grad_check(
        lambda: T.weighted_sum((T.einsum("i,i->", theta, ones),), (0.0,)),
        {"theta": theta})
    assert report.passed
    assert report.max_rel_error == 0.0


def test_multi_group_report():
    a = Parameter(np.array([1.0, 2.0]))
    b = Parameter(0.5)
    report = grad_check(lambda: T.einsum(",->", T.einsum("i,i->", a, a), b),
                        {"a": a, "b": b})
    assert set(report.per_group) == {"a", "b"}
    assert report.passed
    assert "PASS" in report.summary()


def test_nonfinite_probe_errors():
    # finite at theta = 1, and past the largest float once a probe steps up
    theta = Parameter(1.0)

    def f():
        return T.weighted_sum((theta,), (np.finfo(np.float64).max,))

    with pytest.raises(NumericError):
        grad_check(f, {"theta": theta})


def test_probe_restored_when_the_objective_raises():
    # the probe past the largest float raises, and the entry is put back
    theta = Parameter([1.0])

    def f():
        return T.weighted_sum((theta,), (np.finfo(np.float64).max,))

    with pytest.raises(NumericError):
        grad_check(f, {"theta": theta})
    assert theta.data[0] == 1.0


def test_size_one_output_of_any_shape():
    # backward takes a [1, 1] output, and so do the probes' .item()
    rng = SeededRng(15)
    a, b = Parameter(rng.normal((1, 3))), Tensor(rng.normal((3, 1)))
    report = grad_check(lambda: T.matmul(a, b), {"a": a})
    assert report.passed, report.summary()
    assert np.array_equal(a.grad, b.data.T)


def test_wrong_gradient_detected():
    # exercise the checker itself: a deliberately wrong backward must fail
    theta = Parameter(2.0)

    def f():
        return square(theta)

    report = grad_check(f, {"theta": theta}, tol=1e-4)
    assert report.passed
    # now corrupt the analytic side by checking against a different function
    theta2 = Parameter(2.0)
    calls = {"n": 0}

    def inconsistent():
        calls["n"] += 1
        return (square(theta2) if calls["n"] == 1
                else T.weighted_sum((theta2,), (3.0,)))

    report = grad_check(inconsistent, {"theta": theta2}, tol=1e-4)
    assert not report.passed


def test_every_gradient_is_read_before_a_parameter_is_perturbed(monkeypatch):
    # b's gradient, a^T . g, is stacked as a's 2 rows, fewer than b's 3, so
    # they are not multiplied until .grad is read.  They are copies, but
    # the read must still come before a's first probe writes into a
    rng = SeededRng(14)
    a_data, b_data = rng.normal((2, 3)), rng.normal((3, 5))
    g = Tensor(rng.normal((2, 5)))
    a, b = Parameter(a_data.copy()), Parameter(b_data.copy())
    multiply = Parameter._multiply_stacked
    unperturbed = []

    def recording(self):
        if self is b:
            unperturbed.append(np.array_equal(a.data, a_data))
        multiply(self)

    def f():
        return T.einsum("ij,ij->", T.matmul(a, b), g)

    monkeypatch.setattr(Parameter, "_multiply_stacked", recording)
    assert grad_check(f, {"a": a, "b": b}).passed
    assert unperturbed == [True]
    monkeypatch.undo()
    want = Parameter(b_data.copy())
    T.einsum("ij,ij->", T.matmul(Tensor(a_data), want), g).backward()
    assert np.array_equal(b.grad, want.grad)
