import inspect
import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrt import (DimensionError, HrtModel, LossConfig, ModelConfig,
                 NumericError, OptimizerConfig, SeededRng, SyntheticSpec,
                 Tensor, attribute_regression_loss, generate_synthetic,
                 grad_check, train)
from hrt import tensor as T
from hrt.config import dataset_dims, load_config, loss_config_for
from hrt.gradcheck import tiny_problem
from hrt.train import total_loss

from helpers import gradient_helper
from oracles import naive_matmul


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_analytic(self):
        out = T.matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [5.0]]))
        assert np.array_equal(out.data, [[0.0]])

    def test_matches_naive_triple_loop_exactly(self):
        # the product is BLAS's, bit for bit; BLAS may sum in another
        # order than the naive loop, which stays the reference to rounding
        rng = SeededRng(7)
        a, b = rng.normal((3, 4)), rng.normal((4, 2))
        out = T.matmul(Tensor(a), Tensor(b)).data
        assert np.array_equal(out, a @ b)
        np.testing.assert_allclose(out, naive_matmul(a, b), rtol=1e-12,
                                   atol=0)

    @pytest.mark.parametrize("r,f,n", [(9, 64, 2048), (36, 128, 2048)],
                             ids=["default", "train_wide_grid"])
    def test_equals_einsum_bitwise_at_pose_shapes(self, r, f, n):
        # the primary-capsule pose projection [R, D_feat] x [D_feat, 2048]:
        # matmul and its einsum spelling are one BLAS product, forward and
        # backward, bit for bit.  b's gradient at train_wide_grid's shape is
        # large enough to run on the helper thread, so the gradients are
        # read from the leaves, and ``ij,ij->`` against g hands out the
        # gradient g bit for bit
        rng = SeededRng(9)
        a_data, b_data = rng.normal((r, f)), rng.normal((f, n))
        g = rng.normal((r, n))
        blas = (a_data @ b_data, g @ b_data.T, a_data.T @ g)
        for op in (T.matmul, lambda a, b: T.einsum("ik,kj->ij", a, b)):
            a = Tensor(a_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            out = op(a, b)
            T.einsum("ij,ij->", out, Tensor(g)).backward()
            for got, want in zip((out.data, a.grad, b.grad), blas):
                assert np.array_equal(got, want)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_associativity(self):
        rng = SeededRng(1)
        a, b, c = (Tensor(rng.normal((4, 5))), Tensor(rng.normal((5, 3))),
                   Tensor(rng.normal((3, 6))))
        left = T.matmul(T.matmul(a, b), c).data
        right = T.matmul(a, T.matmul(b, c)).data
        assert np.allclose(left, right, rtol=1e-9, atol=1e-9)


# the contractions of one default training step (forward and backward):
# each that is one matrix product runs on BLAS, each other on the
# fixed-order einsum
BLAS_CONTRACTIONS = {
    "rf,fnh->rnh", "rnh,rf->fnh", "ik,kj->ij", "ij,ik->kj",
    "ade,re->rad", "rad,re->ade", "rad,ade->re", "rf,ra->fa", "fa,rf->ra",
    "ta,tf->af", "af,ta->tf", "ft,fa->ta", "ta,fa->ft", "ta,ft->fa",
    "ca,a->c", "c,a->ca", "c,ca->a"}
EINSUM_CONTRACTIONS = {
    "ad,rad->ra", "ra,rad->ad", "ra,ad->rad", "ad,ra->rad", "af,fa->a",
    "a,fa->af", "a,af->fa", "a,ca->ca", "ca,ca->a", "ta,ta->a", "a,ta->ta"}


def blas_reference(subscripts, x, y):
    """``@`` of x and y as matrices: the operand whose free letters lead the
    output transposed to [free, contracted] axes, the other to [contracted,
    free], with the contracted letters in the first operand's order."""
    inputs, out = subscripts.split("->")
    xs, ys = inputs.split(",")
    n = sum(c in out for c in xs)
    if set(out[:n]) != set(xs) & set(out):
        (xs, x), (ys, y), n = (ys, y), (xs, x), len(out) - n
    summed = "".join(c for c in xs if c not in out)
    x = x.transpose([xs.index(c) for c in out[:n] + summed])
    y = y.transpose([ys.index(c) for c in summed + out[n:]])
    k = math.prod(x.shape[n:])
    return (x.reshape(-1, k) @ y.reshape(k, -1)).reshape(
        x.shape[:n] + y.shape[len(summed):])


@pytest.mark.parametrize("synthetic,model_settings", [
    ({}, {}),
    ({"r_patches": 36, "d_feat": 128}, {"k_em": 1, "k_td": 3})],
    ids=["default", "train_wide_grid"])
def test_each_contraction_of_a_step_is_blas_or_the_fixed_order_einsum(
        monkeypatch, synthetic, model_settings):
    dataset = generate_synthetic(replace(SyntheticSpec(), **synthetic), 0)
    model = HrtModel.build(
        ModelConfig(**dataset_dims(dataset), **model_settings),
        dataset.semantics.attr_vectors, dataset.semantics.class_attr)
    calls, threads = [], []
    product = T._product

    def recording(recipe, x, y, out=None):
        calls.append((recipe, x, y, product(recipe, x, y, out)))
        threads.append((recipe[0], threading.current_thread().name))
        return calls[-1][-1]

    # every product of a contraction, forward or backward, runs here, on
    # this thread or the helper
    monkeypatch.setattr(T, "_product", recording)
    i = dataset.splits["train"][0]
    total, _ = total_loss(model, dataset.features[i], int(dataset.labels[i]),
                          loss_config_for(load_config(), dataset))
    total.backward()
    for p in model.params.values():
        p.grad    # waits for the products still running on the helper
    # only enc.proj's gradient is ever large enough for it, and only at the
    # train_wide_grid shape: the default shape stays on the calling thread
    assert {s for s, thread in threads if thread != "MainThread"} == (
        {"rnh,rf->fnh"} if synthetic and T._helper() else set())
    planned = {s for (s, blas), *_ in calls if blas is not None}
    assert planned == BLAS_CONTRACTIONS
    assert {s for (s, _), *_ in calls} - planned == EINSUM_CONTRACTIONS
    for (subscripts, _), x, y, out in calls:
        fixed_order = np.einsum(subscripts, x, y, optimize=False)
        if subscripts in planned:
            assert np.array_equal(out, blas_reference(subscripts, x, y))
            assert (np.abs(out - fixed_order).max()
                    <= 1e-12 * np.abs(fixed_order).max())
        else:
            assert np.array_equal(out, fixed_order)


@pytest.mark.parametrize("subscripts", [
    "ij,jk->ijk", "ij,j->j", "ii,ij->j", "ijk,jl->ilk"],
    ids=["batch", "summed-out-of-one", "repeated", "interleaved-output"])
def test_contractions_that_are_no_matrix_product_stay_on_einsum(subscripts):
    a_sub, b_sub = subscripts.split("->")[0].split(",")
    (_, blas), *_ = T._plan(subscripts, (2,) * len(a_sub), (2,) * len(b_sub),
                            "einsum")
    assert blas is None


class TestGradientHelper:
    """A large parameter gradient on BLAS runs on the helper thread, and
    reading ``.grad`` gives the bytes the calling thread would have made."""

    @staticmethod
    def pose_backward(steps):
        """A [128, 2048] leaf after ``steps`` backward passes of enc.proj's
        gradient at the train_wide_grid shape: the first gradient is
        adopted, the second added."""
        rng = SeededRng(12)
        a, g = Tensor(rng.normal((36, 128))), Tensor(rng.normal((36, 2048)))
        b = Tensor(rng.normal((128, 2048)), requires_grad=True)
        for _ in range(steps):
            T.einsum("ij,ij->", T.matmul(a, b), g).backward()
        return b

    @pytest.mark.parametrize("steps", [1, 2], ids=["adopted", "added"])
    def test_grad_read_after_backward_equals_the_synchronous_array(
            self, monkeypatch, steps):
        add = T._add_product

        def slow(*args):
            time.sleep(0.05)    # still running when .grad is read
            add(*args)

        monkeypatch.setattr(T, "_add_product", slow)
        grads = []
        for on in (True, False):
            with gradient_helper(on):
                b = self.pose_backward(steps)
                # the task is left pending until .grad is read
                assert (b._pending is not None) == on
                # copied before the block's end waits for the helper
                grads.append(b.grad.copy())
        assert np.array_equal(*grads)

    @pytest.mark.parametrize("steps", [1, 2], ids=["adopted", "added"])
    def test_helper_exception_is_raised_by_every_grad_read(self, monkeypatch,
                                                           steps):
        product = T._product

        def failing(recipe, x, y, out=None):
            # only the helper writes into an array; the first task of
            # "added" succeeds
            if out is not None and failing.tasks == steps - 1:
                raise MemoryError("no room for the gradient")
            failing.tasks += out is not None
            return product(recipe, x, y, out)

        failing.tasks = 0
        monkeypatch.setattr(T, "_product", failing)
        with gradient_helper(True):
            b = self.pose_backward(steps)      # backward returns
            # a second read raises too: it would give an array the task left
            # unwritten or missing a sample
            for _ in range(2):
                with pytest.raises(MemoryError, match="no room"):
                    b.grad
            b.zero_grad()    # drops the failed task
            assert b.grad is None

    def test_added_products_reuse_one_spare_array(self, monkeypatch):
        outs = []
        add = T._add_product

        def recording(product, out, grad):
            outs.append(out)
            add(product, out, grad)

        monkeypatch.setattr(T, "_add_product", recording)
        with gradient_helper(True):
            b = self.pose_backward(3)
            # the first product is adopted, the next two share one array
            assert outs[0] is b.grad
            assert outs[1] is outs[2] is b._spare

    def test_a_parameter_used_twice_sums_on_the_calling_thread(self):
        rng = SeededRng(13)
        x, w_data = Tensor(rng.normal((6, 4))), rng.normal((4, 3))
        grads = []
        for on in (True, False):
            w = Tensor(w_data, requires_grad=True)
            with gradient_helper(on):
                T.einsum("ij,ij->", T.matmul(x, w), T.matmul(x, w)).backward()
                assert w._pending is None
                grads.append(w.grad)
        assert np.array_equal(*grads)

    def test_no_parameter_has_two_products_in_flight(self, monkeypatch):
        # each task sleeps, so that a second product of one parameter
        # would be submitted before the first ends
        dataset, model = tiny_problem(5)
        tasks = {}      # a parameter's gradient array -> its tasks
        most = []       # the tasks in flight at each submit
        with gradient_helper(True):
            pool = T._helper()
            submit = pool.submit

            def slow(fn, *args):
                time.sleep(0.002)
                fn(*args)

            def checking_submit(fn, product, out, grad):
                mine = tasks.setdefault(id(out if grad is None else grad), [])
                assert all(task.done() for task in mine)
                most.append(sum(not t.done() for ts in tasks.values()
                                for t in ts))
                mine.append(submit(slow, fn, product, out, grad))
                return mine[-1]

            monkeypatch.setattr(pool, "submit", checking_submit)
            train(dataset, model, LossConfig(), OptimizerConfig(), epochs=1,
                  batch_size=4)
        assert len(most) == 5 * dataset.splits["train"].size
        assert max(most) >= 2    # other parameters' products were in flight


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_analytic(self):
        out = T.softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-14)

    def test_large_inputs_match_bigfloat_oracle(self):
        import mpmath
        mpmath.mp.dps = 60
        x = [1000.0, 1000.0, 999.0]
        es = [mpmath.exp(v) for v in x]
        total = sum(es)
        expected = np.array([float(e / total) for e in es])
        out = T.softmax(Tensor(x), axis=0).data
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.allclose(out, expected, atol=1e-14)

    def test_empty_axis_errors(self):
        with pytest.raises(DimensionError):
            T.softmax(Tensor(np.zeros((3, 0))), axis=1)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_simplex_and_shift_invariance(self, xs, c):
        out = T.softmax(Tensor(xs), axis=0).data
        assert out.min() >= 0.0
        assert abs(out.sum() - 1.0) <= 1e-12
        shifted = T.softmax(Tensor([v + c for v in xs]), axis=0).data
        assert np.allclose(out, shifted, atol=1e-12)


class TestSigmoid:
    def test_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_saturation_no_overflow(self):
        assert T.sigmoid(Tensor(40.0)).item() == pytest.approx(1.0, abs=1e-12)
        assert T.sigmoid(Tensor(-800.0)).item() >= 0.0

    def test_high_precision_value(self):
        import mpmath
        mpmath.mp.dps = 40
        expected = float(1 / (1 + mpmath.exp(2)))
        assert T.sigmoid(Tensor(-2.0)).item() == pytest.approx(expected, abs=1e-15)

    def test_monotone(self):
        xs = np.linspace(-10, 10, 101)
        out = T.sigmoid(Tensor(xs)).data
        assert np.all(np.diff(out) > 0)
        assert out.min() > 0 and out.max() < 1


class TestLayerNorm:
    def test_zero_variance(self):
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0]), eps=1e-5)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_analytic_two_point(self):
        out = T.layer_norm(Tensor([1.0, 3.0]), eps=1e-14)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_recomputation_oracle(self):
        rng = SeededRng(3)
        x = rng.normal((8,), scale=2.0)
        out = T.layer_norm(Tensor(x), eps=1e-5).data
        assert abs(out.mean()) <= 1e-10
        assert out.var() == pytest.approx(1.0, abs=1e-4)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=10),
           st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, xs, c):
        a = T.layer_norm(Tensor(xs), eps=1e-5).data
        b = T.layer_norm(Tensor([v + c for v in xs]), eps=1e-5).data
        assert np.allclose(a, b, atol=1e-10)


class TestFiniteness:
    def test_nan_rejected_at_construction(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])

    def test_overflowing_weighted_sum_rejected(self):
        # the suite turns RuntimeWarnings into errors, so numpy's overflow
        # warning would be raised here in place of the NumericError
        terms = (Tensor(1.0), Tensor(10.0))
        with pytest.raises(NumericError, match="weighted_sum"):
            T.weighted_sum(terms, (1.0, 1e308))

    def test_overflowing_matmul_rejected(self):
        # BLAS overflows to inf with no NumericError of its own
        big = Tensor(np.full((2, 3), 1e200))
        with pytest.raises(NumericError, match="matmul"):
            T.matmul(big, Tensor(np.full((3, 2), 1e200)))


class TestRng:
    def test_reproducible_stream(self):
        a = SeededRng(42).normal((10_000,))
        b = SeededRng(42).normal((10_000,))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).normal((100,)),
                                  SeededRng(2).normal((100,)))


class TestBackwardBasics:
    def test_mul_chain(self):
        x = Tensor(3.0, requires_grad=True)
        y = T.weighted_sum((T.einsum(",->", x, x), x), (2.0, 1.0))
        y.backward()
        assert x.grad == pytest.approx(13.0)

    def test_einsum_gradient(self):
        rng = SeededRng(5)
        a = Tensor(rng.normal((3, 4)), requires_grad=True)
        b = Tensor(rng.normal((4, 2)), requires_grad=True)
        out = T.einsum("ij,ij->", T.einsum("ik,kj->ij", a, b),
                       Tensor(np.ones((3, 2))))
        out.backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)))

    @pytest.mark.parametrize("a_grad", [True, False], ids=["a", "b"])
    def test_matmul_backward_skips_constant_operand(self, a_grad):
        rng = SeededRng(6)
        a = Tensor(rng.normal((3, 4)), requires_grad=a_grad)
        b = Tensor(rng.normal((4, 2)), requires_grad=not a_grad)
        g = rng.normal((3, 2))
        ga, gb = T.matmul(a, b)._backward(g)
        if a_grad:
            assert gb is None
            assert np.array_equal(ga, g @ b.data.T)
        else:
            assert ga is None
            assert np.array_equal(gb, a.data.T @ g)

    @pytest.mark.parametrize("a_grad", [True, False], ids=["a", "b"])
    def test_einsum_backward_skips_constant_operand(self, a_grad):
        rng = SeededRng(7)
        a = Tensor(rng.normal((3, 5)), requires_grad=a_grad)
        b = Tensor(rng.normal((3, 5, 4)), requires_grad=not a_grad)
        g = rng.normal((3, 4))
        ga, gb = T.einsum("rn,rnh->rh", a, b)._backward(g)
        if a_grad:
            assert gb is None
            assert np.array_equal(
                ga, np.einsum("rh,rnh->rn", g, b.data, optimize=False))
        else:
            assert ga is None
            assert np.array_equal(
                gb, np.einsum("rh,rn->rnh", g, a.data, optimize=False))

    def test_second_backward_adds_bitwise(self):
        rng = SeededRng(8)
        w = Tensor(rng.normal((4, 3)), requires_grad=True)
        v = Tensor(rng.normal((3,)), requires_grad=True)
        xs = [Tensor(rng.normal((2, 4))) for _ in range(2)]

        def loss(x):
            h = T.einsum("ij,j->ij", T.sigmoid(T.matmul(x, w)), v)
            return T.weighted_sum((T.einsum("ij,ij->", h, h),
                                   T.einsum("ij,ij->", w, w)), (1.0, 1.0))

        single = []
        for x in xs:
            w.zero_grad()
            v.zero_grad()
            loss(x).backward()
            single.append((w.grad, v.grad))
        w.zero_grad()
        v.zero_grad()
        for x in xs:
            loss(x).backward()
        assert np.array_equal(w.grad, single[0][0] + single[1][0])
        assert np.array_equal(v.grad, single[0][1] + single[1][1])

    def test_leaf_grad_owns_its_data_and_a_second_backward_adds(self):
        # a leaf adopts the first gradient it is handed, and training scales
        # .grad in place, so that array must be the leaf's alone
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        c = Tensor(np.linspace(1.0, 2.0, 3))
        loss = T.einsum("ij,ij->", T.einsum("ij,j->ij", a, c),
                        Tensor(np.ones((2, 3))))
        loss.backward()
        assert a.grad.flags.owndata
        assert not np.shares_memory(a.grad, a.data)
        assert not np.shares_memory(a.grad, c.data)
        once = a.grad.copy()
        loss.backward()
        assert np.array_equal(a.grad, 2 * once)


# every public op of hrt.tensor, as the benchmark's tracer enumerates them
PUBLIC_OPS = sorted(
    name for name, fn in vars(T).items()
    if inspect.isfunction(fn) and fn.__module__ == "hrt.tensor"
    and not name.startswith("_") and name != "no_grad")

# each op built on operands that all need a gradient; ``x(*shape)`` makes one
OWNERSHIP_CASES = {
    "sigmoid": lambda x: T.sigmoid(x(3, 4)),
    "matmul": lambda x: T.matmul(x(3, 4), x(4, 2)),
    "einsum": lambda x: T.einsum("rf,fnh->rnh", x(3, 4), x(4, 2, 5)),
    "softmax": lambda x: T.softmax(x(3, 4), axis=0),
    "log_softmax_nll": lambda x: T.log_softmax_nll(x(5), 2,
                                                   offset=np.ones(5)),
    "weighted_sum": lambda x: T.weighted_sum((x(3), x(3)), (1.0, 0.5)),
    "weighted_mean": lambda x: T.weighted_mean(x(3, 4, 5), x(3, 4)),
    "squared_distance": lambda x: T.squared_distance(x(5), np.ones(5)),
    "layer_norm": lambda x: T.layer_norm(x(3, 4), eps=1e-5),
}


class TestBackwardOwnership:
    """The rules a leaf's adoption of its gradient relies on: an op's
    backward returns arrays it allocated, shared with nothing else, each
    shaped like its operand, so that backward adds it as it is."""

    @pytest.mark.parametrize("name", PUBLIC_OPS)
    def test_backward_returns_arrays_it_owns(self, name):
        assert name in OWNERSHIP_CASES, f"no ownership case for op {name}"
        rng = SeededRng(21)
        out = OWNERSHIP_CASES[name](
            lambda *shape: Tensor(rng.uniform(shape, 0.5, 1.5),
                                  requires_grad=True))
        g = np.asarray(rng.normal(out.data.shape))
        held = [g, out.data, *(p.data for p in out._parents)]
        first = list(out._backward(g))
        second = list(out._backward(g))
        assert len(first) == len(out._parents)
        for arr, parent in zip(first, out._parents):
            assert arr.shape == parent.data.shape, \
                f"{name}'s gradient {arr.shape} is not shaped like its " \
                f"operand {parent.data.shape}"
        for returned, before in ((first, []), (second, first)):
            for i, arr in enumerate(returned):
                others = held + returned[:i] + returned[i + 1:] + before
                assert not any(np.shares_memory(arr, o) for o in others), \
                    f"{name}'s gradient {i} shares memory"


# ops whose one operand's shape meets no other shape: each argument after
# the tensor is a scalar
ONE_OPERAND_OPS = ("layer_norm", "sigmoid", "softmax")

# for every other op, inputs numpy would accept silently: an extent of 1
# that np.einsum or elementwise arithmetic broadcasts, or a label that
# indexes from the end; each is (expected error, case)
SHAPE_CASES = {
    "matmul": [(DimensionError, lambda x: T.matmul(x(2, 1), x(3, 4)))],
    "einsum": [(DimensionError,
                lambda x: T.einsum("ik,kj->ij", x(2, 1), x(3, 4)))],
    "weighted_mean": [(DimensionError,
                       lambda x: T.weighted_mean(x(2, 3, 4), x(2, 1)))],
    "weighted_sum": [
        (DimensionError, lambda x: T.weighted_sum((x(), x(3)), (1.0, 0.5))),
        # zip would drop the term without a weight
        (DimensionError, lambda x: T.weighted_sum((x(3), x(3)), (1.0,))),
    ],
    "squared_distance": [(DimensionError,
                          lambda x: T.squared_distance(x(1), np.ones(3)))],
    "log_softmax_nll": [
        (DimensionError,
         lambda x: T.log_softmax_nll(x(1), 0, offset=np.ones(3))),
        (IndexError, lambda x: T.log_softmax_nll(x(1), -1)),
    ],
}


class TestShapeChecks:
    """Each op checks the shapes its backward relies on: what numpy would
    broadcast gives gradients unlike their operands."""

    @pytest.mark.parametrize("name", PUBLIC_OPS)
    def test_op_refuses_what_numpy_broadcasts(self, name):
        if name in ONE_OPERAND_OPS:
            params = inspect.signature(getattr(T, name)).parameters
            assert all(p.annotation in ("int", "float")
                       for p in list(params.values())[1:])
            return
        assert name in SHAPE_CASES, f"no shape case for op {name}"
        for error, case in SHAPE_CASES[name]:
            with pytest.raises(error):
                case(lambda *shape: Tensor(np.ones(shape), requires_grad=True))


class TestWeightedMean:
    """EM's activation-weighted mean of the poses: one node, with the bytes
    of the einsum, sum and divide nodes it replaced."""

    @staticmethod
    def composition(x, w, g):
        """The forward and both gradients as the einsum, sum and divide
        nodes formed them: the divisor's gradient summed down to [R, 1],
        then broadcast back over N by the sum's backward and added to the
        einsum's."""
        num = np.einsum("rn,rnh->rh", w, x, optimize=False)
        den = w.sum(axis=1, keepdims=True)
        g_num = g / den
        g_den = (-g * num / (den ** 2)).sum(axis=1, keepdims=True)
        g_sum = np.empty(w.shape)
        g_sum[...] = g_den
        gx = np.einsum("rh,rn->rnh", g_num, w, optimize=False)
        gw = np.einsum("rh,rnh->rn", g_num, x, optimize=False) + g_sum
        return num / den, gx, gw

    @pytest.mark.parametrize("x_grad,w_grad", [(True, True), (True, False),
                                               (False, True)],
                             ids=["both", "x", "w"])
    def test_equals_the_composition_it_replaces(self, x_grad, w_grad):
        # at EM's default shape: 9 patches of 128 capsules with 16-d poses
        rng = SeededRng(31)
        x_data = rng.normal((9, 128, 16))
        w_data = rng.uniform((9, 128), 0.01, 1.0)
        g = rng.normal((9, 16))
        x = Tensor(x_data, requires_grad=x_grad)
        w = Tensor(w_data, requires_grad=w_grad)
        out = T.weighted_mean(x, w)
        gx, gw = out._backward(g)
        want, want_gx, want_gw = self.composition(x_data, w_data, g)
        assert np.array_equal(out.data, want)
        for got, wanted, needed in ((gx, want_gx, x_grad),
                                    (gw, want_gw, w_grad)):
            assert np.array_equal(got, wanted) if needed else got is None

    def test_gradient(self):
        rng = SeededRng(32)
        x = Tensor(rng.normal((3, 4, 5)), requires_grad=True)
        w = Tensor(rng.uniform((3, 4), 0.5, 1.5), requires_grad=True)
        c = Tensor(rng.normal((3, 5)))
        report = grad_check(
            lambda: T.einsum("rh,rh->", T.weighted_mean(x, w), c),
            {"x": x, "w": w})
        assert report.passed, report.summary()


class TestLossOps:
    """grad_check of the two loss ops with respect to their own inputs."""

    @pytest.mark.parametrize("scale", [1.0, 1e3], ids=["random", "spread"])
    @pytest.mark.parametrize("label", [0, 5], ids=["first", "last"])
    def test_log_softmax_nll_gradient(self, scale, label):
        # spread by 1e3, softmax saturates to 0 and 1
        s = Tensor(SeededRng(11).normal((6,), scale=scale), requires_grad=True)
        report = grad_check(lambda: T.log_softmax_nll(s, label), {"s": s})
        assert report.passed, report.summary()

    def test_log_softmax_nll_saturates(self):
        s = Tensor(SeededRng(11).normal((6,), scale=1e3), requires_grad=True)
        label = int(np.argmin(s.data))
        T.log_softmax_nll(s, label).backward()
        expected = np.zeros(6)
        expected[np.argmax(s.data)] = 1.0
        expected[label] = -1.0
        assert np.allclose(s.grad, expected, rtol=0.0, atol=1e-12)

    def test_squared_distance_gradient(self):
        # the target is a constant array: the node's one parent is ``a``
        rng = SeededRng(12)
        a = Tensor(rng.normal((6,)), requires_grad=True)
        target = rng.normal((6,))
        assert attribute_regression_loss(a, target)._parents == (a,)
        report = grad_check(lambda: attribute_regression_loss(a, target),
                            {"a": a})
        assert report.passed, report.summary()
