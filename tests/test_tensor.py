import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrt import (DimensionError, HrtModel, ModelConfig, NumericError,
                 Parameter, SeededRng, SyntheticSpec, Tensor,
                 attribute_regression_loss, generate_synthetic, grad_check)
from hrt import tensor as T
from hrt.config import dataset_dims, load_config, loss_config_for
from hrt.gradcheck import TINY_MODEL, TINY_SPEC, tiny_problem
from hrt.train import total_loss

from helpers import WIDE_GRID, peak_traced_bytes
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
        # backward, bit for bit.  Both gradients are stacked into the
        # leaves, so they are read from .grad, and ``ij,ij->`` against g
        # hands out the gradient g bit for bit
        rng = SeededRng(9)
        a_data, b_data = rng.normal((r, f)), rng.normal((f, n))
        g = rng.normal((r, n))
        blas = (a_data @ b_data, g @ b_data.T, a_data.T @ g)
        for op in (T.matmul, lambda a, b: T.einsum("ik,kj->ij", a, b)):
            a = Parameter(a_data)
            b = Parameter(b_data)
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
    calls, stacked = [], []
    product, gradient = T._product, T._gradient

    def recording(recipe, x, y):
        calls.append((recipe, x, y, product(recipe, x, y)))
        return calls[-1][-1]

    def stacking(recipe, g, other, operand):
        out = gradient(recipe, g, other, operand)
        if out is None:
            stacked.append((recipe, g, other, operand))
        return out

    # every product of a contraction, forward or backward, runs here, but a
    # parameter's gradient on BLAS, which the closure stacks into the
    # parameter and returns None for
    monkeypatch.setattr(T, "_product", recording)
    monkeypatch.setattr(T, "_gradient", stacking)
    i = dataset.splits["train"][0]
    total, _ = total_loss(model, dataset.features[i], int(dataset.labels[i]),
                          loss_config_for(load_config(), dataset))
    total.backward()
    # each parameter is one contraction's operand, so its gradient is
    # stacked once and .grad multiplies that one sample's rows
    assert sorted(id(p) for *_, p in stacked) == sorted(
        id(p) for p in model.params.values())
    assert not any(s in (c[0][0] for c in calls) for (s, _), *_ in stacked)
    calls += [(recipe, g, other, p.grad) for recipe, g, other, p in stacked]
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


# enc.proj's contraction "rf,fnh->rnh" at three shapes (R, D_feat, N,
# d_cap): the gradient suite's tiny problem, the default and bench/run.py's
# train_wide_grid, the last two at the model's default N and d_cap
POSE_SHAPES = {
    "tiny": (TINY_SPEC.r_patches, TINY_SPEC.d_feat, TINY_MODEL["n_primary"],
             TINY_MODEL["d_cap"]),
    "default": (SyntheticSpec().r_patches, SyntheticSpec().d_feat, 128, 16),
    "wide_grid": (WIDE_GRID["r_patches"], WIDE_GRID["d_feat"], 128, 16),
}


def block_schedule(x_rows, y_rows):
    """A stacked gradient written out by hand: the products ``x.T @ y`` of
    ``x_rows`` [k, m] and ``y_rows`` [k, p], one k for all, in stacking
    order, ceil(min(m, p) / k) of them at a time as one product of their
    stacked rows, summed in order, the last block holding what is left."""
    k, m = x_rows[0].shape
    per = -(-min(m, y_rows[0].shape[1]) // k)
    grad = None
    for i in range(0, len(x_rows), per):
        block = (np.concatenate(x_rows[i:i + per]).T
                 @ np.concatenate(y_rows[i:i + per]))
        grad = block if grad is None else grad + block
    return grad


# the shapes a model stacks its gradients at: the gradient suite's tiny
# problem, the default and bench/run.py's train_wide_grid (R 36, D_feat
# 128, k_em 1, k_td 3)
MINIBATCH_SHAPES = ("tiny", "default", "wide_grid")


def record_stacks(model, monkeypatch):
    """Until ``monkeypatch`` is undone, record the rows each parameter of
    ``model`` stacks, as ``(x.T, y)`` pairs in stacking order, in the
    returned dict by parameter name."""
    stacked = {name: [] for name in model.params}
    names = {id(p): name for name, p in model.params.items()}
    stack = Parameter._stack

    def recording(self, x, y):
        stacked[names[id(self)]].append((x.T.copy(), y.copy()))
        stack(self, x, y)

    monkeypatch.setattr(Parameter, "_stack", recording)
    return stacked


def stacked_minibatch(shape, monkeypatch):
    """A model at ``shape`` after the backward passes of a 16-sample
    minibatch (the tiny problem has 5 training samples, taken in turn),
    and the rows its parameters stacked (``record_stacks``)."""
    if shape == "tiny":
        dataset, model = tiny_problem(0)
    else:
        wide = shape == "wide_grid"
        dataset = generate_synthetic(
            replace(SyntheticSpec(), **(WIDE_GRID if wide else {})), 0)
        model = HrtModel.build(
            ModelConfig(**dataset_dims(dataset),
                        **(dict(k_em=1, k_td=3) if wide else {})),
            dataset.semantics.attr_vectors, dataset.semantics.class_attr)
    stacked = record_stacks(model, monkeypatch)
    loss_config = loss_config_for(load_config(), dataset)
    train = dataset.splits["train"]
    for i in range(16):
        j = train[i % len(train)]
        total_loss(model, dataset.features[j], int(dataset.labels[j]),
                   loss_config)[0].backward()
    monkeypatch.undo()
    return model, stacked


def paper_backward(num_attributes, monkeypatch):
    """A model at the ROADMAP's paper shape (R 49, D_feat 2048, tau 300,
    n_primary 128, d_cap 16) with ``num_attributes`` attributes after one
    backward pass of its class scores, and the rows its parameters stacked
    (``record_stacks``)."""
    rng = SeededRng(16)
    a, c = num_attributes, 50
    model = HrtModel.build(
        ModelConfig(d_feat=2048, num_attributes=a, num_classes=c, tau=300,
                    k_em=1),
        rng.normal((a, 300)), rng.uniform((c, a)))
    stacked = record_stacks(model, monkeypatch)
    scores = model.forward(rng.normal((49, 2048))).scores
    T.einsum("c,c->", scores, Tensor(np.ones(c))).backward()
    monkeypatch.undo()
    return model, stacked


def assert_stack_bound(name, param, k):
    """The two row buffers of ``param``, whose products stack k rows each,
    hold at most two gradients' bytes plus one sample's rows."""
    m, p = param._x_rows.shape[1], param._y_rows.shape[1]
    stack = param._x_rows.nbytes + param._y_rows.nbytes
    assert stack <= 2 * param.data.nbytes + 8 * k * (m + p), \
        f"{name} stacks {stack} B for a {param.data.nbytes} B gradient"


class TestStackedGradient:
    """A parameter's gradient on BLAS is stacked as rows, multiplied once
    per block of whole samples and at the read of ``.grad``."""

    @staticmethod
    def pose_backward(shape, batch, uses=1):
        """enc.proj [D_feat, N, d_cap] after ``batch`` backward passes, each
        through ``uses`` pose projections of its own patch grid against an
        upstream gradient of its own; the grids and gradients in the order
        the passes stack them."""
        r, f, n, h = POSE_SHAPES[shape]
        rng = SeededRng(12)
        proj = Parameter(rng.normal((f, n, h)))
        xs, gs = [], []
        for _ in range(batch):
            terms = []
            for _ in range(uses):
                xs.append(rng.normal((r, f)))
                gs.append(rng.normal((r, n, h)))
                terms.append(T.einsum("rnh,rnh->", T.einsum(
                    "rf,fnh->rnh", Tensor(xs[-1]), proj), Tensor(gs[-1])))
            T.weighted_sum(terms, (1.0,) * uses).backward()
        return proj, xs, gs

    @pytest.mark.parametrize("batch", [16, 5], ids=["full", "partial"])
    @pytest.mark.parametrize("shape", sorted(POSE_SHAPES))
    @pytest.mark.parametrize("uses", [1, 2], ids=["once", "twice"])
    def test_grad_is_the_block_schedule(self, shape, batch, uses):
        # with the parameter used twice in one graph, backward stacks the
        # first operand's rows first
        proj, xs, gs = self.pose_backward(shape, batch, uses)
        r, f, n, h = POSE_SHAPES[shape]
        got = proj.grad
        recipe = T._plan("rf,fnh->rnh", (r, f), (f, n, h), "einsum")[2]
        per_sample = T._product(recipe, gs[0], xs[0])
        for x, g in zip(xs[1:], gs[1:]):
            per_sample = per_sample + T._product(recipe, g, x)
        assert (np.abs(got - per_sample).max()
                <= 1e-12 * np.abs(per_sample).max())
        want = block_schedule(xs, [g.reshape(r, -1) for g in gs])
        assert np.array_equal(got, want.reshape(f, n, h))

    @pytest.mark.parametrize("batch", [16, 5], ids=["full", "partial"])
    def test_an_array_gradient_is_added_after_the_stacked_rows(self, batch):
        # enc.act_proj's shape [D_feat, N] at the default R: the sigmoid's
        # gradient reaches the leaf as an array, after the matmul's rows
        # are stacked, so each sample's rows are multiplied before it
        rng = SeededRng(13)
        w = Parameter(rng.normal((64, 128)))
        want = None
        for _ in range(batch):
            x, g, u = (rng.normal((9, 64)), rng.normal((9, 128)),
                       rng.normal((64, 128)))
            T.weighted_sum((
                T.einsum("ij,ij->", T.matmul(Tensor(x), w), Tensor(g)),
                T.einsum("ij,ij->", T.sigmoid(w), Tensor(u))),
                (1.0, 1.0)).backward()
            s = T.sigmoid(Tensor(w.data)).data
            for term in (block_schedule([x], [g]), u * s * (1.0 - s)):
                want = term if want is None else want + term
        assert np.array_equal(w.grad, want)

    def test_setting_grad_drops_the_stacked_rows(self):
        proj, xs, gs = self.pose_backward("default", 3)
        proj.grad = None
        r, f, n, h = POSE_SHAPES["default"]
        g = gs[0]
        T.einsum("rnh,rnh->", T.einsum("rf,fnh->rnh", Tensor(xs[0]), proj),
                 Tensor(g)).backward()
        assert np.array_equal(proj.grad, block_schedule(
            xs[:1], [g.reshape(r, -1)]).reshape(f, n, h))

    def test_a_minibatch_stacks_about_one_gradient_of_rows(
            self, monkeypatch):
        # train_wide_grid: each parameter's buffers hold k * ceil(min(m, p)
        # / k) rows, whole samples up to the gradient's rank bound, and at
        # most two gradients' bytes plus one sample's rows.  enc.proj (m
        # 128, k 36) stacks 4 samples; enc.vote_transforms (m 192, k 36, p
        # 16) multiplies each sample's product at once
        model, stacked = stacked_minibatch("wide_grid", monkeypatch)
        rows = {}
        for name, param in model.params.items():
            x_rows, y_rows = stacked[name][0]
            (k, m), p = x_rows.shape, y_rows.shape[1]
            rows[name] = len(param._x_rows)
            assert rows[name] == len(param._y_rows) == k * -(-min(m, p) // k)
            assert_stack_bound(name, param, k)
        assert rows["enc.proj"] == 144
        assert rows["enc.vote_transforms"] == 36

    @pytest.mark.parametrize("shape", MINIBATCH_SHAPES + ("awa2", "cub"))
    def test_buffers_hold_at_most_two_gradients_and_one_sample(
            self, shape, monkeypatch):
        # at the model shapes after a minibatch; at the ROADMAP's AWA2-like
        # (A 85) and CUB-like (A 312) paper shapes after one backward pass,
        # which sizes the buffers
        if shape in MINIBATCH_SHAPES:
            model, stacked = stacked_minibatch(shape, monkeypatch)
        else:
            model, stacked = paper_backward(
                {"awa2": 85, "cub": 312}[shape], monkeypatch)
        for name, param in model.params.items():
            assert stacked[name], f"{name} stacked no rows"
            assert_stack_bound(name, param, len(stacked[name][0][0]))

    @pytest.mark.parametrize("shape", ["default", "wide_grid"])
    def test_a_minibatch_grad_is_the_block_schedule(self, shape,
                                                    monkeypatch):
        # every parameter's products share one k, so each .grad is its
        # block schedule; enc.proj and dec.w_beta have m <= p, and their
        # blocks are the ceil(m / k) samples they were before the rule
        # followed min(m, p)
        model, stacked = stacked_minibatch(shape, monkeypatch)
        for name, param in model.params.items():
            x_rows, y_rows = zip(*stacked[name])
            want = block_schedule(x_rows, y_rows).reshape(param.data.shape)
            assert np.array_equal(param.grad, want), name

    def test_rows_that_do_not_fit_are_multiplied_first(self):
        # W [6, 4] under matmul: m 6, p 4, so blocks of 4 rows.  3 rows
        # make a buffer of 6; 5 more do not fit, so the 3 are multiplied
        # and a buffer of 5 made, which the 5 fill past 4; then 1 and 2
        # rows fit it and are multiplied together at the read
        rng = SeededRng(17)
        w = Parameter(rng.normal((6, 4)))
        xs = [rng.normal((n, 6)) for n in (3, 5, 1, 2)]
        gs = [rng.normal((n, 4)) for n in (3, 5, 1, 2)]
        for x, g in zip(xs, gs):
            T.einsum("ij,ij->", T.matmul(Tensor(x), w), Tensor(g)).backward()
        assert len(w._x_rows) == 5 and w._stacked == 3
        want = (xs[0].T @ gs[0] + xs[1].T @ gs[1]
                + np.concatenate(xs[2:]).T @ np.concatenate(gs[2:]))
        assert np.array_equal(w.grad, want)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_writing_the_other_operand_after_backward_leaves_grad(
            self, layout):
        # in-place augmentation of the features while b's rows are stacked
        # and not yet multiplied: the rows are copies, whatever the strides
        rng = SeededRng(15)
        data, g = rng.normal((128, 256)), Tensor(rng.normal((36, 2048)))
        b_data = rng.normal((128, 2048))

        def features():
            x = data.copy()
            return {"C": x[:36, :128].copy(), "F": x[:, :36].copy().T,
                    "strided": x[:36, ::2]}[layout]

        def pose_backward():
            a, b = Tensor(features()), Parameter(b_data)
            T.einsum("ij,ij->", T.matmul(a, b), g).backward()
            return a, b

        want = pose_backward()[1].grad
        a, b = pose_backward()
        assert b._stacked == 36
        a.data += 1.0
        assert np.array_equal(b.grad, want)


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


class TestParameter:
    """The leaf that holds a gradient: its data as given, checked finite
    without a mask the size of the array."""

    def test_holds_a_float64_array_as_it_is(self):
        # the optimizer and load_checkpoint write into the array they pass
        x = SeededRng(16).normal((4, 3))
        assert Parameter(x).data is x

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_raises_and_builds_no_mask(self, bad):
        x = np.zeros(1 << 18)
        x[-1] = bad

        def build():
            with pytest.raises(NumericError, match="non-finite"):
                Parameter(x)

        # a boolean mask would be x.size bytes
        assert peak_traced_bytes(build) < x.size // 8


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
        x = Parameter(3.0)
        y = T.weighted_sum((T.einsum(",->", x, x), x), (2.0, 1.0))
        y.backward()
        assert x.grad == pytest.approx(13.0)

    def test_einsum_gradient(self):
        rng = SeededRng(5)
        a = Parameter(rng.normal((3, 4)))
        b = Parameter(rng.normal((4, 2)))
        out = T.einsum("ij,ij->", T.einsum("ik,kj->ij", a, b),
                       Tensor(np.ones((3, 2))))
        out.backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)))

    @pytest.mark.parametrize("a_grad", [True, False], ids=["a", "b"])
    def test_matmul_backward_skips_constant_operand(self, a_grad):
        # the parameter's gradient is stacked into it, and the closure
        # returns None for it as for the constant
        rng = SeededRng(6)
        a = (Parameter if a_grad else Tensor)(rng.normal((3, 4)))
        b = (Tensor if a_grad else Parameter)(rng.normal((4, 2)))
        g = rng.normal((3, 2))
        assert T.matmul(a, b)._backward(g) == (None, None)
        if a_grad:
            assert np.array_equal(a.grad, block_schedule([g.T], [b.data.T]))
        else:
            assert np.array_equal(b.grad, block_schedule([a.data], [g]))

    @pytest.mark.parametrize("a_grad", [True, False], ids=["a", "b"])
    def test_einsum_backward_skips_constant_operand(self, a_grad):
        rng = SeededRng(7)
        a = (Parameter if a_grad else Tensor)(rng.normal((3, 5)))
        b = (Tensor if a_grad else Parameter)(rng.normal((3, 5, 4)))
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

    def test_second_backward_adds_bitwise(self, monkeypatch):
        # v's gradient reaches it as an array and w's are stacked: the
        # matmul's [2, 4] x [4, 3] product, then w . w's two [1, 1] x
        # [1, 12] ones; as the products differ in m, each is multiplied
        # when the next is stacked, or at the read
        rng = SeededRng(8)
        w = Parameter(rng.normal((4, 3)))
        v = Parameter(rng.normal((3,)))
        xs = [Tensor(rng.normal((2, 4))) for _ in range(2)]
        stacked = []
        stack = Parameter._stack

        def recording(self, x, y):
            if self is w:
                stacked.append((x.T.copy(), y.copy()))
            stack(self, x, y)

        monkeypatch.setattr(Parameter, "_stack", recording)

        def loss(x):
            h = T.einsum("ij,j->ij", T.sigmoid(T.matmul(x, w)), v)
            return T.weighted_sum((T.einsum("ij,ij->", h, h),
                                   T.einsum("ij,ij->", w, w)), (1.0, 1.0))

        def products():
            want = None
            for x_rows, y_rows in stacked:
                block = block_schedule([x_rows], [y_rows])
                want = (block.reshape(4, 3) if want is None
                        else want + block.reshape(4, 3))
            return want

        single = []
        for x in xs:
            w.zero_grad()
            v.zero_grad()
            stacked.clear()
            loss(x).backward()
            single.append((w.grad, v.grad))
            assert len(stacked) == 3
            assert np.array_equal(w.grad, products())
        w.zero_grad()
        v.zero_grad()
        stacked.clear()
        for x in xs:
            loss(x).backward()
        assert np.array_equal(w.grad, products())
        assert (np.abs(w.grad - (single[0][0] + single[1][0])).max()
                <= 1e-12 * np.abs(w.grad).max())
        assert np.array_equal(v.grad, single[0][1] + single[1][1])

    def test_leaf_grad_owns_its_data_and_a_second_backward_adds(self):
        # a leaf adopts the first gradient it is handed, and training scales
        # .grad in place, so that array must be the leaf's alone
        a = Parameter(np.arange(6.0).reshape(2, 3))
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
    shaped like its operand, so that backward adds it as it is; what it
    stacks into a parameter goes into buffers the parameter owns."""

    @pytest.mark.parametrize("name", PUBLIC_OPS)
    def test_backward_returns_arrays_it_owns(self, name):
        assert name in OWNERSHIP_CASES, f"no ownership case for op {name}"
        rng = SeededRng(21)
        out = OWNERSHIP_CASES[name](
            lambda *shape: Parameter(rng.uniform(shape, 0.5, 1.5)))
        g = np.asarray(rng.normal(out.data.shape))
        held = [g, out.data, *(p.data for p in out._parents)]
        first = list(out._backward(g))
        second = list(out._backward(g))
        assert len(first) == len(out._parents)
        for arr, parent in zip(first, out._parents):
            if arr is None:
                # a parameter's gradient on BLAS: stacked into two row
                # buffers the parameter owns, which .grad multiplies
                assert name in ("einsum", "matmul")
                rows = [parent._x_rows, parent._y_rows]
                assert all(r.flags.owndata for r in rows)
                for r in rows + [parent.grad]:
                    assert not any(np.shares_memory(r, o) for o in held)
                assert not any(np.shares_memory(parent.grad, r) for r in rows)
                continue
            assert arr.shape == parent.data.shape, \
                f"{name}'s gradient {arr.shape} is not shaped like its " \
                f"operand {parent.data.shape}"
        for returned, before in ((first, []), (second, first)):
            for i, arr in enumerate(returned):
                if arr is None:
                    continue
                others = [o for o in held + returned[:i] + returned[i + 1:]
                          + before if o is not None]
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
                case(lambda *shape: Parameter(np.ones(shape)))


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
        x = (Parameter if x_grad else Tensor)(x_data)
        w = (Parameter if w_grad else Tensor)(w_data)
        out = T.weighted_mean(x, w)
        gx, gw = out._backward(g)
        want, want_gx, want_gw = self.composition(x_data, w_data, g)
        assert np.array_equal(out.data, want)
        for got, wanted, needed in ((gx, want_gx, x_grad),
                                    (gw, want_gw, w_grad)):
            assert np.array_equal(got, wanted) if needed else got is None

    def test_gradient(self):
        rng = SeededRng(32)
        x = Parameter(rng.normal((3, 4, 5)))
        w = Parameter(rng.uniform((3, 4), 0.5, 1.5))
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
        s = Parameter(SeededRng(11).normal((6,), scale=scale))
        report = grad_check(lambda: T.log_softmax_nll(s, label), {"s": s})
        assert report.passed, report.summary()

    def test_log_softmax_nll_saturates(self):
        s = Parameter(SeededRng(11).normal((6,), scale=1e3))
        label = int(np.argmin(s.data))
        T.log_softmax_nll(s, label).backward()
        expected = np.zeros(6)
        expected[np.argmax(s.data)] = 1.0
        expected[label] = -1.0
        assert np.allclose(s.grad, expected, rtol=0.0, atol=1e-12)

    def test_squared_distance_gradient(self):
        # the target is a constant array: the node's one parent is ``a``
        rng = SeededRng(12)
        a = Parameter(rng.normal((6,)))
        target = rng.normal((6,))
        assert attribute_regression_loss(a, target)._parents == (a,)
        report = grad_check(lambda: attribute_regression_loss(a, target),
                            {"a": a})
        assert report.passed, report.summary()
