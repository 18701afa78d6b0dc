import math

import numpy as np
import pytest

from hrt import (LossConfig, SeededRng, Tensor, attribute_regression_loss,
                 calibration_loss, cross_entropy, gamma_profile, predict,
                 no_grad, total_loss)
from hrt import DimensionError, NumericError
from hrt.config import dataset_dims
from hrt.data import SyntheticSpec, generate_synthetic
from hrt.gradcheck import TINY_MODEL, TINY_SPEC
from hrt.model import HrtModel, ModelConfig


def bigfloat_cross_entropy(s, label, gamma=None):
    import mpmath
    mpmath.mp.dps = 50
    vals = [mpmath.mpf(v) for v in s]
    if gamma is not None:
        vals = [v + mpmath.mpf(g) for v, g in zip(vals, gamma)]
    total = sum(mpmath.exp(v) for v in vals)
    return float(-mpmath.log(mpmath.exp(vals[label]) / total))


def tiny_model_and_sample(seed=0, **model):
    ds = generate_synthetic(TINY_SPEC, seed)
    model = HrtModel.build(ModelConfig(**dataset_dims(ds),
                                       **{**TINY_MODEL, **model}),
                           ds.semantics.attr_vectors, ds.semantics.class_attr,
                           seed=seed)
    i = ds.splits["train"][0]
    return model, ds.features[i], int(ds.labels[i]), ds


class TestCrossEntropy:
    def test_two_way_uniform(self):
        assert cross_entropy(Tensor([0.0, 0.0]), 0).item() == \
            pytest.approx(math.log(2.0), abs=1e-14)

    def test_saturation(self):
        assert cross_entropy(Tensor([500.0, 0.0, 0.0]), 0).item() == \
            pytest.approx(0.0, abs=1e-12)

    def test_matches_bigfloat_oracle(self):
        s = SeededRng(4).normal((5,), scale=3.0)
        for label in range(5):
            expected = bigfloat_cross_entropy(s, label)
            assert cross_entropy(Tensor(s), label).item() == \
                pytest.approx(expected, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor([0.0, 1.0]), 2)


class TestCalibrationLoss:
    def test_zero_gamma_equals_cross_entropy(self):
        s = SeededRng(4).normal((5,))
        for label in range(5):
            assert calibration_loss(Tensor(s), label, np.zeros(5)).item() == \
                pytest.approx(cross_entropy(Tensor(s), label).item(), abs=1e-10)

    def test_constant_gamma_shift_invariance(self):
        s = SeededRng(4).normal((5,))
        base = cross_entropy(Tensor(s), 2).item()
        shifted = calibration_loss(Tensor(s), 2, np.full(5, 3.25)).item()
        assert shifted == pytest.approx(base, abs=1e-10)

    def test_fine_grained_offsets_match_oracle(self):
        # seen classes get -0.5, unseen +1
        s = SeededRng(4).normal((5,), scale=2.0)
        gamma = gamma_profile(5, seen_classes=[0, 1, 2], unseen_classes=[3, 4])
        assert np.array_equal(gamma, [-0.5, -0.5, -0.5, 1.0, 1.0])
        for label in range(5):
            expected = bigfloat_cross_entropy(s, label, gamma)
            assert calibration_loss(Tensor(s), label, gamma).item() == \
                pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("bad", [-math.inf, math.nan],
                             ids=["minus-inf", "nan"])
    def test_non_finite_offset_scores_rejected(self, bad):
        # an offset of -inf away from the label would still give a finite loss
        s = Tensor([0.0, 0.0, 0.0])
        gamma = np.array([0.0, 0.0, bad])
        with pytest.raises(NumericError, match="offset"):
            calibration_loss(s, 1, gamma)


class TestAttributeRegression:
    def test_coincidence(self):
        z = SeededRng(2).normal((6,))
        assert attribute_regression_loss(Tensor(z), z).item() == 0.0

    def test_unit_perturbation(self):
        z = SeededRng(2).normal((6,))
        psi = z.copy()
        psi[0] += 1.0
        assert attribute_regression_loss(Tensor(psi), z).item() == \
            pytest.approx(1.0, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = SeededRng(2)
        psi, z = rng.normal((6,)), rng.normal((6,))
        expected = sum((psi[a] - z[a]) ** 2 for a in range(6))
        assert attribute_regression_loss(Tensor(psi), z).item() == \
            pytest.approx(expected, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            attribute_regression_loss(Tensor(np.zeros(3)), np.zeros(4))


class TestTotalLoss:
    def test_degenerate_weights_reduce_to_cross_entropy(self):
        model, x, label, _ = tiny_model_and_sample()
        cfg = LossConfig(lambda1=0.0, lambda2=0.0)
        total, parts = total_loss(model, x, label, cfg)
        scores = model.forward(x).scores
        assert total.item() == pytest.approx(
            cross_entropy(scores, label).item(), abs=1e-12)

    def test_paper_default_weights_finite(self):
        model, x, label, ds = tiny_model_and_sample()
        gamma = gamma_profile(7, ds.seen_classes, ds.unseen_classes)
        cfg = LossConfig(lambda1=0.1, lambda2=0.033, gamma_per_class=gamma)
        total, parts = total_loss(model, x, label, cfg)
        assert np.isfinite(total.item())
        assert parts["total"] == pytest.approx(
            parts["ce"] + 0.1 * parts["cal"] + 0.033 * parts["reg"], abs=1e-10)

    def test_doubling_lambda2_adds_exactly_reg(self):
        model, x, label, _ = tiny_model_and_sample()
        base = LossConfig(lambda1=0.1, lambda2=0.033)
        doubled = LossConfig(lambda1=0.1, lambda2=0.066)
        t1, parts1 = total_loss(model, x, label, base)
        t2, parts2 = total_loss(model, x, label, doubled)
        assert t2.item() - t1.item() == pytest.approx(0.033 * parts1["reg"],
                                                      abs=1e-10)

    def test_additivity_decomposition(self):
        model, x, label, ds = tiny_model_and_sample()
        gamma = gamma_profile(7, ds.seen_classes, ds.unseen_classes)
        cfg = LossConfig(lambda1=0.7, lambda2=0.3, gamma_per_class=gamma)
        total, parts = total_loss(model, x, label, cfg)
        recomposed = parts["ce"] + 0.7 * parts["cal"] + 0.3 * parts["reg"]
        assert total.item() == pytest.approx(recomposed, abs=1e-10)

    def test_every_parameter_gets_a_gradient_at_default_config(self):
        ds = generate_synthetic(SyntheticSpec(samples_per_class=2), seed=0)
        model = HrtModel.build(ModelConfig(**dataset_dims(ds)),
                               ds.semantics.attr_vectors,
                               ds.semantics.class_attr, seed=0)
        i = ds.splits["train"][0]
        total, _ = total_loss(model, ds.features[i], int(ds.labels[i]),
                              LossConfig())
        total.backward()
        missing = [n for n, p in model.params.items() if p.grad is None]
        assert missing == []

    def test_graph_size_at_default_config(self, monkeypatch):
        # a change that grows the graph of a training sample fails here
        ds = generate_synthetic(SyntheticSpec(samples_per_class=2), seed=0)
        model = HrtModel.build(ModelConfig(**dataset_dims(ds)),
                               ds.semantics.attr_vectors,
                               ds.semantics.class_attr, seed=0)
        i = ds.splits["train"][0]
        built = []
        from_op = Tensor._from_op

        def counting(data, parents, backward, what):
            built.append(what)
            return from_op(data, parents, backward, what)

        monkeypatch.setattr(Tensor, "_from_op", staticmethod(counting))
        with no_grad():
            model.forward(ds.features[i])
        assert len(built) == 19
        built.clear()
        total_loss(model, ds.features[i], int(ds.labels[i]), LossConfig())
        assert len(built) == 23
        # one node per loss term and one for their weighted sum
        assert built[19:] == ["log_softmax_nll", "log_softmax_nll",
                              "squared_distance", "weighted_sum"]

    @pytest.mark.parametrize("k_td", [1, 2, 3])
    def test_every_op_output_is_read_by_the_loss(self, monkeypatch, k_td):
        # an op output built while the loss is formed that is not among the
        # loss's ancestors is work that nothing reads
        model, x, label, ds = tiny_model_and_sample(k_td=k_td)
        gamma = gamma_profile(7, ds.seen_classes, ds.unseen_classes)
        built = []
        from_op = Tensor._from_op

        def recording(data, parents, backward, what):
            out = from_op(data, parents, backward, what)
            built.append((out, what))
            return out

        monkeypatch.setattr(Tensor, "_from_op", staticmethod(recording))
        total, _ = total_loss(model, x, label,
                              LossConfig(gamma_per_class=gamma))
        monkeypatch.undo()
        reached, stack = set(), [total]
        while stack:
            node = stack.pop()
            if id(node) not in reached:
                reached.add(id(node))
                stack.extend(node._parents)
        assert len(built) > 1
        assert [what for out, what in built if id(out) not in reached] == []


class TestPredict:
    def test_plain_argmax(self):
        assert predict(np.array([2.0, 1.0])) == 0

    def test_tie_breaks_to_lowest_index(self):
        assert predict(np.array([1.0, 1.0])) == 0

    def test_shift_invariance(self):
        rng = SeededRng(5)
        for _ in range(20):
            s = rng.normal((6,))
            assert predict(s) == predict(s + 12.5)
