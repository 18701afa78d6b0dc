import numpy as np
import pytest

from hrt import (DimensionError, SeededRng, Tensor, adjust_class_attributes,
                 class_scores, content_attribute_scores)


def build_setup(seed, d_feat=6, n_attr=4, n_classes=3, tau=5):
    """h, lam (columns v_a), the class attribute rows, w_beta and w_d."""
    rng = SeededRng(seed)
    lam = Tensor(rng.normal((n_attr, tau)).T)
    class_attr = Tensor(rng.uniform((n_classes, n_attr)))
    h = Tensor(rng.normal((d_feat, n_attr)))
    w_beta = Tensor(rng.normal((tau, d_feat)))
    w_d = Tensor(rng.normal((d_feat, tau)))
    return h, lam, class_attr, w_beta, w_d


class TestAdjustClassAttributes:
    def test_zero_weights_gate_half(self):
        h, lam, z, w_beta, _ = build_setup(1)
        w_beta = Tensor(np.zeros_like(w_beta.data))
        z_tilde = adjust_class_attributes(h, lam, z, w_beta)
        assert np.array_equal(z_tilde.data, 0.5 * z.data)

    def test_zero_class_row_annihilates(self):
        h, lam, z, w_beta, _ = build_setup(2)
        z.data[1] = 0.0
        z_tilde = adjust_class_attributes(h, lam, z, w_beta)
        assert np.array_equal(z_tilde.data[1], np.zeros(4))

    def test_matches_loop_oracle(self):
        h, lam, z, w_beta, _ = build_setup(9)
        z_tilde = adjust_class_attributes(h, lam, z, w_beta)
        for a in range(4):
            v_a = lam.data[:, a]
            gate = 1.0 / (1.0 + np.exp(-(v_a @ w_beta.data @ h.data[:, a])))
            for c in range(3):
                assert z_tilde.data[c, a] == pytest.approx(
                    gate * z.data[c, a], abs=1e-12)

    def test_gates_shrink_magnitudes(self):
        h, lam, z, w_beta, _ = build_setup(3)
        z_tilde = adjust_class_attributes(h, lam, z, w_beta)
        assert np.all(np.abs(z_tilde.data) <= np.abs(z.data))

    def test_dim_mismatch(self):
        h, lam, z, _, _ = build_setup(4)
        w_beta = Tensor(np.zeros((5, 7)))
        with pytest.raises(DimensionError):
            adjust_class_attributes(h, lam, z, w_beta)

    # the contraction that first reads the short attribute axis refuses it
    @pytest.mark.parametrize("name,message", [
        ("lam", r"'af,fa->a' .* \(3, 6\) and \(6, 4\)"),
        ("class_attr", r"'a,ca->ca' .* \(4,\) and \(3, 3\)"),
    ], ids=["lam", "class_attr"])
    def test_semantic_dim_mismatch(self, name, message):
        # one attribute too few in lam or the class attribute rows
        h, lam, z, w_beta, _ = build_setup(4)
        args = {"lam": lam, "class_attr": z}
        args[name] = Tensor(args[name].data[:, :-1])
        with pytest.raises(DimensionError, match=message):
            adjust_class_attributes(h, args["lam"], args["class_attr"], w_beta)


class TestContentAttributeScores:
    def test_zero_weights(self):
        h, lam, _, _, w_d = build_setup(5)
        w_d = Tensor(np.zeros_like(w_d.data))
        psi = content_attribute_scores(h, lam, w_d)
        assert np.array_equal(psi.data, np.zeros(4))

    def test_identity_embedding(self):
        # D_feat == tau, identity W_d, h_a == v_a => psi_a = ||v_a||^2
        attr_vectors = SeededRng(6).normal((4, 6))
        h = Tensor(attr_vectors.T)
        w_d = Tensor(np.eye(6))
        psi = content_attribute_scores(h, Tensor(attr_vectors.T), w_d)
        expected = (attr_vectors ** 2).sum(axis=1)
        assert np.allclose(psi.data, expected, atol=1e-9)

    def test_matches_loop_oracle(self):
        h, lam, _, _, w_d = build_setup(9)
        psi = content_attribute_scores(h, lam, w_d)
        for a in range(4):
            expected = h.data[:, a] @ w_d.data @ lam.data[:, a]
            assert psi.data[a] == pytest.approx(expected, abs=1e-10)

    def test_dim_mismatch(self):
        h, lam, _, _, _ = build_setup(4)
        with pytest.raises(DimensionError,
                           match=r"'ft,fa->ta' .* \(5, 7\) and \(6, 4\)"):
            content_attribute_scores(h, lam, Tensor(np.zeros((5, 7))))
        with pytest.raises(DimensionError,
                           match=r"'ta,ta->a' .* \(5, 4\) and \(5, 3\)"):
            content_attribute_scores(h, Tensor(lam.data[:, :-1]),
                                     Tensor(np.zeros((6, 5))))


class TestClassScores:
    def test_basis_probe(self):
        rng = SeededRng(7)
        z_tilde = rng.normal((3, 4))
        for a in range(4):
            psi = np.zeros(4)
            psi[a] = 1.0
            s = class_scores(Tensor(psi), Tensor(z_tilde))
            assert np.allclose(s.data, z_tilde[:, a], atol=1e-12)

    def test_all_ones_gives_row_sums(self):
        rng = SeededRng(8)
        z_tilde = rng.normal((3, 4))
        s = class_scores(Tensor(np.ones(4)), Tensor(z_tilde))
        assert np.allclose(s.data, z_tilde.sum(axis=1), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = SeededRng(9)
        psi, z_tilde = rng.normal((4,)), rng.normal((3, 4))
        s = class_scores(Tensor(psi), Tensor(z_tilde))
        for c in range(3):
            assert s.data[c] == pytest.approx(
                sum(psi[a] * z_tilde[c, a] for a in range(4)), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            class_scores(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))))

    def test_linearity(self):
        rng = SeededRng(10)
        p1, p2 = rng.normal((4,)), rng.normal((4,))
        z1, z2 = rng.normal((3, 4)), rng.normal((3, 4))
        lhs = class_scores(Tensor(p1 + p2), Tensor(z1)).data
        rhs = class_scores(Tensor(p1), Tensor(z1)).data \
            + class_scores(Tensor(p2), Tensor(z1)).data
        assert np.allclose(lhs, rhs, atol=1e-9)
        lhs = class_scores(Tensor(p1), Tensor(z1 + z2)).data
        rhs = class_scores(Tensor(p1), Tensor(z1)).data \
            + class_scores(Tensor(p1), Tensor(z2)).data
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestScaleInvariance:
    def test_positive_scaling_preserves_argmax(self):
        h, lam, z, w_beta, w_d = build_setup(11)
        psi = content_attribute_scores(h, lam, w_d)
        z_tilde = adjust_class_attributes(h, lam, z, w_beta)
        s = class_scores(psi, z_tilde).data
        kappa = 3.7
        z_tilde_k = adjust_class_attributes(h, lam, Tensor(kappa * z.data),
                                            w_beta)
        s_k = class_scores(psi, z_tilde_k).data
        assert np.allclose(s_k, kappa * s, atol=1e-9)
        assert np.argmax(s_k) == np.argmax(s)
