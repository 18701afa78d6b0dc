import numpy as np
import pytest

from hrt import DimensionError, SeededRng, Tensor, encode

from oracles import encoder_oracle


def build_setup(seed, r_patches=4, d_feat=8, n_attr=3, n_primary=3, d_cap=4,
                k_td=2):
    rng = SeededRng(seed)
    compact = Tensor(rng.normal((n_attr, d_cap)))
    # (proj, act_proj, vote_transforms, iterations), in encode's order
    params = (Tensor(rng.normal((d_feat, n_primary, d_cap), scale=0.3)),
              Tensor(rng.normal((d_feat, n_primary), scale=0.3)),
              Tensor(rng.normal((n_attr, d_cap, d_cap))),
              k_td)
    features = rng.normal((r_patches, d_feat))
    return features, compact, params


class TestEncode:
    def test_single_patch(self):
        features, compact, params = build_setup(1, r_patches=1)
        out = encode(Tensor(features), compact, *params)
        assert np.allclose(out.attention.data, 1.0, atol=1e-12)
        for a in range(compact.data.shape[0]):
            assert np.allclose(out.h.data[:, a], features[0], atol=1e-9)

    def test_saturated_softmax_selects_one_patch(self):
        # a spiked agreement column must turn into a one-hot attention column
        # and pick out exactly that patch's feature
        from hrt import tensor as T
        rng = SeededRng(2)
        features = rng.normal((3, 8))
        phi = np.zeros((3, 2))
        phi[1, 0] = 1000.0
        att = T.softmax(Tensor(phi), axis=0)
        h = T.einsum("rf,ra->fa", Tensor(features), att)
        assert np.allclose(att.data[:, 0], [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(h.data[:, 0], features[1], atol=1e-9)

    def test_matches_composed_oracle(self):
        features, compact, params = build_setup(21)
        out = encode(Tensor(features), compact, *params)
        # beta, gamma, lam and sigma_floor feed only the oracle's activation,
        # which the encoder does not compute; its pose is the same for any
        # k_em. The encoder's primary poses vote as they are: identity
        # transforms. The oracle's pose projection is flat, [D_feat, N * d].
        proj, act_proj, vote_transforms, iterations = params
        d_feat, n_primary, d_cap = proj.data.shape
        h, attention, agreement = encoder_oracle(
            features, compact.data,
            proj.data.reshape(d_feat, -1), act_proj.data,
            np.stack([np.eye(d_cap)] * n_primary), 0.1, 0.05, 1.0, 2,
            iterations, 1e-6,
            vote_transforms.data)
        assert np.allclose(out.agreement.data, agreement, atol=1e-9)
        assert np.allclose(out.attention.data, attention, atol=1e-9)
        assert np.allclose(out.h.data, h, atol=1e-9)

    def test_capsule_dim_mismatch(self):
        features, _, params = build_setup(3)
        # 6-wide attribute capsules against the votes of 4-wide children
        with pytest.raises(DimensionError,
                           match=r"'ad,rad->ra' .* \(3, 6\) and \(4, 3, 4\)"):
            encode(Tensor(features), Tensor(np.zeros((3, 6))), *params)


class TestEncodeInvariants:
    def test_simplex_and_convex_hull(self):
        for seed in range(30):
            features, compact, params = build_setup(100 + seed)
            out = encode(Tensor(features), compact, *params)
            att = out.attention.data
            assert np.all(att >= 0)
            assert np.allclose(att.sum(axis=0), 1.0, atol=1e-9)
            assert np.allclose(out.h.data, features.T @ att, atol=1e-9)

    def test_patch_permutation_equivariance(self):
        features, compact, params = build_setup(7, r_patches=5)
        out = encode(Tensor(features), compact, *params)
        perm = SeededRng(0).permutation(5)
        out_p = encode(Tensor(features[perm]), compact, *params)
        assert np.allclose(out.attention.data[perm], out_p.attention.data,
                           atol=1e-9)
        assert np.allclose(out.h.data, out_p.h.data, atol=1e-9)

    def test_shapes_scale_with_dims(self):
        features, compact, params = build_setup(8, r_patches=6, d_feat=12,
                                                n_attr=5)
        out = encode(Tensor(features), compact, *params)
        assert out.h.data.shape == (12, 5)
        assert out.attention.data.shape == (6, 5)
        assert np.allclose(out.attention.data.sum(axis=0), 1.0, atol=1e-9)
