import numpy as np
import pytest

from hrt import DimensionError, NumericError, SeededRng, SemanticSpace, \
    compact_semantics, factor_analysis

from oracles import factor_analysis_oracle


class TestSemanticSpace:
    def test_attribute_count_consistency(self):
        with pytest.raises(DimensionError):
            SemanticSpace(attr_vectors=np.zeros((3, 4)),
                          compact_vectors=np.zeros((2, 2)),
                          class_attr=np.zeros((2, 3)))

    def test_nonfinite_class_attr_rejected(self):
        z = np.zeros((2, 3))
        z[0, 0] = np.inf
        with pytest.raises(NumericError):
            SemanticSpace(attr_vectors=np.zeros((3, 4)),
                          compact_vectors=np.zeros((3, 2)), class_attr=z)


class TestCompaction:
    def test_pca_rank_one(self):
        u = np.array([1.0, 2.0, -1.0, 0.5])
        coeffs = np.array([3.0, -1.0, 2.0, 0.0, 1.0])
        v = np.outer(coeffs, u)
        out = compact_semantics(v, 1, method="pca")[:, 0]
        centered = coeffs - coeffs.mean()
        # scores proportional to the row coefficients, up to sign
        mask = np.abs(centered) > 1e-9
        ratio = out[mask] / (centered[mask] * np.linalg.norm(u))
        assert np.allclose(np.abs(ratio), 1.0, atol=1e-9)

    def test_too_small_target_dim(self):
        with pytest.raises(DimensionError):
            compact_semantics(np.zeros((4, 3)), 5, method="pca")

    def test_zero_variance_degenerate(self):
        v = np.ones((4, 6))
        for method in ("pca", "factor-analysis"):
            with pytest.raises(NumericError):
                compact_semantics(v, 2, method=method)

    def test_unknown_method(self):
        with pytest.raises(DimensionError):
            compact_semantics(SeededRng(0).normal((4, 6)), 2, method="umap")


class TestFactorAnalysis:
    def test_loglik_nondecreasing_and_matches_oracle(self):
        rng = SeededRng(13)
        x = rng.normal((20, 6)) + rng.normal((20, 1)) * rng.normal((1, 6))
        scores, loadings, psi, ll = factor_analysis(x, 2, iterations=50)
        diffs = np.diff(ll)
        assert np.all(diffs >= -1e-8)  # EM monotonicity up to fp noise
        oracle_scores = factor_analysis_oracle(x, 2, iterations=50)
        assert np.allclose(scores, oracle_scores, atol=1e-6)

    def test_scores_shape(self):
        rng = SeededRng(2)
        out = compact_semantics(rng.normal((12, 32)), 16,
                                method="factor-analysis")
        assert out.shape == (12, 16)
        assert np.all(np.isfinite(out))
