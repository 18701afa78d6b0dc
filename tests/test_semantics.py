import numpy as np
import pytest

from hrt import DimensionError, NumericError, SeededRng, SemanticSpace, \
    compact_semantics


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
        out = compact_semantics(v, 1)[:, 0]
        centered = coeffs - coeffs.mean()
        # scores proportional to the row coefficients, up to sign
        mask = np.abs(centered) > 1e-9
        ratio = out[mask] / (centered[mask] * np.linalg.norm(u))
        assert np.allclose(np.abs(ratio), 1.0, atol=1e-9)

    def test_too_small_target_dim(self):
        with pytest.raises(DimensionError):
            compact_semantics(np.zeros((4, 3)), 5)

    def test_zero_variance_degenerate(self):
        with pytest.raises(NumericError):
            compact_semantics(np.ones((4, 6)), 2)

    # the default shape: 12 centred vectors have rank 11, so at d_cap 16
    # column 11 is zero up to rounding and columns 12-15 are exactly zero
    def test_columns_past_rank_are_zero(self):
        v = SeededRng(2).normal((12, 32))
        out = compact_semantics(v, 16)
        assert out.shape == (12, 16)
        norms = np.linalg.norm(out, axis=0)
        assert np.all(norms[:11] > 1.0)
        assert norms[11] < 1e-12
        assert np.all(out[:, 12:] == 0.0)
