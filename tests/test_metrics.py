import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrt import (ConfigError, DimensionError, SeededRng, Tensor, evaluate,
                 harmonic_mean)


class ScoreTableModel:
    """Stand-in model: each 'feature' row is already the class-score vector."""

    def __init__(self, num_classes):
        from types import SimpleNamespace
        self.config = SimpleNamespace(num_classes=num_classes)

    def forward(self, x):
        from types import SimpleNamespace
        return SimpleNamespace(scores=Tensor(x.data))


class TableDataset:
    """Stand-in dataset built from explicit per-split arrays, stacked into
    one feature array that ``splits`` indexes; a split not given is empty."""

    def __init__(self, splits, unseen_classes):
        self.splits = {name: np.zeros(0, dtype=np.int64)
                       for name in ("train", "test_seen", "test_unseen")}
        rows, labels = [], []
        for name, (feats, split_labels) in splits.items():
            self.splits[name] = np.arange(len(rows), len(rows) + len(feats))
            rows.extend(np.asarray(feats, dtype=np.float64))
            labels.extend(split_labels)
        self.features = np.array(rows)
        self.labels = np.array(labels, dtype=np.int64)
        self.unseen_classes = list(unseen_classes)


def one_hot_rows(preds, num_classes):
    rows = np.zeros((len(preds), num_classes))
    rows[np.arange(len(preds)), preds] = 1.0
    return rows


class TestHarmonicMean:
    def test_published_cub_operating_point(self):
        # tr=63.5, ts=62.1 combine to H=62.8 at the reported precision
        assert harmonic_mean(0.635, 0.621) == pytest.approx(0.628, abs=5e-4)

    def test_published_awa2_operating_point(self):
        # tr=78.7, ts=58.9 combine to H=67.4 at the reported precision
        assert harmonic_mean(0.787, 0.589) == pytest.approx(0.674, abs=5e-4)

    def test_degenerate_zero(self):
        assert harmonic_mean(0.0, 0.0) == 0.0
        assert harmonic_mean(0.0, 0.9) == 0.0

    def test_equal_inputs_fixed_point(self):
        assert harmonic_mean(0.4, 0.4) == pytest.approx(0.4, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric_and_below_arithmetic_mean(self, a, b):
        h = harmonic_mean(a, b)
        assert h == harmonic_mean(b, a)
        assert 0.0 <= h <= (a + b) / 2.0 + 1e-12


class TestPerClassAccuracy:
    def test_perfect_predictor(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        feats = one_hot_rows(labels, 3)
        ds = TableDataset({"test_seen": (feats, labels),
                           "test_unseen": (feats, labels)}, unseen_classes=[2])
        m = evaluate(ScoreTableModel(3), ds, mode="gzsl")
        assert (m.tr, m.ts, m.h) == (1.0, 1.0, 1.0)

    def test_macro_averaging_not_sample_weighted(self):
        # class 0 has three correct samples, class 1 one wrong sample:
        # per-class mean is 0.5 even though 3/4 samples are right
        labels = np.array([0, 0, 0, 1])
        preds = np.array([0, 0, 0, 0])
        feats = one_hot_rows(preds, 2)
        ds = TableDataset({"test_seen": (feats, labels),
                           "test_unseen": (feats, labels)}, unseen_classes=[1])
        m = evaluate(ScoreTableModel(2), ds, mode="gzsl")
        assert m.tr == pytest.approx(0.5)

    def test_zsl_restricts_to_unseen_classes(self):
        # scores always favour class 0, but ZSL may only pick unseen classes
        labels = np.array([2, 3])
        feats = np.array([[9.0, 0.0, 1.0, 0.0],
                          [9.0, 0.0, 0.0, 1.0]])
        ds = TableDataset({"test_unseen": (feats, labels)},
                          unseen_classes=[2, 3])
        m = evaluate(ScoreTableModel(4), ds, mode="zsl")
        assert m.t1 == 1.0

    def test_gzsl_unseen_accuracy_never_exceeds_zsl(self):
        # restricting candidates to the true label's pool can only help
        rng = SeededRng(11)
        labels = np.repeat([2, 3], 10)
        feats = rng.normal((20, 4))
        ds = TableDataset({"test_seen": (feats[:2], labels[:2]),
                           "test_unseen": (feats, labels)},
                          unseen_classes=[2, 3])
        model = ScoreTableModel(4)
        zsl = evaluate(model, ds, mode="zsl")
        gzsl = evaluate(model, ds, mode="gzsl")
        assert gzsl.ts <= zsl.t1 + 1e-12

    def test_sample_order_invariance(self):
        rng = SeededRng(3)
        labels = np.array([0, 1, 1, 2, 2, 0])
        feats = rng.normal((6, 3))
        perm = rng.permutation(6)
        ds_a = TableDataset({"test_seen": (feats, labels),
                             "test_unseen": (feats, labels)},
                            unseen_classes=[2])
        ds_b = TableDataset({"test_seen": (feats[perm], labels[perm]),
                             "test_unseen": (feats[perm], labels[perm])},
                            unseen_classes=[2])
        model = ScoreTableModel(3)
        ma = evaluate(model, ds_a, mode="gzsl")
        mb = evaluate(model, ds_b, mode="gzsl")
        assert (ma.tr, ma.ts, ma.h) == (mb.tr, mb.ts, mb.h)

    def test_gamma_can_flip_gzsl_decisions(self):
        labels = np.array([1])
        feats = np.array([[1.0, 0.5]])
        ds = TableDataset({"test_seen": (feats, labels),
                           "test_unseen": (feats, labels)}, unseen_classes=[1])
        model = ScoreTableModel(2)
        plain = evaluate(model, ds, mode="gzsl")
        boosted = evaluate(model, ds, mode="gzsl",
                           gamma=np.array([-0.5, 1.0]))
        assert plain.ts == 0.0 and boosted.ts == 1.0

    def test_gzsl_ties_go_to_lowest_class_index(self):
        # calibrated scores tie at [1.0, 1.0, 0.5] and at [0.5, 1.0, 1.0]
        ds = TableDataset({"test_seen": ([[1.0, 0.5, 0.5]], [0]),
                           "test_unseen": ([[0.5, 0.5, 1.0]], [2])},
                          unseen_classes=[2])
        m = evaluate(ScoreTableModel(3), ds, mode="gzsl",
                     gamma=np.array([0.0, 0.5, 0.0]))
        assert (m.tr, m.ts) == (1.0, 0.0)


class TestEvaluateErrors:
    def test_unknown_mode(self):
        ds = TableDataset({}, unseen_classes=[0])
        with pytest.raises(ConfigError):
            evaluate(ScoreTableModel(2), ds, mode="transductive")

    def test_empty_split(self):
        ds = TableDataset({}, unseen_classes=[0])
        with pytest.raises(ConfigError, match="empty"):
            evaluate(ScoreTableModel(2), ds, mode="zsl")

    @pytest.mark.parametrize("gamma", [np.zeros(3), np.zeros(1),
                                       np.zeros((2, 2))])
    def test_gzsl_gamma_shape_mismatch(self, gamma):
        feats = np.eye(2)
        ds = TableDataset({"test_seen": (feats, np.array([0, 1])),
                           "test_unseen": (feats, np.array([0, 1]))},
                          unseen_classes=[1])
        with pytest.raises(DimensionError, match="gamma shape"):
            evaluate(ScoreTableModel(2), ds, mode="gzsl", gamma=gamma)
