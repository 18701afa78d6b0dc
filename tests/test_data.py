import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrt import (ConfigError, DataFormatError, DimensionError, HrtModel,
                 LossConfig, ModelConfig, OptimizerConfig, SyntheticSpec,
                 evaluate, generate_synthetic, load_features, save_dataset,
                 train)
from hrt.config import dataset_dims
from helpers import WIDE_GRID, peak_traced_bytes
from oracles import synthetic_oracle


def small_spec(**overrides):
    base = dict(c_seen=3, c_unseen=2, num_attributes=6, r_patches=4,
                d_feat=12, tau=8, samples_per_class=4, noise_std=0.1,
                signal_patches_per_attribute=1)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestGenerateSynthetic:
    def test_determinism_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            ds = generate_synthetic(small_spec(), seed=5)
            save_dataset(ds, tmp_path / sub)
        for name in ("meta.json", "features.bin", "attributes.csv",
                     "semantics.csv", "splits.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("recipe", [
        {}, WIDE_GRID, {"noise_std": 0.0},
        {"signal_patches_per_attribute": 9},
        {"r_patches": 1, "signal_patches_per_attribute": 1},
    ], ids=["default", "wide_grid", "noise_free", "all_patches",
            "one_patch"])
    def test_matches_per_sample_oracle(self, recipe, seed):
        spec = SyntheticSpec(**recipe)
        ds = generate_synthetic(spec, seed)
        features, labels, splits, class_attr, attr_vectors = \
            synthetic_oracle(spec, seed)
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels)
        assert ds.splits.keys() == splits.keys()
        for name in splits:
            assert np.array_equal(ds.splits[name], splits[name])
        assert np.array_equal(ds.semantics.class_attr, class_attr)
        assert np.array_equal(ds.semantics.attr_vectors, attr_vectors)

    def test_no_unseen_classes_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(c_unseen=0)

    def test_non_finite_noise_rejected(self):
        with pytest.raises(ConfigError, match="noise_std .* got inf$"):
            small_spec(noise_std=float("inf"))

    def test_overflowing_noise_rejected(self):
        # a noise this wide draws infinities, which load_features refuses
        with pytest.raises(ConfigError, match="synthetic.noise_std"):
            generate_synthetic(small_spec(noise_std=1e308), seed=0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(small_spec(samples_per_class=1), seed=0)

    def test_split_structure(self):
        ds = generate_synthetic(small_spec(), seed=1)
        assert set(ds.seen_classes) == {0, 1, 2}
        assert set(ds.unseen_classes) == {3, 4}
        train_labels = set(ds.labels[ds.splits["train"]].tolist())
        assert train_labels <= set(ds.seen_classes)
        unseen_labels = set(ds.labels[ds.splits["test_unseen"]].tolist())
        assert unseen_labels == set(ds.unseen_classes)
        all_idx = np.concatenate([ds.splits[k] for k in ds.splits])
        assert len(all_idx) == len(set(all_idx.tolist())) == ds.features.shape[0]

    def test_noise_free_task_solved_by_nearest_attribute_oracle(self):
        # with no noise and strong per-class signal, projecting each sample
        # onto the attribute bases and matching the nearest class attribute
        # vector classifies unseen samples perfectly
        spec = small_spec(noise_std=0.0, samples_per_class=3,
                          signal_patches_per_attribute=1)
        ds = generate_synthetic(spec, seed=3)
        unseen_idx, train_idx = ds.splits["test_unseen"], ds.splits["train"]
        feats, labels = ds.features[unseen_idx], ds.labels[unseen_idx]
        z = ds.semantics.class_attr
        # recover attribute strengths by least squares against summed patches
        x_train = ds.features[train_idx].sum(axis=1)
        z_train = z[ds.labels[train_idx]]
        w, *_ = np.linalg.lstsq(x_train, z_train, rcond=None)
        correct = 0
        for x, y in zip(feats, labels):
            psi = x.sum(axis=0) @ w
            dists = ((z[ds.unseen_classes] - psi) ** 2).sum(axis=1)
            correct += int(ds.unseen_classes[int(np.argmin(dists))] == y)
        assert correct == len(labels)


class TestRoundtrip:
    def test_save_load_bitwise(self, tmp_path):
        ds = generate_synthetic(small_spec(), seed=7)
        save_dataset(ds, tmp_path / "d")
        loaded = load_features(tmp_path / "d")
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.seen_classes == ds.seen_classes
        assert loaded.unseen_classes == ds.unseen_classes
        for name in ds.splits:
            assert np.array_equal(loaded.splits[name], ds.splits[name])
        assert np.allclose(loaded.semantics.class_attr, ds.semantics.class_attr)
        assert np.allclose(loaded.semantics.attr_vectors,
                           ds.semantics.attr_vectors)

    def test_truncated_features_cites_lengths(self, tmp_path):
        ds = generate_synthetic(small_spec(), seed=7)
        save_dataset(ds, tmp_path / "d")
        f = tmp_path / "d" / "features.bin"
        raw = f.read_bytes()
        f.write_bytes(raw[:-1])
        with pytest.raises(DataFormatError, match=rf"{len(raw) - 1}.*{len(raw)}"):
            load_features(tmp_path / "d")

    def test_overlong_features_cites_lengths(self, tmp_path):
        ds = generate_synthetic(small_spec(), seed=7)
        save_dataset(ds, tmp_path / "d")
        f = tmp_path / "d" / "features.bin"
        raw = f.read_bytes()
        f.write_bytes(raw + b"\0")
        with pytest.raises(DataFormatError,
                           match=rf"holds {len(raw) + 1} bytes, expected {len(raw)}"):
            load_features(tmp_path / "d")

    def test_paper_scale_fixture(self, tmp_path):
        # R=49 patches of 2048-dim features, two samples, loads cleanly
        r, d_feat, a, tau, c, n = 49, 2048, 4, 6, 3, 2
        d = tmp_path / "d"
        d.mkdir()
        meta = {"version": 1, "R": r, "D_feat": d_feat, "A": a, "tau": tau,
                "C": c, "sample_count": n, "dtype": "f32",
                "endianness": "little"}
        (d / "meta.json").write_text(json.dumps(meta))
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(n, r, d_feat)).astype("<f4")
        feats.tofile(d / "features.bin")
        (d / "attributes.csv").write_text(
            "a0,a1,a2,a3\n" + "\n".join(",".join("0.5" for _ in range(a))
                                        for _ in range(c)) + "\n")
        (d / "semantics.csv").write_text(
            "\n".join(",".join("0.1" for _ in range(tau)) for _ in range(a)) + "\n")
        (d / "splits.csv").write_text(
            "sample_index,class_index,split\n0,0,train\n1,2,test_unseen\n")
        ds = load_features(d)
        assert ds.features.shape == (n, r, d_feat)
        assert ds.features.dtype == np.float64
        assert np.array_equal(ds.features, feats.astype(np.float64))
        assert ds.seen_classes == [0] and ds.unseen_classes == [2]

    def test_overlapping_seen_unseen_rejected(self, tmp_path):
        ds = generate_synthetic(small_spec(), seed=7)
        save_dataset(ds, tmp_path / "d")
        splits = (tmp_path / "d" / "splits.csv").read_text().splitlines()
        # relabel one test_unseen sample with a seen class
        seen_cls = next(l for l in splits[1:] if l.endswith("train")).split(",")[1]
        for i, line in enumerate(splits[1:], start=1):
            if line.endswith("test_unseen"):
                s_idx = line.split(",")[0]
                splits[i] = f"{s_idx},{seen_cls},test_unseen"
                break
        (tmp_path / "d" / "splits.csv").write_text("\n".join(splits) + "\n")
        with pytest.raises(DataFormatError, match="both seen and"):
            load_features(tmp_path / "d")

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, dtype, value):
        ds = generate_synthetic(small_spec(), seed=7)
        save_dataset(ds, tmp_path / "d")
        features = ds.features.copy()
        features[1, 2, 3] = value
        features.astype({"f32": "<f4", "f64": "<f8"}[dtype]).tofile(
            tmp_path / "d" / "features.bin")
        meta_file = tmp_path / "d" / "meta.json"
        meta_file.write_text(json.dumps(
            {**json.loads(meta_file.read_text()), "dtype": dtype}))
        with pytest.raises(DataFormatError,
                           match="contains non-finite values"):
            load_features(tmp_path / "d")

    def test_missing_file(self, tmp_path):
        ds = generate_synthetic(small_spec(), seed=7)
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "semantics.csv").unlink()
        with pytest.raises(DataFormatError, match="semantics.csv"):
            load_features(tmp_path / "d")

    @given(key=st.sampled_from(["R", "D_feat", "A", "tau", "C",
                                "sample_count"]),
           delta=st.integers(min_value=-3, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_meta_corruption_detected(self, key, delta, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        ds = generate_synthetic(small_spec(), seed=7)
        save_dataset(ds, tmp_path / "d")
        meta_file = tmp_path / "d" / "meta.json"
        meta = json.loads(meta_file.read_text())
        if meta[key] == delta:
            return
        meta[key] = delta
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(DataFormatError):
            load_features(tmp_path / "d")

    @pytest.mark.parametrize("key", ["A", "tau"])
    def test_huge_meta_dimension_detected(self, key, tmp_path):
        # a CSV file's column count is checked before its matrix is built,
        # so no array is sized by the claim in meta.json
        ds = generate_synthetic(small_spec(), seed=7)
        save_dataset(ds, tmp_path / "d")
        meta_file = tmp_path / "d" / "meta.json"
        meta = json.loads(meta_file.read_text())
        meta[key] = 10**12
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(DataFormatError, match="columns"):
            load_features(tmp_path / "d")


TEXT_FILES = ("meta.json", "attributes.csv", "semantics.csv", "splits.csv")


@pytest.fixture(scope="module")
def tiny_dataset_dir(tmp_path_factory):
    """(the bytes of each text file of a small saved dataset, its
    directory): a test may rewrite a file if it puts the bytes back."""
    path = tmp_path_factory.mktemp("fuzz") / "d"
    save_dataset(generate_synthetic(small_spec(), seed=7), path)
    return {name: (path / name).read_bytes() for name in TEXT_FILES}, path


class TestLoaderFuzz:
    """Whatever a dataset's text files hold, loading it returns a dataset
    or raises one of the errors ``hrt`` reports with exit 1."""

    ALLOWED = (DataFormatError, ConfigError, DimensionError)

    def load(self, tiny_dataset_dir, name, blob):
        raw, path = tiny_dataset_dir
        (path / name).write_bytes(blob)
        try:
            load_features(path)
        except self.ALLOWED:
            pass
        finally:
            (path / name).write_bytes(raw[name])

    @given(st.sampled_from(TEXT_FILES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated(self, tiny_dataset_dir, name, data):
        raw = tiny_dataset_dir[0][name]
        end = data.draw(st.integers(0, len(raw) - 1))
        self.load(tiny_dataset_dir, name, raw[:end])

    @given(st.sampled_from(TEXT_FILES), st.binary(min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_extended(self, tiny_dataset_dir, name, extra):
        raw = tiny_dataset_dir[0][name]
        self.load(tiny_dataset_dir, name, raw + extra)

    @given(st.sampled_from(TEXT_FILES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_flipped(self, tiny_dataset_dir, name, data):
        blob = bytearray(tiny_dataset_dir[0][name])
        flips = data.draw(st.lists(
            st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
            min_size=1, max_size=4))
        for i, mask in flips:
            blob[i] ^= mask
        self.load(tiny_dataset_dir, name, bytes(blob))


@st.composite
def small_specs(draw):
    """A small recipe that SyntheticSpec accepts, and a seed."""
    a = draw(st.integers(2, 5))
    r = draw(st.integers(1, 4))
    spec = SyntheticSpec(
        c_seen=draw(st.integers(2, 4)), c_unseen=draw(st.integers(1, 3)),
        num_attributes=a, r_patches=r, d_feat=draw(st.integers(a, 8)),
        tau=draw(st.integers(1, 4)),
        samples_per_class=draw(st.integers(2, 4)),
        noise_std=draw(st.floats(0.0, 1e308)),
        signal_patches_per_attribute=draw(st.integers(1, r)),
        train_fraction=draw(st.floats(0.05, 0.95)))
    return spec, draw(st.integers(0, 1000))


class TestSyntheticRoundTrip:
    """Generating a recipe either refuses it with a ConfigError naming a
    ``synthetic.`` key, or gives a dataset that saves and loads back as it
    was generated."""

    @given(small_specs())
    @settings(max_examples=40, deadline=None)
    def test_generate_save_load(self, tmp_path_factory, spec_seed):
        try:
            ds = generate_synthetic(*spec_seed)
        except ConfigError as e:
            assert "synthetic." in str(e)
            return
        path = tmp_path_factory.mktemp("roundtrip")
        save_dataset(ds, path)
        back = load_features(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.splits.keys() == ds.splits.keys()
        for name in ds.splits:
            assert np.array_equal(back.splits[name], ds.splits[name])


class TestMemory:
    """The data path holds one copy of the features: the high-water mark of
    each step, over the size of the array it handles."""

    @pytest.fixture(scope="class")
    def wide(self):
        return generate_synthetic(SyntheticSpec(**WIDE_GRID), seed=0)

    def test_generate(self, wide):
        peak = peak_traced_bytes(generate_synthetic,
                                 SyntheticSpec(**WIDE_GRID), 0)
        assert peak <= 1.5 * wide.features.nbytes

    def test_save(self, wide, tmp_path):
        peak = peak_traced_bytes(save_dataset, wide, tmp_path / "d")
        assert peak <= 0.25 * wide.features.nbytes

    def test_load(self, wide, tmp_path):
        save_dataset(wide, tmp_path / "d")
        peak = peak_traced_bytes(load_features, tmp_path / "d")
        assert peak <= 1.05 * wide.features.nbytes

    @pytest.fixture(scope="class")
    def wide_model(self, wide):
        sem = wide.semantics
        return HrtModel.build(
            ModelConfig(**dataset_dims(wide), k_em=1, k_td=3),
            sem.attr_vectors, sem.class_attr, seed=0)

    def test_train_reads_samples_in_place(self, wide, wide_model):
        peak = peak_traced_bytes(train, wide, wide_model, LossConfig(),
                                 OptimizerConfig(), 0)
        train_bytes = wide.features[wide.splits["train"]].nbytes
        assert peak <= 0.05 * train_bytes

    def test_evaluate_reads_samples_in_place(self, wide, wide_model):
        peak = peak_traced_bytes(evaluate, wide_model, wide, "zsl")
        unseen_bytes = wide.features[wide.splits["test_unseen"]].nbytes
        assert peak <= 0.5 * unseen_bytes
