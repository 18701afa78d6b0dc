import json
import struct

import numpy as np
import pytest

from hrt import (DataFormatError, HrtModel, LossConfig, ModelConfig,
                 OptimizerConfig, SyntheticSpec, Tensor, config_hash,
                 gamma_profile, generate_synthetic, load_checkpoint, no_grad,
                 save_checkpoint, total_loss, train, write_history)
from hrt.cli import TINY_MODEL
from hrt.train import HISTORY_HEADER


def tiny_setup(seed=0):
    spec = SyntheticSpec(c_seen=5, c_unseen=2, num_attributes=6, r_patches=4,
                         d_feat=16, tau=8, samples_per_class=2, noise_std=0.1,
                         signal_patches_per_attribute=1)
    ds = generate_synthetic(spec, seed)
    model = HrtModel.build(ModelConfig(**TINY_MODEL),
                           ds.semantics.attr_vectors, ds.semantics.class_attr,
                           seed=seed)
    return ds, model


class TestTrain:
    def test_zero_epochs_is_noop(self):
        ds, model = tiny_setup()
        before = {n: p.data.copy() for n, p in model.params.items()}
        history = train(ds, model, LossConfig(), OptimizerConfig(), epochs=0)
        assert history == []
        for n, p in model.params.items():
            assert np.array_equal(p.data, before[n])

    def test_loss_drops_when_memorizing_train_split(self):
        ds, model = tiny_setup(seed=4)
        history = train(ds, model, LossConfig(lambda1=0.0, lambda2=0.0),
                        OptimizerConfig(), epochs=60, batch_size=1)
        assert history[-1].total < 0.1
        assert history[-1].train_acc == 1.0
        assert history[-1].total < history[0].total

    def test_fixed_seed_reproduces_history_bitwise(self, tmp_path):
        rows = []
        for run in range(2):
            ds, model = tiny_setup(seed=2)
            history = train(ds, model, LossConfig(), OptimizerConfig(),
                            epochs=3, seed=9)
            path = tmp_path / f"history_{run}.csv"
            write_history(history, path)
            rows.append(path.read_bytes())
        assert rows[0] == rows[1]

    def test_one_batch_epoch_history_is_mean_of_total_loss(self):
        ds, model = tiny_setup(seed=3)
        loss_config = LossConfig(gamma_per_class=gamma_profile(
            7, ds.seen_classes, ds.unseen_classes))
        feats, labels = ds.split_samples("train")
        parts = [total_loss(model, x, int(y), loss_config)[1]
                 for x, y in zip(feats, labels)]
        # one batch holds the whole split, so every sample sees the
        # initial parameters
        history = train(ds, model, loss_config, OptimizerConfig(), epochs=1,
                        batch_size=feats.shape[0])
        for key in ("ce", "cal", "reg", "total"):
            assert getattr(history[0], key) == pytest.approx(
                np.mean([p[key] for p in parts]), abs=1e-12)

    def test_history_csv_layout(self, tmp_path):
        ds, model = tiny_setup()
        history = train(ds, model, LossConfig(), OptimizerConfig(), epochs=2)
        write_history(history, tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == HISTORY_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert all(np.isfinite(float(v)) for v in first[1:])


class TestConfigHash:
    def test_insensitive_to_key_order(self):
        assert config_hash({"a": 1, "b": {"c": 2, "d": 3}}) == \
            config_hash({"b": {"d": 3, "c": 2}, "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestCheckpoint:
    def test_roundtrip_preserves_params_and_outputs(self, tmp_path):
        ds, model = tiny_setup(seed=6)
        train(ds, model, LossConfig(), OptimizerConfig(), epochs=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, experiment_config={"train": {"epochs": 1}})
        loaded = load_checkpoint(path)
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data)
        x = ds.features[0]
        with no_grad():
            a = model.forward(Tensor(x)).scores.data
            b = loaded.forward(Tensor(x)).scores.data
        assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        ds, model = tiny_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        ds, model = tiny_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(DataFormatError, match="trailing"):
            load_checkpoint(path)

    @staticmethod
    def read_header(path):
        """(JSON header, payload bytes) of a checkpoint file."""
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[4:12])
        return json.loads(raw[12:12 + hlen]), raw[12 + hlen:]

    def rewrite_header(self, path, edit):
        """Re-serialize a checkpoint's JSON header as ``edit(header)``."""
        header, payload = self.read_header(path)
        blob = json.dumps(edit(header)).encode("utf-8")
        path.write_bytes(b"HRTC" + struct.pack("<Q", len(blob)) + blob
                         + payload)

    def test_header_declares_version_2(self, tmp_path):
        ds, model = tiny_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header, _ = self.read_header(path)
        assert header["version"] == 2
        assert "em_lambda" not in header["model_config"]

    def test_shorter_than_header_length(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"HRTC\0\0\0")
        with pytest.raises(DataFormatError, match="header length"):
            load_checkpoint(path)

    def test_header_length_past_end_of_file(self, tmp_path):
        ds, model = tiny_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<Q", len(raw)) + raw[12:])
        with pytest.raises(DataFormatError, match="header length"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda h: {**h, "version": 1}, "version"),
        (lambda h: {k: v for k, v in h.items() if k != "version"}, "version"),
        (lambda h: {k: v for k, v in h.items() if k != "tensors"}, "tensors"),
        (lambda h: {**h, "tensors": [{"name": "x"}]}, "shape"),
        (lambda h: {**h, "model_config": [1, 2]}, "model_config"),
        (lambda h: {**h, "model_config": {**h["model_config"],
                                          "em_lambda": 1.0}}, "model_config"),
        (lambda h: {**h, "model_config": {**h["model_config"],
                                          "d_cap": "8"}}, "model_config"),
        (lambda h: {k: v for k, v in h.items() if k != "seed"}, "seed"),
        (lambda h: [h], "version"),
    ], ids=["v1", "no-version", "no-tensors", "bad-tensor-entry",
            "model-config-not-object", "model-config-unknown-key",
            "model-config-mistyped", "no-seed", "header-not-object"])
    def test_malformed_header_names_the_field(self, tmp_path, edit, field):
        ds, model = tiny_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        self.rewrite_header(path, edit)
        with pytest.raises(DataFormatError, match=field):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        ds, model = tiny_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[12] = ord("!")  # first header byte, breaks the JSON object
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="header"):
            load_checkpoint(path)
