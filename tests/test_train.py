import hashlib
import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrt import (ConfigError, DataFormatError, DimensionError, HrtModel,
                 LossConfig, ModelConfig, OptimizerConfig, SyntheticSpec,
                 Tensor, config_hash, gamma_profile,
                 generate_synthetic, load_checkpoint, no_grad,
                 save_checkpoint, total_loss, train, write_history)
from hrt.config import (dataset_dims, load_config, loss_config_for,
                        model_config_for, synthetic_spec_for)
from hrt.gradcheck import tiny_problem
from hrt.model import array_layout
from hrt.rng import SeededRng
from hrt.train import HISTORY_HEADER
from helpers import WIDE_GRID, peak_traced_bytes

# sha256 of a 2-epoch run at the default config, seed 0: the history rows
# joined by newlines, and the parameters' bytes in name order
DEFAULT_RUN_SHA256 = {
    "history":
        "bbdd58850b325a73335d8866fc71b0de43be8923754f58c4901fdf24a14179b8",
    "params":
        "a3e6637eefadcda598d1d826c216ea712d6bd52713426846f5f48fbc5b4be42d",
}


def poke(header, payload, name, value):
    """Write ``value`` over the first element of checkpoint array ``name``
    in ``payload``; return ``header`` unchanged."""
    offset = 0
    for entry, shape in array_layout(
            ModelConfig(**header["model_config"])).items():
        if entry == name:
            payload[offset:offset + 8] = struct.pack("<d", value)
            return header
        offset += 8 * math.prod(shape)
    raise KeyError(name)


def model_config(**changes):
    """A header edit that sets fields of the model config."""
    return lambda h, _: {**h, "model_config": {**h["model_config"],
                                              **changes}}


class TestTrain:
    def test_zero_epochs_is_noop(self):
        ds, model = tiny_problem(0)
        before = {n: p.data.copy() for n, p in model.params.items()}
        history = train(ds, model, LossConfig(), OptimizerConfig(), epochs=0)
        assert history == []
        for n, p in model.params.items():
            assert np.array_equal(p.data, before[n])

    def test_loss_drops_when_memorizing_train_split(self):
        ds, model = tiny_problem(4)
        history = train(ds, model, LossConfig(lambda1=0.0, lambda2=0.0),
                        OptimizerConfig(), epochs=60, batch_size=1)
        assert history[-1].total < 0.1
        assert history[-1].train_acc == 1.0
        assert history[-1].total < history[0].total

    def test_fixed_seed_reproduces_history_bitwise(self, tmp_path):
        rows = []
        for run in range(2):
            ds, model = tiny_problem(2)
            history = train(ds, model, LossConfig(), OptimizerConfig(),
                            epochs=3, seed=9)
            path = tmp_path / f"history_{run}.csv"
            write_history(history, path)
            rows.append(path.read_bytes())
        assert rows[0] == rows[1]

    def test_one_batch_epoch_history_is_mean_of_total_loss(self):
        ds, model = tiny_problem(3)
        loss_config = LossConfig(gamma_per_class=gamma_profile(
            7, ds.seen_classes, ds.unseen_classes))
        train_idx = ds.splits["train"]
        parts = [total_loss(model, ds.features[i], int(ds.labels[i]),
                            loss_config)[1] for i in train_idx]
        # one batch holds the whole split, so every sample sees the
        # initial parameters
        history = train(ds, model, loss_config, OptimizerConfig(), epochs=1,
                        batch_size=train_idx.size)
        for key in ("ce", "cal", "reg", "total"):
            assert getattr(history[0], key) == pytest.approx(
                np.mean([p[key] for p in parts]), abs=1e-12)

    def test_history_csv_layout(self, tmp_path):
        ds, model = tiny_problem(0)
        history = train(ds, model, LossConfig(), OptimizerConfig(), epochs=2)
        write_history(history, tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == HISTORY_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert all(np.isfinite(float(v)) for v in first[1:])

    def test_default_config_run_pinned(self):
        # two epochs at the default config (d_cap 16, n_primary 128): the
        # history rows and every parameter's bytes must not move when
        # backward or the optimizer is reworked
        config = load_config()
        ds = generate_synthetic(*synthetic_spec_for(config))
        model = HrtModel.build(model_config_for(config, ds),
                               ds.semantics.attr_vectors,
                               ds.semantics.class_attr,
                               seed=config["train"]["seed"])
        history = train(ds, model, loss_config_for(config, ds),
                        OptimizerConfig(**config["optimizer"]), epochs=2,
                        seed=config["train"]["seed"],
                        batch_size=config["train"]["batch_size"])
        rows = "\n".join(h.csv_row() for h in history).encode("utf-8")
        params = b"".join(model.params[n].data.tobytes()
                          for n in sorted(model.params))
        assert len(model.params) == 5
        assert hashlib.sha256(rows).hexdigest() == DEFAULT_RUN_SHA256["history"]
        assert hashlib.sha256(params).hexdigest() == \
            DEFAULT_RUN_SHA256["params"]

    def test_a_training_sample_builds_one_tensor_from_an_array(self,
                                                               monkeypatch):
        # each sample wraps its patch grid and nothing else: the regression
        # target enters its loss node as an array
        ds, model = tiny_problem(0)
        constructed = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        train(ds, model, LossConfig(), OptimizerConfig(), epochs=1)
        assert len(constructed) == ds.splits["train"].size


class TestConfigHash:
    def test_insensitive_to_key_order(self):
        assert config_hash({"a": 1, "b": {"c": 2, "d": 3}}) == \
            config_hash({"b": {"d": 3, "c": 2}, "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestCheckpoint:
    def test_roundtrip_preserves_params_and_outputs(self, tmp_path):
        ds, model = tiny_problem(6)
        train(ds, model, LossConfig(), OptimizerConfig(), epochs=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, experiment_config={"train": {"epochs": 1}})
        loaded = load_checkpoint(path)
        semantic = ("attr_vectors", "compact_vectors", "class_attr")
        arrays = [p.data for p in loaded.params.values()] + [
            getattr(loaded.semantics, name) for name in semantic]
        for name, p in model.params.items():
            data = loaded.params[name].data
            assert data.tobytes() == p.data.tobytes()
            # the optimizer updates a loaded model's parameters in place, so
            # each must be a writeable float64 array of its own
            assert data.dtype == np.float64 and data.flags.writeable
            assert not any(np.shares_memory(data, other)
                           for other in arrays if other is not data)
        for name in semantic:
            assert getattr(loaded.semantics, name).tobytes() == \
                getattr(model.semantics, name).tobytes()
        x = ds.features[0]
        with no_grad():
            a = model.forward(x).scores.data
            b = loaded.forward(x).scores.data
        assert np.array_equal(a, b)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        # a loaded model is built from the stored arrays, with no throw-away
        # initialisation
        ds, model = tiny_problem(0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        for name in ("normal", "uniform", "integers", "permutation", "choice"):
            monkeypatch.setattr(SeededRng, name, no_draw)
        loaded = load_checkpoint(path)
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        ds, model = tiny_problem(0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        ds, model = tiny_problem(0)
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
        """Re-serialize a checkpoint's JSON header as ``edit(header,
        payload)``, or as the bytes it returns; the edit may also write into
        ``payload``, a bytearray."""
        header, payload = self.read_header(path)
        payload = bytearray(payload)
        blob = edit(header, payload)
        if not isinstance(blob, bytes):
            blob = json.dumps(blob).encode("utf-8")
        path.write_bytes(b"HRTC" + struct.pack("<Q", len(blob)) + blob
                         + payload)

    def test_header_declares_version_7(self, tmp_path):
        ds, model = tiny_problem(0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header, _ = self.read_header(path)
        assert header["version"] == 7
        assert header.keys() == {"version", "seed", "model_config",
                                 "config_hash"}
        assert header["model_config"].keys() == {
            f.name for f in fields(ModelConfig)}
        assert "r_patches" not in header["model_config"]
        assert "em_lambda" not in header["model_config"]
        assert "pose_mode" not in header["model_config"]
        assert "layer_norm_eps" not in header["model_config"]
        assert "compaction" not in header["model_config"]

    def test_payload_is_the_layout(self, tmp_path):
        # the model config fixes the payload: nothing else is stored
        ds, model = tiny_problem(0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[4:12])
        layout = array_layout(model.config)
        assert len(raw) == 12 + hlen + 8 * sum(
            math.prod(shape) for shape in layout.values())

    @pytest.mark.parametrize("name", ["attr_vectors", "compact_vectors"])
    def test_save_rejects_misshapen_semantic_array(self, tmp_path, name):
        # the array keeps only its first column: shape [A] instead of [A, k]
        ds, model = tiny_problem(0)
        setattr(model.semantics, name, getattr(model.semantics, name)[:, 0])
        path = tmp_path / "model.ckpt"
        with pytest.raises(DimensionError, match=f"'sem.{name}' has shape"):
            save_checkpoint(model, path)
        assert not path.exists()

    def test_shorter_than_header_length(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"HRTC\0\0\0")
        with pytest.raises(DataFormatError, match="header length"):
            load_checkpoint(path)

    def test_header_length_past_end_of_file(self, tmp_path):
        ds, model = tiny_problem(0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<Q", len(raw)) + raw[12:])
        with pytest.raises(DataFormatError, match="header length"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda h, _: {**h, "version": 1}, "version"),
        (lambda h, _: {k: v for k, v in h.items() if k != "version"},
         "version"),
        (lambda h, _: {**h, "model_config": [1, 2]}, "model_config"),
        (lambda h, _: {**h, "model_config": {**h["model_config"],
                                             "em_lambda": 1.0}},
         "model_config"),
        (lambda h, _: {**h, "model_config": {**h["model_config"],
                                             "d_cap": "8"}}, "model_config"),
        (lambda h, _: {k: v for k, v in h.items() if k != "seed"}, "seed"),
        (lambda h, _: [h], "version"),
        # true is not the version 1: the error names the field itself
        (lambda h, _: {**h, "version": True}, "field 'version'"),
        (lambda h, _: {**h, "seed": True}, "seed"),
        (lambda h, _: {**h, "seed": 2**64},
         "field 'seed' is 18446744073709551616"),
        (lambda h, _: {**h, "seed": -1}, "field 'seed' is -1"),
        (lambda h, p: poke(h, p, "enc.proj", np.nan),
         "'enc.proj' holds a non-finite value"),
        (lambda h, p: poke(h, p, "sem.compact_vectors", np.inf),
         "'sem.compact_vectors' holds a non-finite value"),
        # a config whose arrays the file cannot hold names the first of
        # them, before anything of that size is allocated
        (model_config(n_primary=10**12), "truncated in array 'enc.act_proj'"),
        (model_config(d_feat=10**12), "truncated in array 'dec.w_beta'"),
        (model_config(tau=10**12), "truncated in array 'sem.attr_vectors'"),
        (model_config(n_primary=4), "trailing"),
        (model_config(n_primary=-8), "n_primary must be >= 1"),
        (lambda h, _: b"[" * 200000 + b"]" * 200000, "corrupt header"),
        # the header holds exactly its four fields, the hash as
        # config_hash writes it
        (lambda h, _: {k: v for k, v in h.items() if k != "config_hash"},
         "field 'config_hash' is missing"),
        (lambda h, _: {**h, "config_hash": 12},
         "field 'config_hash' is missing or not of type str"),
        (lambda h, _: {**h, "config_hash": "g" * 64},
         "field 'config_hash' is not 64 lowercase hex digits"),
        (lambda h, _: {**h, "compaction": "pca"},
         "unknown checkpoint header field 'compaction'"),
    ], ids=["v1", "no-version", "model-config-not-object",
            "model-config-unknown-key", "model-config-mistyped", "no-seed",
            "header-not-object", "bool-version", "bool-seed", "seed-2**64",
            "negative-seed", "nan-param", "inf-semantics", "huge-n_primary",
            "huge-d_feat", "huge-tau", "smaller-n_primary",
            "negative-n_primary", "nested-json", "no-config-hash",
            "int-config-hash", "non-hex-config-hash", "unknown-field"])
    def test_malformed_header_names_the_field(self, tmp_path, edit, field):
        ds, model = tiny_problem(0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        self.rewrite_header(path, edit)
        with pytest.raises(DataFormatError, match=field):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        ds, model = tiny_problem(0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[12] = ord("!")  # first header byte, breaks the JSON object
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="header"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """(bytes of a valid TINY_MODEL checkpoint, its header length, a path
    to write mutated copies to)."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(tiny_problem(0)[1], path)
    raw = path.read_bytes()
    return raw, struct.unpack("<Q", raw[4:12])[0], path


class TestCheckpointFuzz:
    """Whatever a checkpoint file holds, loading it returns a model or
    raises one of the errors ``hrt`` reports with exit 1."""

    ALLOWED = (DataFormatError, ConfigError, DimensionError)

    def load(self, tiny_checkpoint, blob):
        path = tiny_checkpoint[2]
        path.write_bytes(blob)
        try:
            assert isinstance(load_checkpoint(path), HrtModel)
        except self.ALLOWED:
            pass

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated(self, tiny_checkpoint, data):
        raw = tiny_checkpoint[0]
        end = data.draw(st.integers(0, len(raw) - 1))
        self.load(tiny_checkpoint, raw[:end])

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_extended(self, tiny_checkpoint, extra):
        self.load(tiny_checkpoint, tiny_checkpoint[0] + extra)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_flipped(self, tiny_checkpoint, data):
        # half of the flips land in the magic, length and JSON header, which
        # are a small part of the file
        raw, hlen, _ = tiny_checkpoint
        header_end = 12 + hlen
        position = st.one_of(st.integers(0, header_end - 1),
                             st.integers(0, len(raw) - 1))
        flips = data.draw(st.lists(st.tuples(position, st.integers(1, 255)),
                                   min_size=1, max_size=4))
        blob = bytearray(raw)
        for i, mask in flips:
            blob[i] ^= mask
        self.load(tiny_checkpoint, bytes(blob))


class TestCheckpointMemory:
    """A load holds one copy of the payload and a save none: the high-water
    mark of each, over the payload's size, at the default model shape and
    at the train_wide_grid workload's."""

    @pytest.fixture(scope="class", params=["default", "wide_grid"])
    def model(self, request):
        recipe, overlay = {"default": ({}, {}),
                           "wide_grid": (WIDE_GRID, {"k_em": 1, "k_td": 3})
                           }[request.param]
        ds = generate_synthetic(SyntheticSpec(**recipe), seed=0)
        return HrtModel.build(ModelConfig(**dataset_dims(ds), **overlay),
                              ds.semantics.attr_vectors,
                              ds.semantics.class_attr, seed=0)

    @staticmethod
    def payload_bytes(model):
        return 8 * sum(math.prod(shape)
                       for shape in array_layout(model.config).values())

    def test_save(self, model, tmp_path):
        peak = peak_traced_bytes(save_checkpoint, model, tmp_path / "m.ckpt")
        assert peak <= 0.05 * self.payload_bytes(model)

    def test_load(self, model, tmp_path):
        save_checkpoint(model, tmp_path / "m.ckpt")
        peak = peak_traced_bytes(load_checkpoint, tmp_path / "m.ckpt")
        assert peak <= 1.05 * self.payload_bytes(model)
