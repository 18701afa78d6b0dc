import argparse
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from hrt import config_hash, load_checkpoint, save_checkpoint
from hrt.cli import build_parser, main
from hrt.config import DEFAULTS
from hrt.gradcheck import TINY_MODEL, TINY_SPEC

from helpers import WIDE_GRID

ROOT = Path(__file__).resolve().parent.parent

NOT_UTF8 = b"a0,a1\n\xff\xfe,1\n"
# deeper than the JSON decoder's recursion limit
NESTED_JSON = b"[" * 200000 + b"]" * 200000

TINY_CONFIG = {
    "model": {"d_cap": 4, "n_primary": 8, "k_em": 2, "k_td": 2},
    "train": {"epochs": 2, "batch_size": 8, "seed": 0},
    "synthetic": {"c_seen": 3, "c_unseen": 2, "num_attributes": 6,
                  "r_patches": 4, "d_feat": 12, "tau": 8,
                  "samples_per_class": 4, "seed": 0},
}

# TINY_CONFIG trains to the same prediction for every sample, so its outputs
# barely move when training or evaluation changes. This one still trains in
# about half a second, and it learns: gzsl h is above 0 and differs by k_td.
LEARNING_CONFIG = {
    **TINY_CONFIG,
    "train": {"epochs": 20, "batch_size": 8, "seed": 0},
    "synthetic": {**TINY_CONFIG["synthetic"], "samples_per_class": 8},
}

# sha256 of the learning run's outputs (`learning` below); they change when
# the numerics of training or evaluation do
LEARNING_SHA256 = {
    "run/history.csv":
        "5e06c50bd4d9e8074ddd4053e364d8b73f1f9564a89588fe0742a20a61829864",
    "eval/metrics.json":
        "e7a3734a3d58606b95c40b2b8390150e5b48c1db3db8e985edbc5bea5a1d47af",
    "ablation.csv":
        "a41a1c2570b54e8f7b3f9407d248ee2b68ee44566a5c4815d7112f95b9e04025",
}

# sha256 of the dataset files `hrt gen` writes at the default config; they
# change when the synthetic generator's draws or arithmetic do
GEN_SHA256 = {
    0: {"meta.json":
        "0dde280b34b96c6d34186c46ecfcf09299ee749f0cab67567cd5c8f437666100",
        "features.bin":
        "7e3f176f1f1bec6a60ce1ea2689d9ec23962f009f72a914a68c293d9bcbea25c",
        "attributes.csv":
        "f9c788b4a48eb09d0294c0ce9ecbd2a71f4d39b69f4a20d754b2bf9b3722f08b",
        "semantics.csv":
        "55e6411ec832db950fcd49bbb5b4c969302d586c5cfc9b760946a048c6fa1c0c",
        "splits.csv":
        "32c58ee338acb78fe2e61bbfd191de8b72d87691552936708d30434507e713ef"},
    3: {"meta.json":
        "0dde280b34b96c6d34186c46ecfcf09299ee749f0cab67567cd5c8f437666100",
        "features.bin":
        "a5b7bf6ee2d3a0a3c10fde8d47d12d68768482b4132543e8e2f6b9b72615e12b",
        "attributes.csv":
        "a9df7e3b0fbf4db13d8638b4803f22697560337bf31e44accbcefeb722c4021c",
        "semantics.csv":
        "e9045116215b6ad9d66bfede6b03efff0f6ca260c7e7f6de2677e15fb8c9194f",
        "splits.csv":
        "b4dab4f060671be2aa1502972a48145687a8baa34a509eecacae7513b0b08185"},
}


def run_pipeline(root, config: dict, ablate: bool = False):
    """``hrt gen``, ``train`` and ``eval --mode gzsl`` (and, if asked,
    ``ablate``) on ``config``, into ``root``."""
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    common = ["--data", str(root / "data"), "--config", str(cfg)]
    assert main(["gen", "--out", str(root / "data"),
                 "--config", str(cfg)]) == 0
    assert main(["train", *common, "--out", str(root / "run")]) == 0
    assert main(["eval", *common, "--mode", "gzsl", "--out", str(root / "eval"),
                 "--checkpoint", str(root / "run" / "model.ckpt")]) == 0
    if ablate:
        assert main(["ablate", *common,
                     "--out", str(root / "ablation.csv")]) == 0
    return root


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared gen -> train -> eval output for the downstream commands."""
    return run_pipeline(tmp_path_factory.mktemp("cli"), TINY_CONFIG)


@pytest.fixture(scope="module")
def learning(tmp_path_factory):
    """gen -> train -> eval -> ablate on LEARNING_CONFIG."""
    return run_pipeline(tmp_path_factory.mktemp("learning"), LEARNING_CONFIG,
                        ablate=True)


class TestPipeline:
    def test_gen_writes_dataset_files(self, workspace):
        for name in ("meta.json", "features.bin", "attributes.csv",
                     "semantics.csv", "splits.csv", "config.json"):
            assert (workspace / "data" / name).exists()

    def test_train_writes_artifacts(self, workspace):
        assert (workspace / "run" / "model.ckpt").exists()
        history = (workspace / "run" / "history.csv").read_text().splitlines()
        assert history[0].startswith("epoch,")
        assert len(history) == 3  # header + 2 epochs

    def test_config_echoed_with_resolved_defaults(self, workspace):
        echoed = json.loads((workspace / "run" / "config.json").read_text())
        assert echoed["train"]["epochs"] == 2
        assert echoed["loss"]["lambda1"] == 0.1  # default filled in

    def test_eval_writes_metrics(self, workspace, capsys):
        cfg = workspace / "config.json"
        rc = main(["eval", "--checkpoint", str(workspace / "run" / "model.ckpt"),
                   "--data", str(workspace / "data"), "--mode", "gzsl",
                   "--out", str(workspace / "eval"), "--config", str(cfg)])
        assert rc == 0
        metrics = json.loads((workspace / "eval" / "metrics.json").read_text())
        assert metrics["mode"] == "gzsl"
        for key in ("tr", "ts", "h"):
            assert 0.0 <= metrics[key] <= 1.0

    def test_eval_zsl_mode(self, workspace, tmp_path):
        cfg = workspace / "config.json"
        rc = main(["eval", "--checkpoint", str(workspace / "run" / "model.ckpt"),
                   "--data", str(workspace / "data"), "--mode", "zsl",
                   "--out", str(tmp_path), "--config", str(cfg)])
        assert rc == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["t1"] is not None

    def test_report_writes_agreement_csv(self, workspace, tmp_path):
        out = tmp_path / "agreement.csv"
        rc = main(["report", "--checkpoint", str(workspace / "run" / "model.ckpt"),
                   "--data", str(workspace / "data"), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_index,patch_index," + \
            ",".join(f"a{i}" for i in range(6))
        # one row per sample and patch
        assert len(lines) == 1 + 20 * 4

    def test_learning_run_outputs_pinned(self, learning):
        metrics = json.loads((learning / "eval" / "metrics.json").read_text())
        assert metrics["h"] > 0
        for name, digest in LEARNING_SHA256.items():
            assert hashlib.sha256(
                (learning / name).read_bytes()).hexdigest() == digest, name

    @staticmethod
    def training_bytes_at_blas_threads(tmp_path, config):
        """``hrt gen`` once, then ``hrt train``'s history and checkpoint
        bytes with OpenBLAS on 1 and on 2 threads."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        data = tmp_path / "data"
        assert main(["gen", "--out", str(data), "--config", str(cfg)]) == 0
        outputs = []
        for threads in ("1", "2"):
            run = tmp_path / f"run-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "hrt.cli", "train", "--data", str(data),
                 "--out", str(run), "--config", str(cfg)],
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                         OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(run / name).read_bytes()
                            for name in ("history.csv", "model.ckpt")])
        return outputs

    # OpenBLAS splits a product over threads only above a size threshold,
    # so the model is widened until TINY_SPEC's pose projection (R * D_feat
    # * n_primary * d_cap, about a million multiply-adds) is split
    def test_training_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        outputs = self.training_bytes_at_blas_threads(tmp_path, {
            "synthetic": asdict(TINY_SPEC),
            "model": {**TINY_MODEL, "n_primary": 2048},
            "train": {"epochs": 2, "batch_size": 8, "seed": 0}})
        assert outputs[0] == outputs[1]

    # bench/run.py's train_wide_grid recipe, where enc.proj's stacked
    # gradient is one [128, 144] x [144, 2048] product per 4 samples
    def test_wide_grid_training_bytes_do_not_depend_on_blas_threads(
            self, tmp_path):
        outputs = self.training_bytes_at_blas_threads(tmp_path, {
            "synthetic": WIDE_GRID, "model": {"k_em": 1, "k_td": 3},
            "train": {"epochs": 2}})
        assert outputs[0] == outputs[1]

    def test_configured_offset_changes_eval_metrics(self, learning, tmp_path):
        # a seen-class offset this large sends every test sample to a seen
        # class; an offset dropped on the way to hrt eval would leave ts as is
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**LEARNING_CONFIG,
                                   "gamma": {"seen_offset": 50.0}}))
        rc = main(["eval", "--checkpoint", str(learning / "run" / "model.ckpt"),
                   "--data", str(learning / "data"), "--mode", "gzsl",
                   "--out", str(tmp_path / "eval"), "--config", str(cfg)])
        assert rc == 0
        before = json.loads((learning / "eval" / "metrics.json").read_text())
        after = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert before["ts"] > 0 and after["ts"] == 0.0

    def test_train_echoes_seed_option(self, workspace, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "train": {"epochs": 1}}))
        run = tmp_path / "run"
        assert main(["train", "--data", str(workspace / "data"),
                     "--out", str(run), "--config", str(cfg),
                     "--seed", "7"]) == 0
        echoed = json.loads((run / "config.json").read_text())
        assert echoed["train"]["seed"] == 7
        raw = (run / "model.ckpt").read_bytes()
        (hlen,) = struct.unpack("<Q", raw[4:12])
        header = json.loads(raw[12:12 + hlen])
        assert header["seed"] == 7
        assert header["config_hash"] == config_hash(echoed)

    @pytest.mark.parametrize("seed", sorted(GEN_SHA256))
    def test_gen_outputs_pinned(self, tmp_path, seed):
        assert main(["gen", "--out", str(tmp_path), "--seed", str(seed)]) == 0
        for name, digest in GEN_SHA256[seed].items():
            assert hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_gen_echoes_seed_option(self, workspace, tmp_path):
        data = tmp_path / "data"
        assert main(["gen", "--out", str(data),
                     "--config", str(workspace / "config.json"),
                     "--seed", "7"]) == 0
        echoed = json.loads((data / "config.json").read_text())
        assert echoed["synthetic"]["seed"] == 7


class TestExitCodes:
    def test_missing_dataset_is_validation_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_is_validation_error(self, workspace, tmp_path, capsys):
        cfg_dict = dict(TINY_CONFIG)
        cfg_dict["model"] = dict(TINY_CONFIG["model"], pose_mode="quaternion")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_dict))
        rc = main(["train", "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 1
        assert "pose_mode" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"optimiser": {"lr": 0.1}}))
        rc = main(["gen", "--out", str(tmp_path / "d"), "--config", str(cfg)])
        assert rc == 1
        assert "optimiser" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,key", [
        ({"model": {"d_cap": "16"}}, "model.d_cap"),
        ({"optimizer": {"lr": None}}, "optimizer.lr"),
        ({"synthetic": {"c_seen": 2.5}}, "synthetic.c_seen"),
        ({"gamma": {"seen_offset": "x"}}, "gamma.seen_offset"),
        ({"train": {"epochs": True}}, "train.epochs"),
        ({"loss": {"lambda1": True}}, "loss.lambda1"),
        ({"gamma": {"unseen_offset": None}}, "gamma.unseen_offset"),
        ({"loss": {"lambda1": float("nan")}}, "loss.lambda1"),
        ({"optimizer": {"lr": float("inf")}}, "optimizer.lr"),
    ], ids=["string-for-int", "null-for-float", "float-for-int",
            "string-offset", "bool-for-int", "bool-for-float",
            "null-offset", "nan-float", "infinity-float"])
    def test_mistyped_config_value_names_the_key(self, workspace, tmp_path,
                                                 capsys, overrides, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(overrides))
        rc = main(["train", "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("argv,flag", [
        (["--h", "0"], "--h"), (["--h=-1e-5"], "--h"),
        (["--h", "nan"], "--h"), (["--h", "inf"], "--h"),
        (["--tol", "-1"], "--tol"), (["--tol", "nan"], "--tol"),
    ], ids=["zero-h", "negative-h", "nan-h", "inf-h", "negative-tol",
            "nan-tol"])
    def test_bad_gradcheck_step_names_the_flag(self, capsys, argv, flag):
        rc = main(["gradcheck", *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("overrides,key", [
        ({"gamma": {"profile": "cub_sun"}}, "gamma.profile"),
        ({"model": {"layer_norm_eps": 1e-5}}, "model.layer_norm_eps"),
        ({"model": {"compaction": "pca"}}, "model.compaction"),
    ], ids=["gamma-profile", "layer-norm-eps", "compaction"])
    def test_removed_config_key_is_unknown(self, workspace, tmp_path, capsys,
                                           command, overrides, key):
        # the offsets are set directly, the layer-norm epsilon is fixed and
        # the attribute vectors are compacted by PCA
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(overrides))
        checkpoint = ["--checkpoint", str(workspace / "run" / "model.ckpt")]
        rc = main([command, *(checkpoint if command == "eval" else []),
                   "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"unknown config key {key!r}" in err

    @pytest.mark.parametrize("name,content,named", [
        ("meta.json", b"5", "meta.json"),
        ("meta.json", NOT_UTF8, "meta.json"),
        ("attributes.csv", NOT_UTF8, "attributes.csv"),
        ("semantics.csv", NOT_UTF8, "semantics.csv"),
        ("splits.csv", NOT_UTF8, "splits.csv"),
        ("meta.json", {"version": True}, "version"),
        ("meta.json", {"R": True}, "meta.json R"),
        ("config.json", NOT_UTF8, "config.json"),
        ("meta.json", NESTED_JSON, "meta.json"),
        ("config.json", NESTED_JSON, "config.json"),
    ], ids=["meta-not-object", "meta-not-utf8", "attributes-not-utf8",
            "semantics-not-utf8", "splits-not-utf8", "meta-bool-version",
            "meta-bool-R", "config-not-utf8", "meta-nested-json",
            "config-nested-json"])
    def test_malformed_input_file_is_validation_error(
            self, workspace, tmp_path, capsys, name, content, named):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        target = cfg if name == "config.json" else data / name
        if isinstance(content, dict):
            content = json.dumps({**json.loads(target.read_text()),
                                  **content}).encode("utf-8")
        target.write_bytes(content)
        rc = main(["train", "--data", str(data),
                   "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    # each edit rewrites the workspace dataset (20 samples, 5 classes, 6
    # attributes) into one with a single fault, which the message names
    @pytest.mark.parametrize("edit,named", [
        ({"splits.csv": lambda t: t.replace("\n0,0,", "\n20,0,", 1)},
         "splits.csv line 2: sample index 20 out of range"),
        ({"splits.csv": lambda t: t.replace("\n0,0,", "\n0,5,", 1)},
         "splits.csv line 2: class index 5 out of range"),
        ({"splits.csv": lambda t: t.replace("\n0,0,train", "\n0,0,val", 1)},
         "splits.csv line 2: unknown split 'val'"),
        ({"splits.csv": lambda t: t + "0,0,train\n"},
         "splits.csv line 22: sample 0 listed twice"),
        ({"meta.json": lambda t: t.replace('"C": 5', '"C": 1'),
          "attributes.csv": lambda t: "\n".join(t.splitlines()[:2]) + "\n",
          "splits.csv": lambda t: re.sub(r",\d+,", ",0,", t)},
         "class attribute matrix with C >= 2"),
        ({"meta.json": lambda t: t.replace('"A": 6', '"A": 1'),
          "attributes.csv": lambda t: re.sub(r"(?m),.*$", "", t),
          "semantics.csv": lambda t: t.splitlines()[0] + "\n"},
         "compaction needs at least two attribute vectors"),
    ], ids=["sample-out-of-range", "class-out-of-range", "unknown-split",
            "sample-twice", "one-class", "one-attribute"])
    def test_dataset_fault_is_named(self, workspace, tmp_path, capsys, edit,
                                    named):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        for name, change in edit.items():
            text = (data / name).read_text()
            assert change(text) != text, name
            (data / name).write_text(change(text))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                   "--config", str(workspace / "config.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert named in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    # the workspace checkpoint has 5 classes, 6 attributes, d_feat 12, tau 8
    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("synthetic,field,trained,given", [
        ({"c_unseen": 1}, "num_classes", 5, 4),
        ({"c_unseen": 3}, "num_classes", 5, 6),
        ({"num_attributes": 5}, "num_attributes", 6, 5),
        ({"d_feat": 10}, "d_feat", 12, 10),
        ({"tau": 6}, "tau", 8, 6),
    ], ids=["fewer-classes", "more-classes", "attributes", "d_feat", "tau"])
    def test_checkpoint_dataset_mismatch_names_both(
            self, workspace, tmp_path, capsys, command, synthetic, field,
            trained, given):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {**TINY_CONFIG,
             "synthetic": {**TINY_CONFIG["synthetic"], **synthetic}}))
        assert main(["gen", "--out", str(tmp_path / "data"),
                     "--config", str(cfg)]) == 0
        capsys.readouterr()
        out = tmp_path / ("eval" if command == "eval" else "agreement.csv")
        rc = main([command,
                   "--checkpoint", str(workspace / "run" / "model.ckpt"),
                   "--data", str(tmp_path / "data"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"has {field} {trained}," in err and f"has {given}" in err
        written = out / "metrics.json" if command == "eval" else out
        assert not written.exists()

    # a dataset of the checkpoint's dimensions whose attribute vectors or
    # class attribute rows are not the ones the model was trained with
    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("source,array", [
        ("other-seed", "attr_vectors"),
        ("semantics.csv", "attr_vectors"),
        ("attributes.csv", "class_attr"),
    ], ids=["other-seed", "attr_vectors", "class_attr"])
    def test_checkpoint_dataset_semantics_mismatch_names_both(
            self, workspace, tmp_path, capsys, command, source, array):
        data = tmp_path / "data"
        if source == "other-seed":
            assert main(["gen", "--out", str(data), "--seed", "1",
                         "--config", str(workspace / "config.json")]) == 0
        else:
            shutil.copytree(workspace / "data", data)
            lines = (data / source).read_text().splitlines()
            row = 1 if source == "attributes.csv" else 0
            first, rest = lines[row].split(",", 1)
            lines[row] = f"{float(first) + 1.0!r},{rest}"
            (data / source).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        ckpt = workspace / "run" / "model.ckpt"
        out = tmp_path / ("eval" if command == "eval" else "agreement.csv")
        rc = main([command, "--checkpoint", str(ckpt), "--data", str(data),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert array in err and str(ckpt) in err and str(data) in err
        written = out / "metrics.json" if command == "eval" else out
        assert not written.exists()

    @staticmethod
    def eval_edited_checkpoint(workspace, tmp_path, edit):
        """``hrt eval`` on a copy of the workspace checkpoint whose JSON
        header is ``edit(header)``; returns the exit code."""
        raw = (workspace / "run" / "model.ckpt").read_bytes()
        (hlen,) = struct.unpack("<Q", raw[4:12])
        blob = json.dumps(edit(json.loads(raw[12:12 + hlen]))).encode("utf-8")
        ckpt = tmp_path / "edited.ckpt"
        ckpt.write_bytes(raw[:4] + struct.pack("<Q", len(blob)) + blob
                         + raw[12 + hlen:])
        return main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "eval")])

    # version 1 still held the EM beta/gamma parameters, version 2 the EM
    # vote transforms and pose_mode, version 3 the layer-norm epsilon,
    # version 4 r_patches and the dtype/endianness header fields, version 5
    # a list of tensor names and shapes, and version 6 the compaction method
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_eval_rejects_old_checkpoint_version(self, workspace, tmp_path,
                                                 capsys, version):
        rc = self.eval_edited_checkpoint(
            workspace, tmp_path, lambda h: {**h, "version": version})
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and f"version {version}" in err
        assert "Traceback" not in err

    # a current header that still carries the version 6 model config field
    def test_eval_rejects_header_with_compaction(self, workspace, tmp_path,
                                                 capsys):
        rc = self.eval_edited_checkpoint(
            workspace, tmp_path, lambda h: {
                **h, "model_config": {**h["model_config"],
                                      "compaction": "pca"}})
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "'model_config'" in err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    def test_eval_rejects_non_finite_parameter(self, workspace, tmp_path,
                                               capsys):
        model = load_checkpoint(workspace / "run" / "model.ckpt")
        model.params["enc.proj"].data[0, 0] = np.nan
        save_checkpoint(model, tmp_path / "nan.ckpt")
        rc = main(["eval", "--checkpoint", str(tmp_path / "nan.ckpt"),
                   "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "'enc.proj' holds a non-finite value" in err

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("checkpoint", ["missing", "truncated"])
    def test_checkpoint_checked_before_dataset_read(
            self, workspace, tmp_path, capsys, monkeypatch, command,
            checkpoint):
        def no_read(path):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr("hrt.cli.load_features", no_read)
        ckpt = tmp_path / "model.ckpt"
        if checkpoint == "truncated":
            raw = (workspace / "run" / "model.ckpt").read_bytes()
            ckpt.write_bytes(raw[:-8])
        out = tmp_path / ("eval" if command == "eval" else "agreement.csv")
        rc = main([command, "--checkpoint", str(ckpt),
                   "--data", str(workspace / "data"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert (str(ckpt) if checkpoint == "missing" else "truncated") in err

    @pytest.mark.parametrize("kind", ["device", "directory"])
    def test_checkpoint_that_is_not_a_regular_file_is_named(
            self, workspace, tmp_path, capsys, kind):
        ckpt = os.devnull if kind == "device" else str(tmp_path)
        rc = main(["eval", "--checkpoint", ckpt,
                   "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert ckpt in err and "0-byte" not in err

    # in a subprocess with a timeout, as opening a named pipe blocks until
    # a writer (or, to write, a reader) comes: a command that opens one fails
    # here instead of hanging
    @pytest.mark.parametrize("kind", ["checkpoint-fifo", "checkpoint-directory",
                                      "checkpoint-device", "splits-fifo",
                                      "config-fifo", "report-out-fifo",
                                      "ablate-out-fifo"])
    def test_input_that_is_not_a_regular_file_fails_without_opening(
            self, workspace, tmp_path, kind):
        data = workspace / "data"
        checkpoint = str(workspace / "run" / "model.ckpt")
        config = str(workspace / "config.json")
        fifo = str(tmp_path / "named.pipe")
        if kind == "splits-fifo":
            data = tmp_path / "data"
            shutil.copytree(workspace / "data", data)
            (data / "splits.csv").unlink()
            fifo = str(data / "splits.csv")
        path = {"checkpoint-directory": str(tmp_path),
                "checkpoint-device": os.devnull}.get(kind, fifo)
        if path == fifo:
            os.mkfifo(path)
        argv = {
            "splits-fifo": ["train", "--data", str(data), "--config", config,
                            "--out", str(tmp_path / "run")],
            "config-fifo": ["gen", "--config", path,
                            "--out", str(tmp_path / "gen")],
            "report-out-fifo": ["report", "--checkpoint", checkpoint,
                                "--data", str(data), "--out", path],
            "ablate-out-fifo": ["ablate", "--data", str(data),
                                "--config", config, "--out", path],
        }.get(kind, ["eval", "--checkpoint", path, "--data", str(data),
                     "--out", str(tmp_path / "eval")])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from hrt.cli import main; sys.exit(main())", *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert f"{path} is not a regular file" in proc.stderr

    @pytest.mark.parametrize("command,pipe", [
        ("gen", "config.json"), ("gen", "features.bin"),
        ("train", "model.ckpt"), ("train", "history.csv"),
        ("eval", "metrics.json"), ("ablate", "a.config.json")])
    def test_named_pipe_among_outputs_refused_before_work(
            self, workspace, tmp_path, command, pipe):
        # in a subprocess with a timeout, as writing to a named pipe blocks
        # until a reader comes; every step that generates, reads, trains or
        # writes fails with a traceback if it is reached
        out = tmp_path / "out"
        out.mkdir()
        os.mkfifo(out / pipe)
        data = ["--data", str(workspace / "data")]
        config = ["--config", str(workspace / "config.json")]
        argv = {
            "gen": config + ["--out", str(out)],
            "train": config + data + ["--out", str(out)],
            "eval": ["--checkpoint", str(workspace / "run" / "model.ckpt"),
                     *data, "--out", str(out)],
            "ablate": config + data + ["--out", str(out / "a.csv")],
        }[command]
        work = ("generate_synthetic", "save_dataset", "load_features",
                "load_checkpoint", "train_from_config", "save_checkpoint",
                "run_ablation", "evaluate")
        code = ("import sys\nimport hrt.cli as cli\n"
                "def work(*a, **k): raise AssertionError('work was done')\n"
                f"for name in {work!r}: setattr(cli, name, work)\n"
                "sys.exit(cli.main())")
        proc = subprocess.run(
            [sys.executable, "-c", code, command, *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert f"{out / pipe} is not a regular file" in proc.stderr
        assert sorted(p.name for p in out.iterdir()) == [pipe]

    @pytest.mark.parametrize("command,out_name", [
        *(pytest.param(c, "blocker/out", id=c)
          for c in ("eval", "train", "gen", "report", "ablate")),
        *(pytest.param(c, "a_dir", id=f"{c}-directory")
          for c in ("report", "ablate"))])
    def test_uncreatable_out_is_validation_error(self, workspace, tmp_path,
                                                 monkeypatch, capsys,
                                                 command, out_name):
        # the --out location is checked and made before any work: no command
        # may reach the step whose result it would store
        def no_work(*args, **kwargs):
            pytest.fail(f"{command} did work although --out is unusable")

        for name in ("generate_synthetic", "load_checkpoint",
                     "train_from_config", "evaluate", "run_ablation"):
            monkeypatch.setattr(f"hrt.cli.{name}", no_work)
        (tmp_path / "blocker").write_text("")
        (tmp_path / "a_dir").mkdir()
        out = tmp_path / out_name
        data = ["--data", str(workspace / "data")]
        config = ["--config", str(workspace / "config.json")]
        checkpoint = ["--checkpoint", str(workspace / "run" / "model.ckpt")]
        inputs = {
            "eval": checkpoint + data,
            "train": config + data,
            "gen": config,
            "report": checkpoint + data,
            "ablate": config + data,
        }[command]
        rc = main([command, *inputs, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert "Traceback" not in err

    # an empty path names the working directory to os and pathlib
    @pytest.mark.parametrize("command,flags,flag", [
        pytest.param(command, flags, flag, id=f"{command}-{flag}")
        for command, flags in (
            ("gen", ("out", "config")),
            ("train", ("data", "out", "config")),
            ("eval", ("checkpoint", "data", "out", "config")),
            ("gradcheck", ("config",)),
            ("ablate", ("out", "data", "config")),
            ("report", ("checkpoint", "data", "out")))
        for flag in flags])
    def test_empty_path_flag_is_refused_before_work(
            self, tmp_path, monkeypatch, capsys, command, flags, flag):
        def no_work(*args, **kwargs):
            pytest.fail(f"{command} read or wrote a path with --{flag} ''")

        for name in ("load_config", "checkpoint_size", "check_dataset_files",
                     "_make_out", "load_features", "load_checkpoint",
                     "generate_synthetic", "check_model_gradients"):
            monkeypatch.setattr(f"hrt.cli.{name}", no_work)
        monkeypatch.chdir(tmp_path)
        argv = [command]
        for name in flags:
            argv += [f"--{name}", "" if name == flag else f"given/{name}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --{flag} is empty; it needs a path\n"
        assert list(tmp_path.iterdir()) == []

    # one case per rule of SyntheticSpec
    @pytest.mark.parametrize("synthetic,key", [
        ({"tau": 0}, "tau"),
        ({"d_feat": 0}, "d_feat"),
        ({"noise_std": -1.0}, "noise_std"),
        ({"train_fraction": -3.0}, "train_fraction"),
        ({"c_seen": 1}, "c_seen"),
        ({"c_unseen": 0}, "c_unseen"),
        ({"num_attributes": 1}, "num_attributes"),
        ({"r_patches": 0}, "r_patches"),
        ({"samples_per_class": 1}, "samples_per_class"),
        ({"signal_patches_per_attribute": 0}, "signal_patches_per_attribute"),
        ({"d_feat": 8}, "num_attributes"),
        ({"signal_patches_per_attribute": 10}, "signal_patches_per_attribute"),
    ], ids=["tau", "d_feat", "noise_std", "train_fraction", "c_seen",
            "c_unseen", "num_attributes", "r_patches", "samples_per_class",
            "signal_patches", "attributes_above_d_feat",
            "signal_patches_above_r_patches"])
    def test_impossible_synthetic_recipe_names_the_key(
            self, tmp_path, capsys, synthetic, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synthetic": synthetic}))
        rc = main(["gen", "--out", str(tmp_path / "data"),
                   "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key} must be" in err
        # the value at fault is given, and it is the key's own
        value = synthetic.get(key, DEFAULTS["synthetic"][key])
        assert err.rstrip().endswith(f"got {value}")
        assert "Traceback" not in err
        assert not (tmp_path / "data" / "meta.json").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("optimizer", "rho", 2.0),
        ("optimizer", "lr", -1.0),
        ("optimizer", "momentum", -3.0),
        ("loss", "lambda1", -1.0),
        ("model", "k_td", 0),
    ], ids=["rho", "lr", "momentum", "lambda1", "k_td"])
    def test_out_of_range_training_setting_names_the_key(
            self, workspace, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "train": {"epochs": 1},
                                   section: {key: value}}))
        rc = main(["train", "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key} must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("model", "d_cap", 0),
        ("optimizer", "lr", -1.0),
        ("loss", "lambda2", -1.0),
        ("train", "epochs", -1),
        ("train", "batch_size", 0),
        ("train", "seed", -1),
    ], ids=["d_cap", "lr", "lambda2", "epochs", "batch_size", "seed"])
    def test_training_setting_checked_before_dataset_read(
            self, workspace, tmp_path, capsys, monkeypatch, section, key,
            value):
        def no_read(path):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr("hrt.cli.load_features", no_read)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        rc = main(["train", "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    # --seed is applied before the check; ablate without --data generates
    # its dataset, and that too comes after the check
    @pytest.mark.parametrize("command,data", [
        ("train", True), ("ablate", True), ("ablate", False),
    ], ids=["train", "ablate-data", "ablate-synthetic"])
    def test_seed_flag_checked_before_dataset_read(
            self, workspace, tmp_path, capsys, monkeypatch, command, data):
        def no_read(*args):
            raise AssertionError("the dataset was read or generated")

        monkeypatch.setattr("hrt.cli.load_features", no_read)
        monkeypatch.setattr("hrt.cli.generate_synthetic", no_read)
        argv = [command, "--out", str(tmp_path / "out"), "--seed", "-1"]
        if data:
            argv += ["--data", str(workspace / "data")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed -1 is outside" in err

    @pytest.mark.parametrize("section,key,value", [
        ("model", "d_cap", 0),
        ("loss", "lambda1", -1.0),
        ("optimizer", "lr", -1.0),
    ], ids=["d_cap", "lambda1", "lr"])
    def test_ablate_setting_checked_before_dataset_generation(
            self, tmp_path, capsys, monkeypatch, section, key, value):
        calls = []
        monkeypatch.setattr("hrt.cli.generate_synthetic",
                            lambda *args: calls.append(args))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        rc = main(["ablate", "--out", str(tmp_path / "ablation.csv"),
                   "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key} must be" in err
        assert calls == []

    def test_empty_training_split_is_validation_error(self, workspace,
                                                      tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        splits = data / "splits.csv"
        splits.write_text(splits.read_text().replace(",train\n",
                                                     ",test_seen\n"))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                   "--config", str(workspace / "config.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "training split is empty" in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    # one step at this rate sends the parameters past float64's range, so
    # the next forward overflows; the test suite turns numpy's overflow
    # warnings into errors, so none may be raised on the way
    def test_numeric_failure_exits_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "optimizer": {"lr": 1e300}}))
        rc = main(["train", "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "Traceback" not in err
        assert "non-finite value produced by einsum" in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    # run as a subprocess under Python's default warning filters, so a numpy
    # RuntimeWarning on the way would be printed to stderr before the failure
    @pytest.mark.parametrize("section,key", [("optimizer", "lr"),
                                             ("loss", "lambda1")])
    def test_overflowing_setting_prints_one_numeric_failure_line(
            self, workspace, tmp_path, section, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, section: {key: 1e308}}))
        proc = subprocess.run(
            [sys.executable, "-m", "hrt.cli", "train",
             "--data", str(workspace / "data"), "--out", str(tmp_path / "run"),
             "--config", str(cfg)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure:")
        assert not (tmp_path / "run" / "model.ckpt").exists()

    # a noise this wide draws infinities, which the loader would refuse
    def test_overflowing_noise_refused_before_any_file(self, tmp_path,
                                                       capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synthetic": {"noise_std": 1e308}}))
        rc = main(["gen", "--out", str(tmp_path / "data"),
                   "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "synthetic.noise_std" in err
        assert list((tmp_path / "data").iterdir()) == []

    # sizes this large are refused by numpy before any memory is touched,
    # with a MemoryError up to its size limit and a ValueError past it; the
    # generator allocates its features before drawing the first sample
    @pytest.mark.parametrize("command,section,overrides,numpy_says", [
        ("gen", "synthetic", {"d_feat": 10 ** 12}, "Unable to allocate"),
        ("gen", "synthetic", {"samples_per_class": 10 ** 12},
         "Unable to allocate"),
        ("train", "model", {"n_primary": 10 ** 12}, "Unable to allocate"),
        ("gen", "synthetic", {"r_patches": 10 ** 18,
                              "signal_patches_per_attribute": 1},
         "array is too big"),
        ("train", "model", {"n_primary": 10 ** 18}, "array is too big"),
    ], ids=["gen-d_feat", "gen-samples_per_class", "train-n_primary",
            "gen-r_patches-past-limit", "train-n_primary-past-limit"])
    def test_unallocatable_size_is_validation_error(
            self, workspace, tmp_path, capsys, command, section, overrides,
            numpy_says):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {**TINY_CONFIG, section: {**TINY_CONFIG[section], **overrides}}))
        data = ["--data", str(workspace / "data")] if command == "train" else []
        rc = main([command, *data, "--out", str(tmp_path / "out"),
                   "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and numpy_says in err
        assert f"{section}.{next(iter(overrides))}" in err
        assert "Traceback" not in err

    # PCG64 seeds are in [0, 2**64); one outside would alias another
    @pytest.mark.parametrize("seed", [2**64, -1], ids=["2**64", "negative"])
    @pytest.mark.parametrize("command,given,written", [
        ("gen", "flag", "out/features.bin"),
        ("gen", "synthetic", "out/features.bin"),
        ("train", "flag", "out/model.ckpt"),
        ("train", "train", "out/model.ckpt"),
        ("ablate", "flag", "out.csv"),
        ("ablate", "synthetic", "out.csv"),
        ("gradcheck", "flag", None),
    ], ids=["gen-flag", "gen-config", "train-flag", "train-config",
            "ablate-flag", "ablate-config", "gradcheck-flag"])
    def test_seed_outside_range_is_validation_error(
            self, workspace, tmp_path, capsys, seed, command, given, written):
        cfg = tmp_path / "config.json"
        config = json.loads(json.dumps(TINY_CONFIG))
        if given != "flag":
            config[given]["seed"] = seed
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg)]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / ("out.csv" if command == "ablate"
                                              else "out"))]
        if command == "train" or (command, given) == ("ablate", "flag"):
            argv += ["--data", str(workspace / "data")]
        if given == "flag":
            argv += ["--seed", str(seed)]
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"seed {seed} is outside" in err
        assert written is None or not (tmp_path / written).exists()

    # a refused setting, or a missing input (the nowhere paths do not
    # exist), which the error names
    @pytest.mark.parametrize("argv,config,out,missing", [
        (["gen", "--seed", "-1"], {}, "x", None),
        (["gen"], {"synthetic": {"c_seen": 1}}, "x", None),
        (["train", "--seed", "-1"], {}, "t", None),
        (["ablate", "--seed", "-1"], {}, "a/x.csv", None),
        (["train", "--data", "nowhere"], {}, "t", "missing dataset file"),
        (["ablate", "--data", "nowhere"], {}, "a/x.csv",
         "missing dataset file"),
        (["eval", "--checkpoint", "nowhere.ckpt"], {}, "e",
         "missing checkpoint"),
        (["report", "--checkpoint", "nowhere.ckpt"], None, "r/x.csv",
         "missing checkpoint"),
        (["eval", "--data", "nowhere"], {}, "e", "missing dataset file"),
        (["report", "--data", "nowhere"], None, "r/x.csv",
         "missing dataset file"),
    ], ids=["gen-seed", "gen-recipe", "train-seed", "ablate-seed",
            "train-data", "ablate-data", "eval-checkpoint",
            "report-checkpoint", "eval-data", "report-data"])
    def test_refused_command_creates_no_out_directory(
            self, workspace, tmp_path, capsys, argv, config, out, missing):
        argv = [str(tmp_path / a) if a.startswith("nowhere") else a
                for a in argv]
        if config is not None:  # report takes no --config
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        # every input a case does not name exists
        if argv[0] in ("train", "eval", "report") and "--data" not in argv:
            argv += ["--data", str(workspace / "data")]
        if argv[0] in ("eval", "report") and "--checkpoint" not in argv:
            argv += ["--checkpoint", str(workspace / "run" / "model.ckpt")]
        argv += ["--out", str(tmp_path / out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        if missing is not None:
            assert f"{missing} {tmp_path / 'nowhere'}" in err
        # the directory --out names, or for a file its parent
        home = Path(out).parts[0]
        assert not (tmp_path / home).exists()

    def test_gradcheck_passes_on_tiny_model(self, tmp_path, capsys):
        # keep this quick: a coarse tolerance still exercises the full path
        assert main(["gradcheck", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestAblate:
    def test_ablate_writes_rows(self, learning):
        lines = (learning / "ablation.csv").read_text().splitlines()
        assert lines[0] == "axis,value,tr,ts,h"
        assert [line.split(",")[:2] for line in lines[1:]] == \
            [["k_td", str(value)] for value in range(1, 6)]

    def test_ablate_row_reproduces_train_at_configured_seed(self, tmp_path):
        # train.seed both initialises the model and orders the training data,
        # in hrt ablate as in hrt train
        config = {**LEARNING_CONFIG,
                  "train": {**LEARNING_CONFIG["train"], "seed": 5}}
        root = run_pipeline(tmp_path, config, ablate=True)
        metrics = json.loads((root / "eval" / "metrics.json").read_text())
        k_td = config["model"]["k_td"]
        row = (f"k_td,{k_td},{metrics['tr']!r},{metrics['ts']!r},"
               f"{metrics['h']!r}")
        assert row in (root / "ablation.csv").read_text().splitlines()

    def test_ablate_leaves_training_config_echo(self, workspace, tmp_path):
        run = tmp_path / "run"
        cfg_dict = json.loads((workspace / "config.json").read_text())
        cfg_dict["train"]["epochs"] = 1
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_dict))
        assert main(["train", "--data", str(workspace / "data"),
                     "--out", str(run), "--config", str(cfg)]) == 0
        echoed = (run / "config.json").read_bytes()
        rc = main(["ablate", "--data", str(workspace / "data"),
                   "--out", str(run / "ablation.csv"),
                   "--config", str(workspace / "config.json")])
        assert rc == 0
        assert (run / "config.json").read_bytes() == echoed
        ablation_echo = json.loads((run / "ablation.config.json").read_text())
        assert ablation_echo["train"]["epochs"] == 2

    def test_k_em_axis_rejected_before_training(self, workspace, tmp_path,
                                                capsys):
        # hrt ablate sweeps k_td only; k_em changes nothing, so it cannot be
        # asked for
        out = tmp_path / "ablation.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--axis", "k_em", "--data",
                  str(workspace / "data"), "--out", str(out),
                  "--config", str(workspace / "config.json")])
        assert exc.value.code == 2
        assert "k_em" in capsys.readouterr().err
        assert not out.exists()


def test_readme_synopsis_matches_parser():
    # the README's CLI synopsis lists every subcommand and flag, with the
    # optional ones in brackets
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    documented = {}
    for line in block.split("```", 1)[0].splitlines():
        _, command, usage = line.split(maxsplit=2)
        optional = set(re.findall(r"\[(--[\w-]+)", usage))
        required = set(re.findall(r"--[\w-]+",
                                  re.sub(r"\[[^]]*\]", "", usage)))
        documented[command] = required, optional
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parsed = {}
    for command, parser in subparsers.choices.items():
        flags = [a for a in parser._actions
                 if a.option_strings and a.dest != "help"]
        parsed[command] = ({a.option_strings[0] for a in flags if a.required},
                           {a.option_strings[0] for a in flags
                            if not a.required})
    assert documented == parsed
