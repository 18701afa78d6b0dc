import hashlib
import json
import shutil
import struct

import numpy as np
import pytest

from hrt import config_hash, load_checkpoint, save_checkpoint
from hrt.cli import main

NOT_UTF8 = b"a0,a1\n\xff\xfe,1\n"
# deeper than the JSON decoder's recursion limit
NESTED_JSON = b"[" * 200000 + b"]" * 200000

TINY_CONFIG = {
    "model": {"d_cap": 4, "n_primary": 8, "k_em": 2, "k_td": 2,
              "compaction": "pca"},
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
        "cad2be8696b6ad0a58a81c8f4f292152a29aecf86b53fcd9503e7c2d4072a61a",
    "eval/metrics.json":
        "104b57f53d35d3d9288c687114bf90506fff105096ac7f6644f8058a2afb61fb",
    "ablation.csv":
        "4ec9d4b65c191de26788d7cf9967e6f7a11a6aea16dcf2d8695e3b0de455360c",
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
    ], ids=["gamma-profile", "layer-norm-eps"])
    def test_removed_config_key_is_unknown(self, workspace, tmp_path, capsys,
                                           command, overrides, key):
        # the offsets are set directly, and the layer-norm epsilon is fixed
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
    # version 4 r_patches and the dtype/endianness header fields, and
    # version 5 a list of tensor names and shapes
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_eval_rejects_old_checkpoint_version(self, workspace, tmp_path,
                                                 capsys, version):
        rc = self.eval_edited_checkpoint(
            workspace, tmp_path, lambda h: {**h, "version": version})
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and f"version {version}" in err
        assert "Traceback" not in err

    def test_eval_rejects_unknown_compaction(self, workspace, tmp_path,
                                             capsys):
        rc = self.eval_edited_checkpoint(
            workspace, tmp_path, lambda h: {
                **h, "model_config": {**h["model_config"],
                                      "compaction": "bogus"}})
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "compaction must be one of" in err and "'bogus'" in err
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

        for name in ("generate_synthetic", "load_checkpoint", "train",
                     "evaluate", "run_ablation"):
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

    @pytest.mark.parametrize("synthetic,key", [
        ({"tau": 0}, "tau"),
        ({"d_feat": 0}, "d_feat"),
        ({"noise_std": -1.0}, "noise_std"),
        ({"train_fraction": -3.0}, "train_fraction"),
    ], ids=["tau", "d_feat", "noise_std", "train_fraction"])
    def test_impossible_synthetic_recipe_names_the_key(
            self, tmp_path, capsys, synthetic, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synthetic": synthetic}))
        rc = main(["gen", "--out", str(tmp_path / "data"),
                   "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key} must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "data" / "meta.json").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("optimizer", "rho", 2.0),
        ("optimizer", "lr", -1.0),
        ("optimizer", "momentum", -3.0),
        ("loss", "lambda1", -1.0),
        ("model", "compaction", "bogus"),
    ], ids=["rho", "lr", "momentum", "lambda1", "compaction"])
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

    # sizes this large are refused by numpy before any memory is touched;
    # the generator allocates its features before drawing the first sample
    @pytest.mark.parametrize("command,section,key", [
        ("gen", "synthetic", "d_feat"),
        ("gen", "synthetic", "samples_per_class"),
        ("train", "model", "n_primary"),
    ], ids=["gen-d_feat", "gen-samples_per_class", "train-n_primary"])
    def test_unallocatable_size_is_validation_error(
            self, workspace, tmp_path, capsys, command, section, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {**TINY_CONFIG, section: {**TINY_CONFIG[section], key: 10 ** 12}}))
        data = ["--data", str(workspace / "data")] if command == "train" else []
        rc = main([command, *data, "--out", str(tmp_path / "out"),
                   "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Unable to allocate" in err
        assert f"{section}.{key}" in err
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
