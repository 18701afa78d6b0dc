import json
import shutil
import struct

import pytest

from hrt.cli import main

NOT_UTF8 = b"a0,a1\n\xff\xfe,1\n"

TINY_CONFIG = {
    "model": {"d_cap": 4, "n_primary": 8, "k_em": 2, "k_td": 2,
              "compaction": "pca"},
    "train": {"epochs": 2, "batch_size": 8, "seed": 0},
    "synthetic": {"c_seen": 3, "c_unseen": 2, "num_attributes": 6,
                  "r_patches": 4, "d_feat": 12, "tau": 8,
                  "samples_per_class": 4, "seed": 0},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared gen -> train pipeline output for the downstream commands."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    assert main(["gen", "--out", str(root / "data"),
                 "--config", str(cfg)]) == 0
    assert main(["train", "--data", str(root / "data"),
                 "--out", str(root / "run"), "--config", str(cfg)]) == 0
    return root


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
        ({"gamma": {"profile": None, "seen_offset": "x",
                    "unseen_offset": 1.0}}, "gamma.seen_offset"),
        ({"train": {"epochs": True}}, "train.epochs"),
        ({"loss": {"lambda1": True}}, "loss.lambda1"),
        ({"gamma": {"profile": 3}}, "gamma.profile"),
    ], ids=["string-for-int", "null-for-float", "float-for-int",
            "string-offset", "bool-for-int", "bool-for-float",
            "number-profile"])
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

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("key", ["seen_offset", "unseen_offset"])
    def test_offset_beside_gamma_profile_names_both(self, workspace, tmp_path,
                                                    capsys, command, key):
        # the cub_sun profile picks the offsets; an explicit one would be
        # dropped without a word
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "gamma": {key: 50.0}}))
        checkpoint = ["--checkpoint", str(workspace / "run" / "model.ckpt")]
        rc = main([command, *(checkpoint if command == "eval" else []),
                   "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"gamma.{key}" in err
        assert "set gamma.profile to null" in err

    @pytest.mark.parametrize("name,content,named", [
        ("meta.json", b"5", "meta.json"),
        ("meta.json", NOT_UTF8, "meta.json"),
        ("attributes.csv", NOT_UTF8, "attributes.csv"),
        ("semantics.csv", NOT_UTF8, "semantics.csv"),
        ("splits.csv", NOT_UTF8, "splits.csv"),
        ("meta.json", {"version": True}, "version"),
        ("meta.json", {"R": True}, "meta.json R"),
        ("config.json", NOT_UTF8, "config.json"),
    ], ids=["meta-not-object", "meta-not-utf8", "attributes-not-utf8",
            "semantics-not-utf8", "splits-not-utf8", "meta-bool-version",
            "meta-bool-R", "config-not-utf8"])
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
    def eval_with_version(workspace, tmp_path, capsys, version):
        """Exit code and stderr of ``hrt eval`` on the workspace checkpoint
        with its header version rewritten to ``version``."""
        raw = (workspace / "run" / "model.ckpt").read_bytes()
        (hlen,) = struct.unpack("<Q", raw[4:12])
        header = json.loads(raw[12:12 + hlen])
        header["version"] = version
        blob = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / f"v{version}.ckpt"
        ckpt.write_bytes(raw[:4] + struct.pack("<Q", len(blob)) + blob
                         + raw[12 + hlen:])
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "eval")])
        return rc, capsys.readouterr().err

    def test_eval_rejects_version_1_checkpoint(self, workspace, tmp_path,
                                               capsys):
        rc, err = self.eval_with_version(workspace, tmp_path, capsys, 1)
        assert rc == 1
        assert "error:" in err and "version 1" in err
        assert "Traceback" not in err

    def test_eval_rejects_version_2_checkpoint(self, workspace, tmp_path,
                                               capsys):
        # version 2 still carried the EM vote transforms and pose_mode
        rc, err = self.eval_with_version(workspace, tmp_path, capsys, 2)
        assert rc == 1
        assert "error:" in err and "version 2" in err
        assert "Traceback" not in err

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
            "ablate": ["--axis", "k_td"] + config + data,
        }[command]
        rc = main([command, *inputs, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert "Traceback" not in err

    def test_gradcheck_passes_on_tiny_model(self, tmp_path, capsys):
        # keep this quick: a coarse tolerance still exercises the full path
        assert main(["gradcheck", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestAblate:
    def test_ablate_writes_rows(self, workspace, tmp_path):
        cfg_dict = json.loads((workspace / "config.json").read_text())
        cfg_dict["train"]["epochs"] = 1
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_dict))
        out = tmp_path / "ablation.csv"
        rc = main(["ablate", "--axis", "k_td", "--data", str(workspace / "data"),
                   "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "axis,value,tr,ts,h"
        assert len(lines) == 6
        assert all(line.startswith("k_td,") for line in lines[1:])

    def test_ablate_leaves_training_config_echo(self, workspace, tmp_path):
        run = tmp_path / "run"
        cfg_dict = json.loads((workspace / "config.json").read_text())
        cfg_dict["train"]["epochs"] = 1
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_dict))
        assert main(["train", "--data", str(workspace / "data"),
                     "--out", str(run), "--config", str(cfg)]) == 0
        echoed = (run / "config.json").read_bytes()
        rc = main(["ablate", "--axis", "k_td", "--data", str(workspace / "data"),
                   "--out", str(run / "ablation.csv"),
                   "--config", str(workspace / "config.json")])
        assert rc == 0
        assert (run / "config.json").read_bytes() == echoed
        ablation_echo = json.loads((run / "ablation.config.json").read_text())
        assert ablation_echo["train"]["epochs"] == 2

    def test_k_em_axis_rejected_before_training(self, workspace, tmp_path,
                                                capsys):
        out = tmp_path / "ablation.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--axis", "k_em", "--data",
                  str(workspace / "data"), "--out", str(out),
                  "--config", str(workspace / "config.json")])
        assert exc.value.code == 2
        assert "k_em" in capsys.readouterr().err
        assert not out.exists()
