import json
import struct

import pytest

from hrt.cli import main

TINY_CONFIG = {
    "model": {"d_cap": 4, "n_primary": 8, "k_em": 2, "k_td": 2,
              "pose_mode": "vector", "compaction": "pca"},
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

    def test_eval_rejects_version_1_checkpoint(self, workspace, tmp_path,
                                               capsys):
        raw = (workspace / "run" / "model.ckpt").read_bytes()
        (hlen,) = struct.unpack("<Q", raw[4:12])
        header = json.loads(raw[12:12 + hlen])
        header["version"] = 1
        blob = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "v1.ckpt"
        ckpt.write_bytes(raw[:4] + struct.pack("<Q", len(blob)) + blob
                         + raw[12 + hlen:])
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--data", str(workspace / "data"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "version 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_uncreatable_out_is_validation_error(self, workspace, tmp_path,
                                                 capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out"
        inputs = {
            "eval": ["--checkpoint", str(workspace / "run" / "model.ckpt")],
            "train": ["--config", str(workspace / "config.json")],
        }[command]
        rc = main([command, *inputs, "--data", str(workspace / "data"),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(out) in err
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
