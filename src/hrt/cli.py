"""Command-line interface.

Subcommands: gen, train, eval, gradcheck, ablate, report. Exit codes:
0 success, 1 validation/configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, DimensionError, NumericError
from .config import (DATASET_FIELDS, dataset_dims, echo_config, gamma_offsets,
                     load_config, synthetic_spec_for)
from .data import (DATASET_FILES, ZslDataset, check_dataset_files,
                   generate_synthetic, load_features, save_dataset)
from .ablation import ablation_csv, run_ablation
from .gradcheck import check_model_gradients, grad_check
from .losses import LossConfig
from .metrics import evaluate
from .model import HrtModel, ModelConfig
from .optim import OptimizerConfig
from .rng import check_seed
from .tensor import no_grad
from .train import (checkpoint_size, load_checkpoint, save_checkpoint,
                    train_from_config, write_history)


def _make_out(path: str, *names: str, is_file: bool = False) -> Path:
    """Create the ``--out`` directory (or, for a file, its parent). Callers
    check their settings and the files they read first, so a refused command
    leaves no directory, and call this before reading or generating
    anything, so an unusable path fails fast and is named as given. A file
    ``--out`` and the ``names`` the command writes there must not exist as
    anything but a regular file: writing to a named pipe blocks."""
    out = Path(path)
    home = out.parent if is_file else out
    for file in [out] * is_file + [home / name for name in names]:
        if file.exists() and not file.is_file():
            raise ConfigError(f"--out {path}: {file} is not a regular file")
    try:
        home.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create --out {path}: {e}") from e
    return out


def _load_matched(args) -> tuple[HrtModel, ZslDataset]:
    """Load the checkpoint, then the dataset, and reject a dataset whose
    dimensions or semantic arrays differ from the checkpoint's; the patch
    count is free, as no parameter is sized by it."""
    model = load_checkpoint(args.checkpoint)
    dataset = load_features(args.data)
    for name, given in dataset_dims(dataset).items():
        have = getattr(model.config, name)
        if have != given:
            raise DataFormatError(
                f"checkpoint {args.checkpoint} has {name} {have}, "
                f"dataset {args.data} has {given}")
    for name in ("attr_vectors", "class_attr"):
        if not np.array_equal(getattr(model.semantics, name),
                              getattr(dataset.semantics, name)):
            raise DataFormatError(
                f"checkpoint {args.checkpoint} and dataset {args.data} "
                f"hold different {name}")
    return model, dataset


def _train_settings(config: dict, args) -> None:
    """Apply ``--seed``, then check the model (with placeholder sizes),
    loss, optimizer and train sections before any dataset is touched."""
    ModelConfig(**dict.fromkeys(DATASET_FIELDS, 1), **config["model"])
    LossConfig(**config["loss"])
    OptimizerConfig(**config["optimizer"])
    if args.seed is not None:
        config["train"]["seed"] = args.seed
    epochs, batch_size = config["train"]["epochs"], config["train"]["batch_size"]
    if epochs < 0 or batch_size < 1:
        raise ConfigError("need train.epochs >= 0 and train.batch_size >= 1, "
                          f"got {epochs} and {batch_size}")
    check_seed(config["train"]["seed"])


def cmd_gen(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config["synthetic"]["seed"] = args.seed
    recipe = synthetic_spec_for(config)
    _make_out(args.out, *DATASET_FILES, "config.json")
    dataset = generate_synthetic(*recipe)
    save_dataset(dataset, args.out)
    echo_config(config, Path(args.out) / "config.json")
    print(f"wrote {dataset.features.shape[0]} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    _train_settings(config, args)
    check_dataset_files(args.data)
    out = _make_out(args.out, "model.ckpt", "history.csv", "config.json")
    dataset = load_features(args.data)
    model, history = train_from_config(config, dataset)
    save_checkpoint(model, out / "model.ckpt", experiment_config=config)
    write_history(history, out / "history.csv")
    echo_config(config, out / "config.json")
    final = history[-1].total if history else float("nan")
    print(f"trained {len(history)} epochs, final loss {final:.4f} -> {out}")
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    checkpoint_size(args.checkpoint)
    check_dataset_files(args.data)
    out = _make_out(args.out, "metrics.json", "config.json")
    model, dataset = _load_matched(args)
    gamma = gamma_offsets(config, model.config.num_classes,
                          dataset.seen_classes, dataset.unseen_classes)
    metrics = evaluate(model, dataset, mode=args.mode, gamma=gamma)
    (out / "metrics.json").write_text(
        json.dumps({"mode": args.mode, **metrics.to_dict()},
                   sort_keys=True, indent=2) + "\n", encoding="utf-8")
    echo_config(config, out / "config.json")
    print(json.dumps({"mode": args.mode, **metrics.to_dict()}, sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.h) and args.h > 0):
        raise ConfigError(f"--h must be a positive finite number, got {args.h}")
    if not args.tol >= 0:
        raise ConfigError(f"--tol must be >= 0, got {args.tol}")
    report = check_model_gradients(load_config(args.config), args.seed,
                                   h=args.h, tol=args.tol)
    print(report.summary())
    return 0 if report.passed else 2


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    _train_settings(config, args)
    if args.data:
        check_dataset_files(args.data)
    else:
        recipe = synthetic_spec_for(config)
    echo = Path(args.out).stem + ".config.json"
    out = _make_out(args.out, echo, is_file=True)
    dataset = (load_features(args.data) if args.data
               else generate_synthetic(*recipe))
    rows = run_ablation(dataset, config)
    out.write_text(ablation_csv(rows), encoding="utf-8")
    echo_config(config, out.with_name(echo))
    print(f"wrote {len(rows)} ablation rows to {out}")
    return 0


def cmd_report(args) -> int:
    checkpoint_size(args.checkpoint)
    check_dataset_files(args.data)
    out = _make_out(args.out, is_file=True)
    model, dataset = _load_matched(args)
    a = model.config.num_attributes
    lines = ["sample_index,patch_index," + ",".join(f"a{i}" for i in range(a))]
    with no_grad():
        for i in range(dataset.features.shape[0]):
            result = model.forward(dataset.features[i])
            phi = result.aligned.agreement.data
            for r in range(phi.shape[0]):
                vals = ",".join(repr(float(v)) for v in phi[r])
                lines.append(f"{i},{r},{vals}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote agreement maps for {dataset.features.shape[0]} samples to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hrt",
                                     description="capsule-routing zero-shot learner")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["zsl", "gzsl"], default="gzsl")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the full loss gradient")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=grad_check.__kwdefaults__["h"])
    p.add_argument("--tol", type=float,
                   default=grad_check.__kwdefaults__["tol"])
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate",
                       help="sweep the top-down routing iteration count k_td")
    p.add_argument("--out", required=True)
    p.add_argument("--data", default=None,
                   help="dataset directory; defaults to the configured synthetic task")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="dump per-sample agreement maps as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("checkpoint", "data", "config", "out"):
            if getattr(args, flag, None) == "":
                raise ConfigError(f"--{flag} is empty; it needs a path")
        return args.func(args)
    except (ConfigError, DataFormatError, DimensionError, IndexError,
            MemoryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
