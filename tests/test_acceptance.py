"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each test reduces its criterion to a single boolean and reports it through
``check``, so the terminal shows exactly one [PASS]/[FAIL] line per criterion
even under pytest's output capture.
"""

import time

import numpy as np

from hrt import (HrtModel, LossConfig, ModelConfig, OptimizerConfig,
                 SeededRng, SemanticSpace, SyntheticSpec, Tensor, calibration_loss, cross_entropy,
                 encode, evaluate, gamma_profile, generate_synthetic,
                 grad_check, harmonic_mean, inverted_routing, predict,
                 run_ablation, total_loss, train)
from hrt.cli import TINY_MODEL, main
from hrt.routing import batched_em_routing, batched_primary_capsules

from oracles import (em_routing_oracle, fold_vote_transforms,
                     inverted_routing_oracle, primary_capsules_oracle)


def check(capsys, name, ok, detail=""):
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{': ' + detail if detail else ''}"


def tiny_gradcheck_setup(seed=0):
    spec = SyntheticSpec(c_seen=5, c_unseen=2, num_attributes=6, r_patches=4,
                         d_feat=16, tau=8, samples_per_class=2, noise_std=0.1,
                         signal_patches_per_attribute=1)
    ds = generate_synthetic(spec, seed)
    model = HrtModel.build(ModelConfig(**TINY_MODEL),
                           ds.semantics.attr_vectors, ds.semantics.class_attr,
                           seed=seed)
    return ds, model


def test_gradient_suite(capsys):
    # tiny configuration: R=4, D_feat=16, d=8 capsules, A=6, C_s=5,
    # C_u=2, tau=8, k_EM=2, k_TD=2; full loss with the default weights
    ds, model = tiny_gradcheck_setup()
    gamma = gamma_profile(7, ds.seen_classes, ds.unseen_classes)
    cfg = LossConfig(lambda1=0.1, lambda2=0.033, gamma_per_class=gamma)
    i = ds.splits["train"][0]
    x, label = ds.features[i], int(ds.labels[i])
    start = time.monotonic()
    report = grad_check(lambda: total_loss(model, x, label, cfg)[0],
                        model.params, h=1e-5, tol=1e-4)
    elapsed = time.monotonic() - start
    ok = report.passed and elapsed < 60.0
    check(capsys, "gradient suite",
          ok, f"max rel err {report.max_rel_error:.3e}, {elapsed:.1f}s")


def test_routing_oracle_equivalence(capsys):
    worst = 0.0
    instances = 0
    for seed in range(100):
        rng = SeededRng(seed)
        # EM routing instance; alternate between vector and matrix capsules.
        # The library has no vote transforms: they are folded into its pose
        # projection, and the oracle applies them to the unfolded poses.
        n = int(rng.integers(2, 7))
        if seed % 2 == 0:
            d_cap = int(rng.integers(2, 7))
            transforms = rng.normal((n, d_cap, d_cap))
            mode = "vector"
        else:
            p = int(rng.integers(2, 4))
            d_cap = p * p
            transforms = rng.normal((n, p, p))
            mode = "matrix"
        d_feat = int(rng.integers(2, 7))
        feats = rng.normal((d_feat,))
        proj = rng.normal((d_feat, n * d_cap))
        act_proj = rng.normal((d_feat, n))
        beta, gamma = float(rng.normal(())), float(rng.normal(()))
        lam = float(rng.uniform((), low=0.5, high=2.0))
        k = int(rng.integers(1, 5))
        parent = batched_em_routing(*batched_primary_capsules(
            Tensor(feats[None]),
            Tensor(fold_vote_transforms(proj, transforms, mode)),
            Tensor(act_proj)))
        poses, acts = primary_capsules_oracle(feats, proj, act_proj)
        mu_o, _ = em_routing_oracle(poses, acts, transforms, beta, gamma,
                                    lam, k, 1e-6, mode)
        worst = max(worst, float(np.max(np.abs(parent.data[0] - mu_o))))

        # inverted routing instance
        r_n, a_n, d = (int(rng.integers(2, 6)), int(rng.integers(2, 5)),
                       int(rng.integers(2, 6)))
        children = rng.normal((r_n, d))
        parent_init = rng.normal((a_n, d))
        vote_transforms = rng.normal((a_n, d, d))
        k_td = int(rng.integers(1, 4))
        agreement = inverted_routing(
            Tensor(children), Tensor(parent_init), Tensor(vote_transforms),
            k_td)
        _, ag_o, _ = inverted_routing_oracle(
            children, parent_init, vote_transforms, k_td)
        worst = max(worst, float(np.max(np.abs(agreement.data - ag_o))))
        instances += 2
    check(capsys, "routing oracle equivalence", worst < 1e-9,
          f"{instances} instances, max abs diff {worst:.2e}")


def test_simplex_convexity_invariants(capsys):
    evals = 0
    worst_sum, worst_h, min_entry = 0.0, 0.0, np.inf
    for setup_seed in range(50):
        rng = SeededRng(1000 + setup_seed)
        r_patches, d_feat, n_attr = 4, 8, 3
        tau, n_primary, d_cap = 5, 3, 4
        semantics = SemanticSpace(attr_vectors=rng.normal((n_attr, tau)),
                                  compact_vectors=rng.normal((n_attr, d_cap)),
                                  class_attr=rng.uniform((4, n_attr)))
        # (proj, act_proj, vote_transforms, iterations), in encode's order
        params = (Tensor(rng.normal((d_feat, n_primary * d_cap), scale=0.3)),
                  Tensor(rng.normal((d_feat, n_primary), scale=0.3)),
                  Tensor(rng.normal((n_attr, d_cap, d_cap))),
                  2)
        for _ in range(20):
            features = rng.normal((r_patches, d_feat))
            out = encode(Tensor(features), semantics, *params)
            att = out.attention.data
            worst_sum = max(worst_sum,
                            float(np.max(np.abs(att.sum(axis=0) - 1.0))))
            min_entry = min(min_entry, float(att.min()))
            h_ref = features.T @ att
            worst_h = max(worst_h,
                          float(np.max(np.abs(out.h.data - h_ref))))
            evals += 1
    ok = worst_sum < 1e-9 and min_entry >= 0.0 and worst_h < 1e-9
    check(capsys, "simplex/convexity invariants", ok,
          f"{evals} evals, sum err {worst_sum:.2e}, h err {worst_h:.2e}")


def test_loss_identities(capsys):
    rng = SeededRng(7)
    ok = True
    # calibration with zero gamma reduces to cross-entropy
    for _ in range(20):
        s = rng.normal((6,), scale=3.0)
        label = int(rng.integers(0, 6))
        diff = abs(calibration_loss(Tensor(s), label, np.zeros(6)).item()
                   - cross_entropy(Tensor(s), label).item())
        ok = ok and diff < 1e-10
    # total-loss decomposition additivity
    ds, model = tiny_gradcheck_setup(seed=3)
    gamma = gamma_profile(7, ds.seen_classes, ds.unseen_classes)
    cfg = LossConfig(lambda1=0.1, lambda2=0.033, gamma_per_class=gamma)
    i = ds.splits["train"][0]
    total, parts = total_loss(model, ds.features[i], int(ds.labels[i]), cfg)
    recomposed = parts["ce"] + 0.1 * parts["cal"] + 0.033 * parts["reg"]
    ok = ok and abs(total.item() - recomposed) < 1e-10
    # predict is exactly invariant to a uniform score shift
    for _ in range(50):
        s = rng.normal((6,), scale=2.0)
        shift = float(rng.normal(()) * 10.0)
        ok = ok and predict(s) == predict(s + shift)
    check(capsys, "loss identities", ok)


def test_metric_formula_anchor(capsys):
    # published operating points: (63.5, 62.1) -> 62.8 and (78.7, 58.9) -> 67.4
    h1 = harmonic_mean(0.635, 0.621)
    h2 = harmonic_mean(0.787, 0.589)
    ok = abs(h1 - 0.628) <= 5e-4 and abs(h2 - 0.674) <= 5e-4
    check(capsys, "metric formula anchor", ok, f"{h1:.4f}, {h2:.4f}")


def test_end_to_end_learning(capsys):
    start = time.monotonic()
    spec = SyntheticSpec()  # C_s=8, C_u=4, A=12, R=9, D_feat=64, 40 per class
    ds = generate_synthetic(spec, seed=0)

    # validate the thresholds first with a nearest-class-attribute linear
    # oracle: least squares from summed patch features to class attributes
    z = ds.semantics.class_attr
    train_idx = ds.splits["train"]
    w, *_ = np.linalg.lstsq(ds.features[train_idx].sum(axis=1),
                            z[ds.labels[train_idx]], rcond=None)

    def oracle_preds(feats, candidates):
        psi = feats.sum(axis=1) @ w
        d2 = ((z[candidates][None, :, :] - psi[:, None, :]) ** 2).sum(axis=2)
        return np.array(candidates)[np.argmin(d2, axis=1)]

    def per_class_acc(labels, preds):
        return float(np.mean([np.mean(preds[labels == c] == c)
                              for c in sorted(set(labels.tolist()))]))

    u_idx, s_idx = ds.splits["test_unseen"], ds.splits["test_seen"]
    u_feats, u_labels = ds.features[u_idx], ds.labels[u_idx]
    s_feats, s_labels = ds.features[s_idx], ds.labels[s_idx]
    all_classes = list(range(12))
    oracle_t1 = per_class_acc(u_labels, oracle_preds(u_feats,
                                                     ds.unseen_classes))
    oracle_h = harmonic_mean(
        per_class_acc(s_labels, oracle_preds(s_feats, all_classes)),
        per_class_acc(u_labels, oracle_preds(u_feats, all_classes)))
    thresholds_ok = oracle_t1 >= 0.60 and oracle_h >= 0.50

    model = HrtModel.build(
        ModelConfig(d_feat=64, num_attributes=12, num_classes=12, tau=32),
        ds.semantics.attr_vectors, ds.semantics.class_attr, seed=0)
    gamma = gamma_profile(12, ds.seen_classes, ds.unseen_classes)
    train(ds, model, LossConfig(lambda1=0.1, lambda2=0.033,
                                gamma_per_class=gamma),
          OptimizerConfig(), epochs=12, seed=0)
    t1 = evaluate(model, ds, mode="zsl").t1
    h = evaluate(model, ds, mode="gzsl", gamma=gamma).h
    elapsed = time.monotonic() - start
    ok = thresholds_ok and t1 >= 0.60 and h >= 0.50 and elapsed < 600.0
    check(capsys, "end-to-end learning", ok,
          f"oracle T1 {oracle_t1:.3f}/h {oracle_h:.3f}, "
          f"model T1 {t1:.3f}/h {h:.3f}, {elapsed:.0f}s")


def test_determinism(capsys, tmp_path):
    import json
    config = {
        "model": {"d_cap": 4, "n_primary": 8, "k_em": 2, "k_td": 2,
                  "compaction": "pca"},
        "train": {"epochs": 2, "batch_size": 8, "seed": 0},
        "synthetic": {"c_seen": 3, "c_unseen": 2, "num_attributes": 6,
                      "r_patches": 4, "d_feat": 12, "tau": 8,
                      "samples_per_class": 4, "seed": 0},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    artifacts = []
    for run in ("a", "b"):
        root = tmp_path / run
        assert main(["gen", "--out", str(root / "data"),
                     "--config", str(cfg), "--seed", "0"]) == 0
        assert main(["train", "--data", str(root / "data"),
                     "--out", str(root / "run"), "--config", str(cfg),
                     "--seed", "0"]) == 0
        assert main(["eval", "--checkpoint", str(root / "run" / "model.ckpt"),
                     "--data", str(root / "data"), "--mode", "gzsl",
                     "--out", str(root / "eval"), "--config", str(cfg)]) == 0
        artifacts.append(((root / "eval" / "metrics.json").read_bytes(),
                          (root / "run" / "history.csv").read_bytes()))
    ok = artifacts[0] == artifacts[1]
    check(capsys, "determinism", ok,
          "byte-identical metrics.json and history.csv")


def test_ablation_harness(capsys):
    from hrt.config import load_config
    config = load_config(overrides={
        "model": {"d_cap": 4, "n_primary": 8, "compaction": "pca"},
        "train": {"epochs": 1, "batch_size": 8},
        "synthetic": {"c_seen": 3, "c_unseen": 2, "num_attributes": 6,
                      "r_patches": 4, "d_feat": 12, "tau": 8,
                      "samples_per_class": 4},
    })
    ds = generate_synthetic(SyntheticSpec(**{
        k: v for k, v in config["synthetic"].items() if k != "seed"}), seed=0)
    rows = run_ablation(ds, config, values=(1, 2, 3, 4, 5))
    finite = all(np.all(np.isfinite([r["tr"], r["ts"], r["h"]]))
                 for r in rows)
    ok = len(rows) == 5 and finite
    check(capsys, "ablation harness", ok, f"{len(rows)} runs, all finite")
