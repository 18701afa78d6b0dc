"""Verify the gradients, then sweep the routing iteration counts.

Two maintenance tools in one tour:

  1. the finite-difference gradient checker, run against the *entire* model
     loss -- every learnable tensor, including the routing internals -- on a
     deliberately tiny configuration, and
  2. the ablation harness, which retrains the model once per top-down
     routing iteration count (k_td) and reports GZSL metrics per setting.
     The bottom-up EM count k_em is not swept: single-parent EM routing is
     closed form, so k_em does not change the model.

Both are the same code paths the `hrt gradcheck` and `hrt ablate` commands
use.
"""

from hrt import (HrtModel, LossConfig, ModelConfig, SyntheticSpec,
                 gamma_profile, generate_synthetic, grad_check,
                 run_ablation, total_loss)
from hrt.config import load_config

# --- gradient check on a tiny model ---------------------------------------
spec = SyntheticSpec(c_seen=5, c_unseen=2, num_attributes=6, r_patches=4,
                     d_feat=16, tau=8, samples_per_class=2, noise_std=0.1,
                     signal_patches_per_attribute=1)
ds = generate_synthetic(spec, seed=0)
model = HrtModel.build(
    ModelConfig(d_feat=16, num_attributes=6, num_classes=7, tau=8, d_cap=8,
                n_primary=8, k_em=2, k_td=2, compaction="pca"),
    ds.semantics.attr_vectors, ds.semantics.class_attr, seed=0)

gamma = gamma_profile(7, ds.seen_classes, ds.unseen_classes)
cfg = LossConfig(lambda1=0.1, lambda2=0.033, gamma_per_class=gamma)
feats, labels = ds.split_samples("train")
x, label = feats[0], int(labels[0])

report = grad_check(lambda: total_loss(model, x, label, cfg)[0],
                    model.params, h=1e-5, tol=1e-4)
print(report.summary())
print()

# --- ablation over the top-down routing depth -------------------------------
config = load_config(overrides={
    "model": {"d_cap": 4, "n_primary": 8, "compaction": "pca"},
    "train": {"epochs": 3, "batch_size": 8},
    "synthetic": {"c_seen": 4, "c_unseen": 2, "num_attributes": 6,
                  "r_patches": 4, "d_feat": 16, "tau": 8,
                  "samples_per_class": 8},
})
ds_small = generate_synthetic(SyntheticSpec(**{
    k: v for k, v in config["synthetic"].items() if k != "seed"}), seed=0)

print("sweep over k_td:")
print("  value    tr      ts      h")
for row in run_ablation(ds_small, config):
    print(f"  {row['value']:5d}  {row['tr']:.3f}  {row['ts']:.3f}"
          f"  {row['h']:.3f}")
print()
print("a short sweep on a toy task: expect noise at this scale, but every")
print("setting must produce finite, sane metrics -- that is the contract.")
