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
use: `check_model_gradients` and `run_ablation`.
"""

from hrt import generate_synthetic, grad_check, run_ablation
from hrt.config import load_config, synthetic_spec_for
from hrt.gradcheck import check_model_gradients

# --- gradient check on a tiny model ---------------------------------------
# the tiny problem at seed 0 with the default loss weights and the default
# step and tolerance: exactly what `hrt gradcheck` runs
report = check_model_gradients(load_config(), 0, **grad_check.__kwdefaults__)
print(report.summary())
print()

# --- ablation over the top-down routing depth -------------------------------
config = load_config(overrides={
    "model": {"d_cap": 4, "n_primary": 8},
    "train": {"epochs": 3, "batch_size": 8},
    "synthetic": {"c_seen": 4, "c_unseen": 2, "num_attributes": 6,
                  "r_patches": 4, "d_feat": 16, "tau": 8,
                  "samples_per_class": 8},
})
ds_small = generate_synthetic(*synthetic_spec_for(config))

print("sweep over k_td:")
print("  value    tr      ts      h")
for row in run_ablation(ds_small, config):
    print(f"  {row['value']:5d}  {row['tr']:.3f}  {row['ts']:.3f}"
          f"  {row['h']:.3f}")
print()
print("a short sweep on a toy task: expect noise at this scale, but every")
print("setting must produce finite, sane metrics -- that is the contract.")
