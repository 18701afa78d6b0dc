"""From patch features to attribute-aligned features.

The encoder's contract: given R patch features and A semantic attribute
vectors, produce one feature column per attribute, where each column is a
convex combination of the original patches (the attention over patches is a
probability simplex).  This demo builds a small encoder, runs it on random
patches, and verifies the two structural facts you should always be able to
rely on:

  * every attention column sums to one with nonnegative entries, and
  * each aligned feature h_a lies inside the convex hull of the patches.

It also shows the semantic compaction step that produces the d-dimensional
parent initializations from raw tau-dimensional attribute vectors.
"""

import numpy as np

from hrt import SeededRng, Tensor, compact_semantics, encode

rng = SeededRng(3)
R, D_FEAT, A, TAU, N_PRIMARY, D_CAP = 6, 16, 4, 12, 8, 4

# raw attribute vectors live in tau dimensions; the routing operates on
# their d_cap-dimensional principal-component scores
attr_vectors = rng.normal((A, TAU))
compact = compact_semantics(attr_vectors, D_CAP)
print("compacted attribute vectors:", attr_vectors.shape, "->", compact.shape)

# the encoder reads the compacted vectors as a constant tensor, then the
# encoder weights in encode's order: proj, act_proj, vote_transforms, and the
# number of top-down routing iterations
parents = Tensor(compact)
params = (Tensor(rng.normal((D_FEAT, N_PRIMARY, D_CAP), scale=0.3)),
          Tensor(rng.normal((D_FEAT, N_PRIMARY), scale=0.3)),
          Tensor(rng.normal((A, D_CAP, D_CAP))), 2)

features = rng.normal((R, D_FEAT))
out = encode(Tensor(features), parents, *params)

print()
print("attention over patches, one column per attribute:")
print(np.round(out.attention.data, 3))
print("column sums:", np.round(out.attention.data.sum(axis=0), 12))
print("min entry  :", round(float(out.attention.data.min()), 6))

# convexity: h_a must equal the attention-weighted average of the patches
h_ref = features.T @ out.attention.data
print()
print("max |h - F^T att| =", float(np.max(np.abs(out.h.data - h_ref))))
print("so each aligned feature is literally a convex mix of the patches.")

# A spiked patch shows the mechanism end to end: copy the vote direction of
# attribute 0 into one patch and that patch should grab attribute 0's
# attention mass.
base = out.attention.data[:, 0].copy()
spiked = features.copy()
spiked[2] *= 5.0
out2 = encode(Tensor(spiked), parents, *params)
print()
print("after amplifying patch 2, attribute-0 attention moved from")
print(" ", np.round(base, 3), "to", np.round(out2.attention.data[:, 0], 3))
