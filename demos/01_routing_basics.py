"""A walking tour of the two routing primitives.

The encoder stacks two very different routing mechanisms:

  1. bottom-up EM routing turns a bag of noisy primary capsules into one
     patch capsule whose pose is the activation-weighted mean of the child
     poses (with a single parent every EM round gives this same result), and
  2. top-down inverted dot-product attention routing lets semantic parent
     capsules compete for the patch capsules that explain them.

This script builds tiny hand-sized instances of both and prints what the
iterations actually do, so you can see the consensus forming.
"""

import numpy as np

from hrt import SeededRng, Tensor, inverted_routing
from hrt import tensor as T
from hrt.routing import batched_em_routing

rng = SeededRng(0)

# ---------------------------------------------------------------------------
# Part 1: EM routing.  Five child capsules vote for a single parent pose.
# Four of the children agree (their poses cluster), one is an outlier with a
# low activation; the parent pose should land near the cluster.
# ---------------------------------------------------------------------------
d_cap = 4
consensus = rng.normal((d_cap,))
poses = np.stack([consensus + rng.normal((d_cap,), scale=0.05)
                  for _ in range(4)] + [rng.normal((d_cap,), scale=3.0)])
acts = np.array([0.9, 0.9, 0.9, 0.9, 0.1])  # the outlier barely speaks

# one patch: a leading patch axis of length 1
parent = batched_em_routing(Tensor(poses[None]), Tensor(acts[None])).data[0]

print("EM routing: 4 agreeing children + 1 low-activation outlier")
print("  consensus direction :", np.round(consensus, 3))
print("  routed parent pose  :", np.round(parent, 3))
print("  pose error vs consensus:",
      round(float(np.linalg.norm(parent - consensus)), 4))
print()

# With the outlier silenced entirely the parent barely moves -- the
# activation weighting already suppressed it.
acts_hard = acts.copy()
acts_hard[-1] = 1e-6
parent_hard = batched_em_routing(Tensor(poses[None]),
                                 Tensor(acts_hard[None])).data[0]
shift = np.linalg.norm(parent - parent_hard)
print("  removing the outlier shifts the pose by only", round(float(shift), 5))
print()

# ---------------------------------------------------------------------------
# Part 2: inverted routing.  Three patch capsules, two semantic parents.
# Patch 0 is built to match parent 0's votes, patch 1 matches parent 1, and
# patch 2 is noise.  The routing matrix should become nearly block diagonal.
# ---------------------------------------------------------------------------
d = 4
parent_init = rng.normal((2, d))
vote_transforms = np.stack([np.eye(d), -np.eye(d)])  # parent 1 wants -p
children = np.stack([parent_init[0] * 2.0,      # agrees with parent 0
                     -parent_init[1] * 2.0,     # agrees with parent 1
                     rng.normal((d,), scale=0.1)])

agreement = inverted_routing(Tensor(children), Tensor(parent_init),
                             Tensor(vote_transforms), 3)
# each patch's routing distribution over the parents
route = T.softmax(agreement, axis=1)

print("inverted routing: per-patch routing distributions (rows sum to 1)")
for i, row in enumerate(route.data):
    print(f"  patch {i}: ", np.round(row, 3))
print("  agreement scores:")
for i, row in enumerate(agreement.data):
    print(f"  patch {i}: ", np.round(row, 3))
print()
print("patch 0 routes to parent 0, patch 1 to parent 1, and the noise patch")
print("spreads its routing -- which is exactly the competition we wanted.")
