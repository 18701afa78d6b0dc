"""Independent loop-level reference implementations used as test oracles.

Everything here is written with plain Python loops and math/mpmath so it
shares no code path with the library implementations it checks.
"""

import math

import numpy as np


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_layer_norm(x, eps):
    n = len(x)
    mu = sum(x) / n
    var = sum((v - mu) ** 2 for v in x) / n
    return np.array([(v - mu) / math.sqrt(var + eps) for v in x])


def naive_softmax(x):
    m = max(x)
    e = [math.exp(v - m) for v in x]
    s = sum(e)
    return np.array([v / s for v in e])


def primary_capsules_oracle(f, proj, act_proj):
    """Per-capsule loops: poses from f @ proj reshaped, sigmoid activations."""
    d_feat = f.shape[0]
    n = act_proj.shape[1]
    d_cap = proj.shape[1] // n
    poses = np.zeros((n, d_cap))
    for c in range(n):
        for h in range(d_cap):
            acc = 0.0
            for t in range(d_feat):
                acc += f[t] * proj[t, c * d_cap + h]
            poses[c, h] = acc
    acts = np.zeros(n)
    for c in range(n):
        acc = 0.0
        for t in range(d_feat):
            acc += f[t] * act_proj[t, c]
        acts[c] = 1.0 / (1.0 + math.exp(-acc))
    return poses, acts


def em_routing_oracle(poses, acts, transforms, beta, gamma, lam, iterations,
                      sigma_floor, pose_mode="vector"):
    """Straight-line E/M recursion for a single parent capsule."""
    n, d_cap = poses.shape
    votes = np.zeros((n, d_cap))
    for i in range(n):
        if pose_mode == "matrix":
            p = transforms.shape[1]
            m = poses[i].reshape(p, p)
            votes[i] = (m @ transforms[i]).reshape(d_cap)
        else:
            for h in range(d_cap):
                acc = 0.0
                for e in range(d_cap):
                    acc += poses[i, e] * transforms[i, e, h]
                votes[i, h] = acc
    r = np.ones(n)  # E-step over a single parent
    mu = np.zeros(d_cap)
    act = 0.0
    for _ in range(iterations):
        w = np.array([acts[i] * r[i] for i in range(n)])
        denom = sum(w)
        for h in range(d_cap):
            mu[h] = sum(w[i] * votes[i, h] for i in range(n)) / denom
        var = np.zeros(d_cap)
        for h in range(d_cap):
            var[h] = max(sum(w[i] * (votes[i, h] - mu[h]) ** 2
                             for i in range(n)) / denom, sigma_floor)
        cost = np.zeros(d_cap)
        for h in range(d_cap):
            for i in range(n):
                ln_p = (-0.5 * math.log(2.0 * math.pi * var[h])
                        - (votes[i, h] - mu[h]) ** 2 / (2.0 * var[h]))
                cost[h] += -r[i] * ln_p
        logit = lam * (beta - gamma * sum(r) - sum(cost))
        act = 1.0 / (1.0 + math.exp(-logit))
        r = np.ones(n)
    return mu, act


def fold_vote_transforms(proj, transforms, pose_mode):
    """The pose projection whose primary poses are the votes that ``proj``'s
    poses cast under per-capsule ``transforms`` [N, p, p], as computed by
    ``em_routing_oracle``: for every feature row k and capsule n,

      "matrix": P'[k, n] = (P[k, n] reshaped p x p) @ T_n, flattened;
      "vector": P'[k, n] = P[k, n] @ T_n.
    """
    d_feat = proj.shape[0]
    n, p = transforms.shape[:2]
    d_cap = proj.shape[1] // n
    folded = np.zeros_like(proj)
    for k in range(d_feat):
        for c in range(n):
            block = proj[k, c * d_cap:(c + 1) * d_cap]
            if pose_mode == "matrix":
                vote = (block.reshape(p, p) @ transforms[c]).reshape(d_cap)
            else:
                vote = np.zeros(d_cap)
                for h in range(d_cap):
                    for e in range(d_cap):
                        vote[h] += block[e] * transforms[c, e, h]
            folded[k, c * d_cap:(c + 1) * d_cap] = vote
    return folded


def inverted_routing_oracle(children, parent_init, vote_transforms, iterations,
                            eps=1e-5):
    """Loop-level inverted dot-product attention routing."""
    r_n, d = children.shape
    a_n = parent_init.shape[0]
    votes = np.zeros((r_n, a_n, d))
    for i in range(r_n):
        for j in range(a_n):
            for h in range(d):
                acc = 0.0
                for e in range(d):
                    acc += vote_transforms[j, h, e] * children[i, e]
                votes[i, j, h] = acc
    parents = parent_init.copy()
    agreement = np.zeros((r_n, a_n))
    route = np.zeros((r_n, a_n))
    for _ in range(iterations):
        for i in range(r_n):
            for j in range(a_n):
                agreement[i, j] = sum(parents[j, h] * votes[i, j, h]
                                      for h in range(d))
        for i in range(r_n):
            route[i] = naive_softmax(agreement[i])
        new_parents = np.zeros_like(parents)
        for j in range(a_n):
            pooled = np.zeros(d)
            for i in range(r_n):
                pooled += route[i, j] * votes[i, j]
            new_parents[j] = naive_layer_norm(pooled, eps)
        parents = new_parents
    return parents, agreement, route


def encoder_oracle(patch_features, compact_vectors, proj, act_proj, transforms,
                   beta, gamma, lam, k_em, k_td, sigma_floor, vote_transforms,
                   pose_mode="vector", eps=1e-5):
    """Compose the primitive oracles into a full encoder forward pass."""
    r_n, d_feat = patch_features.shape
    d = compact_vectors.shape[1]
    g = np.zeros((r_n, d))
    for r in range(r_n):
        poses, acts = primary_capsules_oracle(patch_features[r], proj, act_proj)
        g[r], _ = em_routing_oracle(poses, acts, transforms, beta, gamma, lam,
                                    k_em, sigma_floor, pose_mode)
    _, agreement, _ = inverted_routing_oracle(g, compact_vectors,
                                              vote_transforms, k_td, eps)
    a_n = compact_vectors.shape[0]
    attention = np.zeros((r_n, a_n))
    for a in range(a_n):
        attention[:, a] = naive_softmax(agreement[:, a])
    h = np.zeros((d_feat, a_n))
    for a in range(a_n):
        for f in range(d_feat):
            h[f, a] = sum(attention[r, a] * patch_features[r, f]
                          for r in range(r_n))
    return h, attention, agreement


def synthetic_oracle(spec, seed):
    """The synthetic generator as per-sample loops: each sample's noise is
    drawn, then each (sample, active attribute) row's patch order, then the
    bases are planted row by row and the samples stacked.  Draws come
    straight from numpy's PCG64 in the order ``hrt.rng.SeededRng`` makes
    them.  Returns features, labels, splits, class_attr and attr_vectors."""
    gen = np.random.Generator(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF))
    a, d_feat = spec.num_attributes, spec.d_feat
    c_total = spec.c_seen + spec.c_unseen

    basis = gen.normal(0.0, 1.0, size=(a, d_feat))
    for i in range(a):
        for j in range(i):
            basis[i] -= (basis[i] @ basis[j]) * basis[j]
        norm = np.linalg.norm(basis[i])
        if norm < 1e-8:
            basis[i] = gen.normal(0.0, 1.0, size=(d_feat,))
            norm = np.linalg.norm(basis[i])
        basis[i] /= norm

    supports = set()
    class_attr = np.zeros((c_total, a))
    for c in range(c_total):
        for _ in range(1000):
            mask = gen.uniform(0.0, 1.0, size=(a,)) < 0.5
            if not mask.any():
                continue
            key = tuple(np.nonzero(mask)[0].tolist())
            if key not in supports:
                supports.add(key)
                break
        else:
            raise AssertionError("no distinct supports")
        class_attr[c] = np.where(mask, gen.uniform(0.6, 1.0, size=(a,)),
                                 gen.uniform(0.0, 0.4, size=(a,)))

    attr_vectors = gen.normal(0.0, 1.0, size=(a, spec.tau))

    r, k = spec.r_patches, spec.signal_patches_per_attribute
    labels = [c for c in range(c_total) for _ in range(spec.samples_per_class)]
    features = [gen.normal(0.0, spec.noise_std, size=(r, d_feat))
                for _ in labels]
    # one patch order per (sample, active attribute), sample-major
    rows = [(i, attr, np.argsort(gen.uniform(0.0, 1.0, size=r),
                                 kind="stable")[:k])
            for i, c in enumerate(labels) for attr in range(a)
            if class_attr[c, attr] > 0.5]
    for i, attr, patches in rows:
        features[i][patches] += class_attr[labels[i], attr] * basis[attr]
    features = np.asarray(features)
    labels = np.asarray(labels)

    seen = set(range(spec.c_seen))
    splits = {"train": [], "test_seen": [], "test_unseen": []}
    for c in range(c_total):
        idx = np.nonzero(labels == c)[0]
        idx = idx[gen.permutation(idx.size)]
        if c in seen:
            n_train = max(1, min(idx.size - 1,
                                 int(round(spec.train_fraction * idx.size))))
            splits["train"].extend(idx[:n_train].tolist())
            splits["test_seen"].extend(idx[n_train:].tolist())
        else:
            splits["test_unseen"].extend(idx.tolist())
    splits = {k: np.array(sorted(v), dtype=np.int64) for k, v in splits.items()}
    return features, labels, splits, class_attr, attr_vectors
