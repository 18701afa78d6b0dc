import numpy as np
import pytest

from hrt import DimensionError, SeededRng, Tensor, inverted_routing
from hrt.routing import batched_em_routing, batched_primary_capsules

from oracles import em_routing_oracle, fold_vote_transforms, \
    inverted_routing_oracle, primary_capsules_oracle

# the oracle's activation constants; the parent pose does not depend on them
BETA, GAMMA, LAM, FLOOR = 0.4, 0.2, 0.7, 1e-6


def route_one(poses, acts):
    """Parent pose of a single patch: [N, d_cap] children -> [d_cap]."""
    return batched_em_routing(Tensor(poses[None]), Tensor(acts[None])).data[0]


def oracle_pose(poses, acts, iterations=3, transforms=None, mode="vector"):
    """The oracle's parent pose; without ``transforms`` the poses vote as
    they are (identity transforms)."""
    if transforms is None:
        transforms = np.stack([np.eye(poses.shape[1])] * poses.shape[0])
    mu, _ = em_routing_oracle(poses, acts, transforms, BETA, GAMMA, LAM,
                              iterations, FLOOR, pose_mode=mode)
    return mu


class TestPrimaryCapsules:
    def test_copy_weights(self):
        # capsule 0 copies the first 16 feature entries through padded identity
        d_feat, n, d_cap = 16, 4, 16
        proj = np.zeros((d_feat, n, d_cap))
        proj[:16, 0, :16] = np.eye(16)
        act_proj = np.zeros((d_feat, n))
        rng = SeededRng(0)
        f = rng.normal((1, d_feat))
        poses, _ = batched_primary_capsules(Tensor(f), Tensor(proj),
                                            Tensor(act_proj))
        assert np.allclose(poses.data[0, 0], f[0, :16])
        assert np.allclose(poses.data[0, 1:], 0.0)

    def test_zero_input(self):
        poses, acts = batched_primary_capsules(Tensor(np.zeros((1, 8))),
                                               Tensor(np.zeros((8, 3, 4))),
                                               Tensor(np.zeros((8, 3))))
        assert poses.data.shape == (1, 3, 4)
        assert np.allclose(poses.data, 0.0)
        assert np.allclose(acts.data, 0.5)

    def test_matches_loop_oracle(self):
        rng = SeededRng(3)
        feats = rng.normal((3, 10))
        proj = rng.normal((10, 5 * 4))
        act_proj = rng.normal((10, 5))
        # the library's projection is [D_feat, N, d_cap], the oracle's flat
        poses, acts = batched_primary_capsules(
            Tensor(feats), Tensor(proj.reshape(10, 5, 4)), Tensor(act_proj))
        for r in range(3):
            o_poses, o_acts = primary_capsules_oracle(feats[r], proj, act_proj)
            assert np.allclose(poses.data[r], o_poses, atol=1e-12)
            assert np.allclose(acts.data[r], o_acts, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            batched_primary_capsules(Tensor(np.zeros((1, 8))),
                                     Tensor(np.zeros((9, 12))),
                                     Tensor(np.zeros((8, 3))))

    # one case per check, on features [R, 8], N = 3 capsules and d_cap 4;
    # the pose contraction checks the features and the pose projection
    @pytest.mark.parametrize("feats,proj,act_proj,message", [
        ((8,), (8, 3, 4), (8, 3), r"'rf,fnh->rnh' .* \(8,\) and \(8, 3, 4\)"),
        ((2, 8), (8, 12), (8, 3), r"'rf,fnh->rnh' .* \(2, 8\) and \(8, 12\)"),
        ((2, 8), (9, 3, 4), (8, 3),
         r"'rf,fnh->rnh' .* \(2, 8\) and \(9, 3, 4\)"),
        ((2, 8), (8, 3, 4), (8, 2),
         r"activation projection \(8, 2\) is not \[D_feat, N\] = \(8, 3\)"),
    ], ids=["features-1d", "pose-flat", "pose-width", "activation-count"])
    def test_shape_errors_named(self, feats, proj, act_proj, message):
        with pytest.raises(DimensionError, match=message):
            batched_primary_capsules(Tensor(np.zeros(feats)),
                                     Tensor(np.zeros(proj)),
                                     Tensor(np.zeros(act_proj)))


class TestEmRouting:
    def test_single_child_identity_transform(self):
        # the primary poses vote as they are, as under an identity transform
        pose = np.array([[0.3, -1.2, 0.7, 0.1]])
        out = route_one(pose, np.array([0.9]))
        assert np.allclose(out, pose[0], atol=1e-12)

    def test_identical_votes_variance_floor(self):
        # two children casting the same vote: the parent pose is that vote.
        # The oracle's vote variance is 0 here and only its floor keeps its
        # log-likelihood finite; its pose must still agree.
        pose = np.array([[1.0, 2.0], [1.0, 2.0]])
        acts = np.array([0.5, 0.5])
        out = route_one(pose, acts)
        assert np.allclose(out, [1.0, 2.0], atol=1e-12)
        assert np.allclose(out, oracle_pose(pose, acts, 2), atol=1e-12)

    def test_seeded_instance_matches_oracle(self):
        rng = SeededRng(11)
        poses = rng.normal((4, 4))
        acts = rng.uniform((4,), 0.1, 0.9)
        out = route_one(poses, acts)
        assert np.allclose(out, oracle_pose(poses, acts), atol=1e-9)

    @pytest.mark.parametrize("mode,d_cap,p", [("vector", 4, 4),
                                              ("matrix", 9, 3)],
                             ids=["vector", "matrix"])
    def test_folded_transforms_match_oracle(self, mode, d_cap, p):
        # per-capsule vote transforms only re-parametrize the pose
        # projection: folded into it, they give the oracle's parent pose
        # on the unfolded projection and transforms
        for seed in range(10):
            rng = SeededRng(40 + seed)
            r, d_feat, n = 3, 7, 5
            feats = rng.normal((r, d_feat))
            proj = rng.normal((d_feat, n * d_cap), scale=0.5)
            act_proj = rng.normal((d_feat, n))
            transforms = rng.normal((n, p, p), scale=0.5)
            folded = fold_vote_transforms(proj, transforms, mode)
            out = batched_em_routing(*batched_primary_capsules(
                Tensor(feats), Tensor(folded.reshape(d_feat, n, d_cap)),
                Tensor(act_proj))).data
            for i in range(r):
                poses, acts = primary_capsules_oracle(feats[i], proj, act_proj)
                expected = oracle_pose(poses, acts, 2, transforms, mode)
                assert np.max(np.abs(out[i] - expected)) < 1e-12

    def test_parent_pose_within_vote_hull(self):
        rng = SeededRng(9)
        for _ in range(20):
            poses = rng.normal((6, 3))
            acts = rng.uniform((6,), 0.1, 1.0)
            out = route_one(poses, acts)
            assert np.all(out >= poses.min(axis=0) - 1e-9)
            assert np.all(out <= poses.max(axis=0) + 1e-9)

    def test_child_permutation_invariance(self):
        rng = SeededRng(10)
        poses = rng.normal((5, 4))
        acts = rng.uniform((5,), 0.1, 0.9)
        out = route_one(poses, acts)
        perm = SeededRng(99).permutation(5)
        out_p = route_one(poses[perm], acts[perm])
        assert np.allclose(out, out_p, atol=1e-9)

    def test_closed_form_matches_iterated_oracle(self):
        # the closed form is the pose after any number of EM rounds
        rng = SeededRng(13)
        poses = rng.normal((3, 4, 4))
        acts = rng.uniform((3, 4), 0.1, 0.9)
        out = batched_em_routing(Tensor(poses), Tensor(acts)).data
        for k in range(1, 6):
            for r in range(3):
                assert np.allclose(out[r], oracle_pose(poses[r], acts[r], k),
                                   atol=1e-9)

    def test_stacked_patches_equal_row_calls(self):
        rng = SeededRng(14)
        poses = rng.normal((5, 6, 4))
        acts = rng.uniform((5, 6), 0.1, 0.9)
        out = batched_em_routing(Tensor(poses), Tensor(acts)).data
        assert out.shape == (5, 4)
        for r in range(5):
            assert np.array_equal(out[r], route_one(poses[r], acts[r]))

    def test_mismatched_activations_error(self):
        with pytest.raises(DimensionError):
            batched_em_routing(Tensor(np.zeros((2, 3, 4))),
                               Tensor(np.zeros((2, 4))))


class TestInvertedRouting:
    def test_single_parent(self):
        rng = SeededRng(4)
        children = rng.normal((3, 4))
        w = rng.normal((1, 4, 4))
        p0 = rng.normal((1, 4))
        agreement = inverted_routing(Tensor(children), Tensor(p0), Tensor(w), 2)
        # with one parent routing weights are 1 regardless of agreement, so
        # the updated parent is layer_norm of the summed votes, whatever the
        # initial state
        _, oracle, _ = inverted_routing_oracle(children, np.zeros((1, 4)), w, 2)
        assert np.allclose(agreement.data, oracle, atol=1e-9)

    def test_symmetry_uniform_routing(self):
        rng = SeededRng(6)
        children = rng.normal((4, 3))
        w_single = rng.normal((3, 3))
        w = np.stack([w_single] * 5)
        p0 = np.tile(rng.normal((1, 3)), (5, 1))
        agreement = inverted_routing(Tensor(children), Tensor(p0), Tensor(w), 2)
        # identical parents agree identically, so every child routes
        # uniformly and the parents stay identical
        for col in range(1, 5):
            assert np.allclose(agreement.data[:, col], agreement.data[:, 0],
                               atol=1e-12)

    @pytest.mark.parametrize("iterations", [1, 2, 3, 4])
    def test_seeded_instance_matches_oracle(self, iterations):
        # every parent update before the last round shows in its agreement
        rng = SeededRng(5)
        children = rng.normal((3, 4))
        p0 = rng.normal((2, 4))
        w = rng.normal((2, 4, 4))
        agreement = inverted_routing(Tensor(children), Tensor(p0), Tensor(w),
                                     iterations)
        _, o_agreement, _ = inverted_routing_oracle(children, p0, w,
                                                    iterations)
        assert np.allclose(agreement.data, o_agreement, atol=1e-9)

    def test_child_permutation_equivariance(self):
        rng = SeededRng(22)
        children = rng.normal((5, 4))
        p0 = rng.normal((3, 4))
        w = rng.normal((3, 4, 4))
        agreement = inverted_routing(Tensor(children), Tensor(p0), Tensor(w), 3)
        perm = SeededRng(1).permutation(5)
        agreement_p = inverted_routing(Tensor(children[perm]), Tensor(p0),
                                       Tensor(w), 3)
        assert np.allclose(agreement.data[perm], agreement_p.data, atol=1e-9)

    def test_empty_inputs_error(self):
        with pytest.raises(DimensionError):
            inverted_routing(Tensor(np.zeros((0, 4))),
                             Tensor(np.zeros((1, 4))),
                             Tensor(np.zeros((1, 4, 4))), 1)

    def test_dim_mismatch_error(self):
        with pytest.raises(DimensionError):
            inverted_routing(Tensor(np.zeros((3, 5))),
                             Tensor(np.zeros((2, 4))),
                             Tensor(np.zeros((2, 4, 4))), 1)

    def test_zero_iterations_error(self):
        with pytest.raises(DimensionError, match="iterations >= 1"):
            inverted_routing(Tensor(np.zeros((3, 4))),
                             Tensor(np.zeros((2, 4))),
                             Tensor(np.zeros((2, 4, 4))), 0)

    def test_vote_transforms_not_3d_error(self):
        with pytest.raises(DimensionError,
                           match=r"'ade,re->rad' .* \(2, 16\) and \(3, 4\)"):
            inverted_routing(Tensor(np.zeros((3, 4))),
                             Tensor(np.zeros((2, 4))),
                             Tensor(np.zeros((2, 16))), 1)
