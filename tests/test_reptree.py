import copy

import numpy as np
import pytest

from phqreg.models import load_model, reptree as reptree_mod, save_model
from phqreg.models.reptree import (
    RepTreeModel,
    TreeNode,
    grow_tree,
    prune_tree,
    reptree_train,
)


def n_leaves(node) -> int:
    if node.is_leaf:
        return 1
    return n_leaves(node.left) + n_leaves(node.right)


def sse_oracle(node, X, y):
    """Independent pruning-set SSE: walk the tree per instance with loops."""
    total = 0.0
    for x, target in zip(X, y):
        cur = node
        while not cur.is_leaf:
            cur = cur.left if x[cur.feature] <= cur.threshold else cur.right
        total += (cur.value - target) ** 2
    return total


class TestGrowing:
    def test_step_function_depth_one_exact(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (80, 3))
        y = np.where(X[:, 1] > 0.5, 5.0, 1.0)
        m = reptree_train(X, y, seed=1)
        assert np.max(np.abs(m.predict(X) - y)) == 0.0
        assert m.tree.feature == 1
        assert m.tree.left.is_leaf and m.tree.right.is_leaf

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(1).normal(size=(20, 2))
        m = reptree_train(X, np.full(20, 3.0), seed=0)
        assert m.tree.is_leaf
        np.testing.assert_array_equal(m.predict(X), 3.0)

    def test_predictions_bounded_by_growing_targets(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        y = rng.normal(10, 5, 60)
        tree = grow_tree(X, y)
        preds = np.array([tree.predict_one(x) for x in rng.normal(size=(200, 4))])
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12

    def test_min_leaf_respected(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        monkeypatch.setattr(reptree_mod, "DEFAULT_MIN_LEAF", 5)
        tree = grow_tree(X, y)
        # every growing row reaches one leaf; count them per leaf
        counts = {}
        for x in X:
            node = tree
            while not node.is_leaf:
                node = node.left if x[node.feature] <= node.threshold else node.right
            counts[id(node)] = counts.get(id(node), 0) + 1
        assert len(counts) == n_leaves(tree) > 1
        assert min(counts.values()) >= 5

    def test_too_few_instances(self):
        with pytest.raises(ValueError, match="at least 6"):
            reptree_train(np.zeros((5, 1)), np.arange(5.0), seed=0)

    def test_predict_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        m = reptree_train(rng.normal(size=(20, 3)), rng.normal(size=20), seed=0)
        with pytest.raises(ValueError, match="expected"):
            m.predict(np.zeros((2, 5)))


class TestPruning:
    def test_pruning_never_hurts_pruning_sse_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 60
            X = rng.normal(size=(n, 4))
            y = rng.normal(size=n)  # pure noise target
            order = rng.permutation(n)
            prune_idx, grow_idx = order[:20], order[20:]
            tree = grow_tree(X[grow_idx], y[grow_idx])
            unpruned = copy.deepcopy(tree)
            prune_tree(tree, X[prune_idx], y[prune_idx])
            before = sse_oracle(unpruned, X[prune_idx], y[prune_idx])
            after = sse_oracle(tree, X[prune_idx], y[prune_idx])
            assert after <= before + 1e-12
            assert n_leaves(tree) <= n_leaves(unpruned)

    def test_noise_target_collapses_toward_root(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(90, 3))
        y = rng.normal(size=90)
        m = reptree_train(X, y, seed=2)
        grown_only = grow_tree(X, y)
        assert n_leaves(m.tree) < n_leaves(grown_only)

    def test_model_sse_fields_consistent(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        m = reptree_train(X, y, seed=3)
        # reptree_train's split: a seeded permutation, the first third prunes
        order = np.random.default_rng(3).permutation(60)
        prune_idx, grow_idx = order[:20], order[20:]
        grown = grow_tree(X[grow_idx], y[grow_idx])
        before = sse_oracle(grown, X[prune_idx], y[prune_idx])
        after = sse_oracle(m.tree, X[prune_idx], y[prune_idx])
        assert after <= before + 1e-12
        assert n_leaves(m.tree) < n_leaves(grown)
        prune_tree(grown, X[prune_idx], y[prune_idx])
        assert grown.to_dict() == m.tree.to_dict()

    def test_empty_pruning_branch_prunes_on_tie(self):
        # a subtree that never sees pruning data should collapse to a leaf
        root = TreeNode(value=1.0, feature=0, threshold=0.5)
        root.left = TreeNode(value=0.0)
        root.right = TreeNode(value=2.0, feature=0, threshold=0.8)
        root.right.left = TreeNode(value=1.5)
        root.right.right = TreeNode(value=2.5)
        X = np.array([[0.0]])  # routes left only
        y = np.array([0.0])
        prune_tree(root, X, y)
        assert root.is_leaf or root.right.is_leaf

    def test_useful_split_survives_pruning(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (120, 2))
        y = np.where(X[:, 0] > 0.5, 8.0, 2.0) + rng.normal(0, 0.1, 120)
        m = reptree_train(X, y, seed=4)
        assert not m.tree.is_leaf
        err = np.abs(m.predict(X) - y)
        # points hugging the class boundary may land in the wrong leaf;
        # everything else must be predicted tightly
        assert np.mean(err) < 0.5
        assert np.mean(err < 1.0) >= 0.95


class TestDeterminismAndPersistence:
    def test_same_seed_same_tree(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        a = reptree_train(X, y, seed=5)
        b = reptree_train(X, y, seed=5)
        assert a.to_dict() == b.to_dict()

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        y = rng.normal(10, 3, 40)
        m = reptree_train(X, y, seed=6)
        save_model(m, tmp_path / "t.json")
        back, _ = load_model(tmp_path / "t.json")
        assert isinstance(back, RepTreeModel)
        np.testing.assert_array_equal(back.predict(X), m.predict(X))
