"""Regression tree grown by variance reduction, pruned by reduced error.

The data is split by seed into a growing set (2/3) and a pruning set (1/3).
Growing: at every node the split (feature, midpoint between consecutive
distinct values) maximizing

    dVar = Var(node) - (n_L * Var(L) + n_R * Var(R)) / n

is taken, subject to leaves of at least DEFAULT_MIN_LEAF rows. Pruning:
bottom-up, a subtree is replaced by a leaf holding its growing-set mean
whenever the pruning-set SSE does not increase (ties prune), so pruning-set
SSE never goes up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_MIN_LEAF = 2
DEFAULT_PRUNE_FRACTION = 1.0 / 3.0


@dataclass
class TreeNode:
    value: float  # growing-set mean at this node
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def predict_one(self, x) -> float:
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def to_dict(self) -> dict:
        d = {"value": self.value}
        if not self.is_leaf:
            d.update(feature=self.feature, threshold=self.threshold,
                     left=self.left.to_dict(), right=self.right.to_dict())
        return d

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "TreeNode":
        node = cls(value=float(d["value"]))
        if "feature" in d:
            node.feature = int(d["feature"])
            if not 0 <= node.feature < n_features:
                raise ValueError(f"split on feature {node.feature} of {n_features}")
            node.threshold = float(d["threshold"])
            node.left = cls.from_dict(d["left"], n_features)
            node.right = cls.from_dict(d["right"], n_features)
        return node


def grow_tree(X: np.ndarray, y: np.ndarray) -> TreeNode:
    """Greedy variance-reduction tree on the growing set."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    node = TreeNode(value=float(y.mean()))
    var = float(np.var(y))
    if len(y) < 2 * DEFAULT_MIN_LEAF or var == 0.0:
        return node

    best = None  # (dvar, feature, threshold)
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs, ys = X[order, f], y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys**2)
        total_sum, total_sq, n = csum[-1], csq[-1], len(ys)
        for pos in range(DEFAULT_MIN_LEAF, n - DEFAULT_MIN_LEAF + 1):
            if xs[pos - 1] == xs[pos]:
                continue
            nl, nr = pos, n - pos
            sl, sql = csum[pos - 1], csq[pos - 1]
            sr, sqr = total_sum - sl, total_sq - sql
            var_l = sql / nl - (sl / nl) ** 2
            var_r = sqr / nr - (sr / nr) ** 2
            dvar = var - (nl * var_l + nr * var_r) / n
            if best is None or dvar > best[0] + 1e-15:
                best = (dvar, f, (xs[pos - 1] + xs[pos]) / 2.0)

    if best is None or best[0] <= 0.0:
        return node
    node.feature, node.threshold = best[1], best[2]
    mask = X[:, node.feature] <= node.threshold
    node.left = grow_tree(X[mask], y[mask])
    node.right = grow_tree(X[~mask], y[~mask])
    return node


def prune_tree(node: TreeNode, X: np.ndarray, y: np.ndarray) -> float:
    """Reduced-error pruning in place; returns the node's pruning-set SSE."""
    if node.is_leaf:
        return float(((y - node.value) ** 2).sum()) if len(y) else 0.0
    mask = X[:, node.feature] <= node.threshold
    sse_children = prune_tree(node.left, X[mask], y[mask]) + prune_tree(node.right, X[~mask], y[~mask])
    sse_leaf = float(((y - node.value) ** 2).sum()) if len(y) else 0.0
    if sse_leaf <= sse_children:
        node.feature = node.threshold = node.left = node.right = None
        return sse_leaf
    return sse_children


@dataclass
class RepTreeModel:
    tree: TreeNode
    n_features: int
    kind: str = field(default="reptree", init=False)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) inputs, got {X.shape}")
        return np.array([self.tree.predict_one(x) for x in X])

    def to_dict(self) -> dict:
        return {"tree": self.tree.to_dict(), "n_features": self.n_features}

    @classmethod
    def from_dict(cls, d: dict) -> "RepTreeModel":
        n_features = int(d["n_features"])
        return cls(TreeNode.from_dict(d["tree"], n_features), n_features)


def reptree_train(X, y, seed: int) -> RepTreeModel:
    """Grow on a seeded 2/3 split, prune on the held-out 1/3."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with one target per row")
    if len(y) < 6:
        raise ValueError(f"need at least 6 instances to split growing/pruning, got {len(y)}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    n_prune = max(int(round(len(y) * DEFAULT_PRUNE_FRACTION)), 1)
    prune_idx, grow_idx = order[:n_prune], order[n_prune:]

    tree = grow_tree(X[grow_idx], y[grow_idx])
    prune_tree(tree, X[prune_idx], y[prune_idx])
    return RepTreeModel(tree, X.shape[1])
