"""Recursive reference for the random forest, kept for equivalence tests.

This is the node-at-a-time CART forest the package used before its trees
grew in lockstep over flat arrays: one tree at a time, depth first, with a
per-feature Gini scan at every node. `train_reference` returns the nested
`to_dict()` form of each tree and `reference_proba` routes rows through
those dicts, so the tests can compare the package's forest with it bit for
bit.
"""

from __future__ import annotations

import numpy as np

from counterscope.models.forest import encode_labels
from counterscope.seeding import derive_seed


def _best_split(X, onehot, candidates):
    """Lowest-weighted-Gini split among candidate features.

    Returns (feature, threshold) or None when no candidate separates the
    rows. First strict improvement wins, so scanning candidates in ascending
    index order and thresholds in ascending value order implements the
    lowest-index / lowest-threshold tie rule.
    """
    n = X.shape[0]
    best_cost = np.inf
    best = None
    for f in candidates:
        v = X[:, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        boundaries = np.nonzero(vs[:-1] < vs[1:])[0]
        if boundaries.size == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)
        total = cum[-1]
        left_n = boundaries + 1.0
        right_n = n - left_n
        left_counts = cum[boundaries]
        right_counts = total - left_counts
        cost = (left_n - (left_counts ** 2).sum(axis=1) / left_n) \
            + (right_n - (right_counts ** 2).sum(axis=1) / right_n)
        k = int(np.argmin(cost))  # first occurrence -> lowest threshold
        if cost[k] < best_cost:
            best_cost = cost[k]
            b = boundaries[k]
            best = (int(f), float((vs[b] + vs[b + 1]) / 2.0))
    return best


def _grow(X, y_idx, onehot, n_classes, rng, max_depth, min_samples_split,
          feature_subsample, depth):
    counts = np.bincount(y_idx, minlength=n_classes).astype(float)
    node_dist = counts / counts.sum()
    n = y_idx.size
    if (n < min_samples_split
            or np.count_nonzero(counts) == 1
            or (max_depth is not None and depth >= max_depth)):
        return {"dist": [float(p) for p in node_dist]}
    candidates = np.sort(rng.permutation(X.shape[1])[:feature_subsample])
    split = _best_split(X, onehot, candidates)
    if split is None:
        return {"dist": [float(p) for p in node_dist]}
    f, threshold = split
    mask = X[:, f] <= threshold
    left = _grow(X[mask], y_idx[mask], onehot[mask], n_classes, rng,
                 max_depth, min_samples_split, feature_subsample, depth + 1)
    right = _grow(X[~mask], y_idx[~mask], onehot[~mask], n_classes, rng,
                  max_depth, min_samples_split, feature_subsample, depth + 1)
    return {"feature": f, "threshold": threshold, "left": left, "right": right}


def train_reference(X, labels, n_trees, max_depth=None, min_samples_split=2,
                    feature_subsample=None, seed=0):
    """Nested tree dicts, one tree after another, as the old forest grew them."""
    X = np.asarray(X, dtype=float)
    classes, y_idx = encode_labels(list(labels))
    n, d = X.shape
    m = feature_subsample if feature_subsample is not None else int(np.ceil(np.sqrt(d)))
    m = max(1, min(m, d))
    onehot_full = np.eye(len(classes))[y_idx]
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, t))
        boot = rng.integers(0, n, n)
        trees.append(_grow(X[boot], y_idx[boot], onehot_full[boot], len(classes), rng,
                           max_depth, min_samples_split, m, 0))
    return trees


def _tree_dist(root, X, n_classes):
    """Leaf distribution for every row, routed with masked index batches."""
    out = np.empty((X.shape[0], n_classes))
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if "dist" in node:
            out[idx] = node["dist"]
        else:
            mask = X[idx, node["feature"]] <= node["threshold"]
            stack.append((node["left"], idx[mask]))
            stack.append((node["right"], idx[~mask]))
    return out


def reference_proba(trees, X, n_classes):
    """Mean leaf distribution, added tree by tree in tree order."""
    X = np.asarray(X, dtype=float)
    acc = np.zeros((X.shape[0], n_classes))
    for tree in trees:
        acc += _tree_dist(tree, X, n_classes)
    return acc / len(trees)
