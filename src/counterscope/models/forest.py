"""Random forest classifier built on CART trees with Gini splits.

Each tree grows on a bootstrap sample (with replacement, size n) and
considers feature_subsample random candidate features per split. Splits
minimize weighted child Gini impurity; ties break to the lowest feature
index, then the lowest threshold, so training is fully deterministic given
the seed. Per-tree RNG streams derive from (seed, tree index).

All trees grow together, in rounds. A round takes the next depth-first node
of every tree that still has one, and searches all of their splits with one
set of array operations. Each tree draws its candidate features from its own
generator in its own depth-first order, so the forest is exactly the one
that growing the trees one at a time, recursively, would give. A fitted tree
is a set of flat arrays (feature, threshold, left, right, value), the layout
scikit-learn uses.

A tree's random stream (its generator, its bootstrap rows, then one draw of
candidate features per node it tries to split) depends only on the key
(seed, n_trees, rows, width, feature_subsample), not on the values or the
labels. So the streams are memoised per process, for the last _STREAM_KEYS
keys fitted: a protocol that fits many forests of one shape (one per
screened metric, one per fold) draws them once. An entry holds n_trees
generators, n_trees * rows bootstrap rows and n_trees * feature_subsample
candidates per draw slot, the slots doubling as the deepest tree needs
them: 2.5 MB for 100 trees on 320 rows x 120 features, 20 classes.
Trees cannot change with the memo: a fit reads tree t's k-th draw in the
order the recursive descent would make it, a tree's list is extended from
its own generator only when a fit needs a draw past its end, and a drawn
but unused tail is never read. An extension that raises empties the memo,
since the entry's generators may have moved past its lists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .. import schema
from ..errors import DegenerateInputError, SchemaError
from ..seeding import derive_seed

TREES = schema.Param("trees", int, 100, 1, arg="n_trees")  # train_rf's n_trees, as --trees

# Upper bound on the elements of the arrays one batched step of the split
# search (nodes x candidates x row slots) or of prediction (trees x rows)
# works on; batches are cut to stay under it, down to a single node.
_MAX_ELEMENTS = 1 << 14

_SPLIT_KEYS = ("feature", "threshold", "left", "right")


@dataclass(eq=False)
class Tree:
    """One tree as flat arrays indexed by node id; node 0 is the root.

    Internal nodes hold a feature, a threshold and child ids (rows with
    value <= threshold go left). Leaves have feature, left and right -1 and
    hold their class distribution in `value`, whose rows for internal nodes
    are zero.
    """
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def to_dict(self) -> dict:
        """Nested form: {"dist"} for a leaf, {"feature", "threshold", "left",
        "right"} for a split."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right, value = self.left.tolist(), self.right.tolist(), self.value.tolist()

        def node(i):
            if left[i] < 0:
                return {"dist": value[i]}
            return {"feature": feature[i], "threshold": threshold[i],
                    "left": node(left[i]), "right": node(right[i])}
        return node(0)

    @classmethod
    def from_dict(cls, root, n_classes: int, n_features: int, name: str) -> "Tree":
        """Flat tree from the nested form, nodes numbered in preorder. A
        malformed node raises SchemaError naming its field, e.g.
        'trees[2].left.dist'."""
        feature, threshold, left, right, value = [], [], [], [], []

        def add(node, path):
            i = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append([0.0] * n_classes)
            schema.read(node, dict, f"field {path!r}")
            if "dist" in node:
                value[i] = schema.Param("dist", float).get(node, f"{path}.", (n_classes,))
                return i
            missing = [k for k in _SPLIT_KEYS if k not in node]
            if missing:
                raise SchemaError(f"field {path!r} has no 'dist' and lacks "
                                  f"{', '.join(repr(k) for k in missing)}")
            feature[i] = schema.Param("feature", int, choices=range(n_features)).get(
                node, f"{path}.")
            threshold[i] = schema.Param("threshold", float).get(node, f"{path}.")
            left[i] = add(node["left"], f"{path}.left")
            right[i] = add(node["right"], f"{path}.right")
            return i

        add(root, name)
        return cls(np.array(feature, dtype=np.intp), np.array(threshold, dtype=float),
                   np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                   np.array(value, dtype=float).reshape(-1, n_classes))


def read_classes(obj: dict) -> list[str]:
    """A model body's 'classes': a list of >= 2 string labels."""
    classes = schema.Param("classes", list).get(obj)
    for i, label in enumerate(classes):
        schema.read(label, str, f"field 'classes[{i}]'")
    schema.read(len(classes), int, "the length of field 'classes'", minimum=2)
    return classes


_BODY = (schema.Param("n_trees", int, minimum=1),
         schema.Param("max_depth", int, nullable=True),
         schema.Param("min_samples_split", int), schema.Param("feature_subsample", int),
         schema.Param("seed", int), schema.Param("n_features", int, minimum=1),
         schema.Param("trees", list))


@dataclass
class RandomForestModel:
    classes: list[str]
    n_trees: int
    max_depth: int | None
    min_samples_split: int
    feature_subsample: int
    seed: int
    n_features: int
    trees: list[Tree] = field(default_factory=list)

    def predict_proba(self, features) -> np.ndarray:
        X = _as_matrix(features, self.n_features)
        return _forest_proba(self.trees, X, len(self.classes))

    def predict(self, features) -> list[str]:
        proba = self.predict_proba(features)
        # argmax takes the first maximum: ties resolve to the lowest class index
        return [self.classes[i] for i in np.argmax(proba, axis=1)]

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "feature_subsample": self.feature_subsample,
            "seed": self.seed,
            "n_features": self.n_features,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RandomForestModel":
        """Model from its `to_dict()` form; a malformed body raises
        SchemaError naming the field."""
        classes = read_classes(obj)
        values = schema.fields(obj, _BODY, "a model body")
        trees = values.pop("trees")
        if values["n_trees"] != len(trees):
            raise SchemaError(f"field 'n_trees' is {values['n_trees']} but field 'trees' "
                              f"holds {len(trees)} trees")
        return cls(classes, trees=[Tree.from_dict(t, len(classes), values["n_features"],
                                                  f"trees[{i}]")
                                   for i, t in enumerate(trees)], **values)


def _forest_proba(trees: list[Tree], X: np.ndarray, n_classes: int) -> np.ndarray:
    """Mean leaf distribution over the trees. Every row descends every tree
    one level per step; the leaf distributions are added in tree order, as
    a tree-by-tree loop would add them."""
    sizes = np.array([t.feature.size for t in trees])
    offset = np.cumsum(sizes) - sizes
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    value = np.concatenate([t.value for t in trees])
    own = np.arange(feature.size)
    leaf = feature < 0
    # leaves point at themselves, so rows that reached one stay there
    left = np.where(leaf, own, np.concatenate([t.left for t in trees]) + np.repeat(offset, sizes))
    right = np.where(leaf, own, np.concatenate([t.right for t in trees]) + np.repeat(offset, sizes))
    feature = np.where(leaf, 0, feature)
    acc = np.zeros((X.shape[0], n_classes))
    step = max(1, _MAX_ELEMENTS // len(trees))
    for lo in range(0, X.shape[0], step):
        rows = np.arange(lo, min(lo + step, X.shape[0]))
        node = np.repeat(offset[:, None], rows.size, axis=1)
        while not leaf[node].all():
            go_left = X[rows, feature[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        for t in range(len(trees)):
            acc[lo:lo + step] += value[node[t]]
    return acc / len(trees)


def _as_matrix(features, expect_width=None) -> np.ndarray:
    X = np.asarray(getattr(features, "values", features), dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if expect_width is not None and X.shape[1] != expect_width:
        raise DegenerateInputError(
            f"feature width {X.shape[1]} != model width {expect_width}")
    return X


def encode_labels(labels):
    """Sorted class list plus integer codes; needs >= 2 distinct classes."""
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise DegenerateInputError("need >= 2 classes")
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.array([index[l] for l in labels], dtype=int)


def training_set(features, labels):
    """(X, classes, y_idx): the features as a matrix of one row per label,
    and the labels as encode_labels gives them."""
    X = _as_matrix(features)
    labels = list(labels)
    if X.shape[0] != len(labels):
        raise DegenerateInputError("features rows != labels length")
    return (X, *encode_labels(labels))


def train_rf(features, labels, n_trees: int = TREES.default,
             max_depth: int | None = None, min_samples_split: int = 2,
             feature_subsample: int | None = None, seed: int = 0) -> RandomForestModel:
    """Grow a seeded forest; equal seeds give equal forests."""
    TREES.read(n_trees)
    X, classes, y_idx = training_set(features, labels)
    d = X.shape[1]
    m = feature_subsample if feature_subsample is not None else int(np.ceil(np.sqrt(d)))
    m = max(1, min(m, d))
    grower = _ForestGrower(X, y_idx, len(classes), max_depth, min_samples_split, m)
    trees = grower.grow(_streams((seed, n_trees, X.shape[0], d, m)))
    return RandomForestModel(classes, n_trees, max_depth, min_samples_split,
                             m, seed, d, trees)


# How many keys' streams the memo keeps; the least recently fitted goes first.
# The app attack chain fits three: screen's forests, train's, and the one
# shape that cv, lopo and defend curve share.
_STREAM_KEYS = 4


@functools.lru_cache(maxsize=_STREAM_KEYS)
def _streams(key) -> _TreeStreams:
    """The memo's entry for (seed, n_trees, rows, width, feature_subsample)."""
    return _TreeStreams(key)


class _TreeStreams:
    """Every tree's random stream for one key: its generator, its bootstrap
    rows (`boots`, tree after tree, read-only) and the sorted candidate
    features of its draws so far (tree t's k-th is `_cand[t, k]`, for k
    below `_drawn[t]`)."""

    def __init__(self, key):
        seed, n_trees, n, self.d, self.m = key
        self.rngs = [np.random.default_rng(derive_seed(seed, t)) for t in range(n_trees)]
        self.boots = np.concatenate([rng.integers(0, n, n) for rng in self.rngs])
        self.boots.flags.writeable = False
        self._drawn = np.zeros(n_trees, dtype=np.intp)
        self._cand = np.zeros((n_trees, 8, self.m), dtype=np.intp)

    def candidates(self, trees, k) -> np.ndarray:
        """(len(trees), m) sorted candidates of draw k[i] of tree trees[i],
        a new array; the trees are distinct and each k[i] is at most
        `_drawn[trees[i]]`."""
        short = trees[k >= self._drawn[trees]]
        if short.size:
            try:
                self._extend(short)
            except BaseException:
                _streams.cache_clear()  # generators may have moved past their lists
                raise
        return self._cand[trees, k]

    def _extend(self, trees):
        """One more draw for each of the trees."""
        new = np.sort(np.array([self.rngs[t].permutation(self.d)[:self.m]
                                for t in trees.tolist()]), axis=1)
        at = self._drawn[trees]
        T, cap, m = self._cand.shape
        if at.max() >= cap:
            grown = np.zeros((T, 2 * cap, m), dtype=np.intp)
            grown[:, :cap] = self._cand
            self._cand = grown
        self._cand[trees, at] = new
        self._drawn[trees] += 1


class _ForestGrower:
    """Lockstep growth of a forest over one training matrix.

    Node rows are index arrays into the matrix (bootstrap rows repeat).
    Every new node is counted at once; a node that is pure, too small or at
    the depth limit becomes a leaf without touching its tree's generator.
    Any other node waits on its tree's stack and, when popped, reads its
    tree's next candidate draw and is split, or becomes a leaf if no
    candidate separates its rows.
    """

    def __init__(self, X, y, n_classes, max_depth, min_samples_split, m):
        n, d = X.shape
        # Row n is a NaN pad: a stable sort puts it after every real value,
        # NaNs included, and NaN never compares below anything, so padded
        # slots never form a split boundary. Its class n_classes is past
        # the real ones.
        self.XT = np.vstack([X, np.full((1, d), np.nan)]).T.copy()
        self.y = np.append(y, n_classes)
        self.n, self.d, self.C, self.m = n, d, n_classes, m
        self.max_depth, self.min_samples_split = max_depth, min_samples_split

    def grow(self, streams: _TreeStreams) -> list[Tree]:
        T = len(streams.rngs)
        self.streams = streams
        self.stacks = [[] for _ in range(T)]
        self.next_id = np.ones(T, dtype=np.intp)
        self.used = np.zeros(T, dtype=np.intp)   # candidate draws read, per tree
        self.records = []
        boots = streams.boots
        tree_of = np.repeat(np.arange(T), self.n)
        zeros = np.zeros(T, dtype=np.intp)
        self._admit(np.arange(T), zeros, zeros, boots, np.full(T, self.n),
                    self._counts(tree_of, boots, T))
        while True:
            active = [t for t in range(T) if self.stacks[t]]
            if not active:
                break
            self._round([(t, self.stacks[t].pop()) for t in active])
        return self._assemble()

    def _counts(self, seg, rows, n_seg):
        """(n_seg, C) class counts of the rows, grouped by segment id."""
        return np.bincount(seg * self.C + self.y[rows],
                           minlength=n_seg * self.C).reshape(n_seg, self.C)

    def _admit(self, trees, ids, depth, flat, sizes, counts):
        """Record the new nodes (one per tree at most) that are leaves by
        their counts alone; push the others on their trees' stacks."""
        leaf = (sizes < self.min_samples_split) | (np.count_nonzero(counts, axis=1) == 1)
        if self.max_depth is not None:
            leaf |= depth >= self.max_depth
        if leaf.any():
            k = np.flatnonzero(leaf)
            none = np.full(k.size, -1, dtype=np.intp)
            self.records.append((trees[k], ids[k], none, np.zeros(k.size), none, none,
                                 counts[k] / counts[k].sum(axis=1, keepdims=True)))
        ends = np.cumsum(sizes)
        wait = np.flatnonzero(~leaf)[::-1]
        # Reversed, so that a tree's right child is pushed before its left
        # one and the left subtree grows first, as in a recursive descent.
        # The rows are copied, so the stacks hold no view into a whole
        # round's rows.
        for t, i, dep, lo, hi in zip(trees[wait].tolist(), ids[wait].tolist(),
                                     depth[wait].tolist(), (ends - sizes)[wait].tolist(),
                                     ends[wait].tolist()):
            self.stacks[t].append((i, dep, flat[lo:hi].copy()))

    def _round(self, entries):
        P = len(entries)
        trees = np.array([t for t, _ in entries])
        ids = np.array([e[0] for _, e in entries])
        depth = np.array([e[1] for _, e in entries])
        rows = [e[2] for _, e in entries]
        sizes = np.array([r.size for r in rows])
        flat = np.concatenate(rows)
        seg = np.repeat(np.arange(P), sizes)
        counts = self._counts(seg, flat, P)
        cand = self.streams.candidates(trees, self.used[trees])
        self.used[trees] += 1
        feature, threshold = self._best_splits(flat, sizes, counts, cand)
        split = feature >= 0
        q = np.flatnonzero(split)
        left = np.full(P, -1, dtype=np.intp)
        left[q] = self.next_id[trees[q]]
        self.next_id[trees[q]] += 2
        right = np.where(split, left + 1, -1)
        dist = counts / counts.sum(axis=1, keepdims=True)
        self.records.append((trees, ids, feature, np.where(split, threshold, 0.0), left,
                             right, np.where(split[:, None], 0.0, dist)))
        if not q.size:
            return
        # children: rows of split nodes, stably grouped as (node, left/right)
        keep = split[seg]
        flat, seg = flat[keep], seg[keep]
        go_right = ~(self.XT[feature[seg], flat] <= threshold[seg])
        key = 2 * seg + go_right
        order = np.argsort(key, kind="stable")
        flat, key = flat[order], key[order]
        children = np.stack([2 * q, 2 * q + 1], axis=1).ravel()
        self._admit(np.repeat(trees[q], 2), np.stack([left[q], right[q]], axis=1).ravel(),
                    np.repeat(depth[q] + 1, 2), flat,
                    np.bincount(key, minlength=2 * P)[children],
                    self._counts(key, flat, 2 * P)[children])

    def _best_splits(self, flat, sizes, counts, cand):
        """(feature, threshold) of each node's lowest-cost Gini split, with
        feature -1 where no candidate separates the rows.

        Nodes are taken largest first, in batches padded to the power of two
        at or above the batch's largest node, so small nodes share a batch
        and one large node cannot blow up the padding of many. Each
        candidate column is sorted stably; the class counts left of every
        boundary come from each row's rank within its class in that order,
        so sum_c left_c**2 and sum_c right_c**2 are the exact integers the
        per-class cumulative counts give, and the cost is the same
        floating-point expression, element for element. The first minimum
        per column gives the lowest threshold, the first minimal column the
        lowest feature.
        """
        P, m = len(sizes), self.m
        feature = np.full(P, -1, dtype=np.intp)
        threshold = np.zeros(P)
        starts = np.cumsum(sizes) - sizes
        flat_ext = np.append(flat, self.n)
        # per node: class totals and where each class starts once the rows
        # are grouped by class, the pad class last
        totals = np.concatenate([counts, np.zeros((P, 1), dtype=np.intp)], axis=1)
        class_start = np.concatenate([np.cumsum(counts, axis=1) - counts, sizes[:, None]],
                                     axis=1)
        sum_sq = (counts ** 2).sum(axis=1)
        by_size = np.argsort(-sizes, kind="stable")
        lo = 0
        while lo < P:
            S = 1 << max(1, int(sizes[by_size[lo]] - 1).bit_length())
            k = by_size[lo:lo + max(1, _MAX_ELEMENTS // (m * S))]
            feature[k], threshold[k] = self._search(
                S, flat_ext, starts[k], sizes[k], totals[k], class_start[k], sum_sq[k], cand[k])
            lo += k.size
        return feature, threshold

    def _search(self, S, flat_ext, starts, sizes, totals, class_start, sum_sq, cand):
        K, m = cand.shape
        node = np.arange(K)[:, None, None]
        col = np.arange(m)[None, :, None]
        slot = np.arange(S)
        idx = flat_ext[np.where(slot < sizes[:, None], starts[:, None] + slot,
                                flat_ext.size - 1)]                      # (K, S)
        values = self.XT[cand[:, :, None], idx[:, None, :]]             # (K, m, S)
        order = np.argsort(values, axis=2, kind="stable")
        vs = values[node, col, order]
        del values
        lab = self.y[idx[node, order]]
        del order
        # each row's rank among the rows of its class, in sorted order: the
        # sum over classes of left_c**2 grows by 2*rank+1 at that row, and
        # the sum of total_c*left_c by the row's class total
        by_class = np.argsort(lab, axis=2, kind="stable")
        step = class_start[node, lab[node, col, by_class]]
        np.subtract(slot, step, out=step)
        step *= 2
        step += 1
        rank_step = np.empty_like(step)
        rank_step[node, col, by_class] = step
        del by_class, step
        left_sq = np.cumsum(rank_step, axis=2)[:, :, :-1]
        del rank_step
        right_sq = np.cumsum(totals[node, lab], axis=2)[:, :, :-1]
        del lab
        right_sq *= -2
        right_sq += left_sq
        right_sq += sum_sq[:, None, None]
        left_n = slot[1:] + 0.0
        # right_n < 1 only past a node's last row, where the cost is unused
        right_n = np.maximum(sizes[:, None, None] - left_n, 1.0)
        cost = left_sq / left_n
        np.subtract(left_n, cost, out=cost)
        del left_sq
        right = right_sq / right_n
        np.subtract(right_n, right, out=right)
        cost += right
        del right, right_sq
        cost[~(vs[:, :, :-1] < vs[:, :, 1:])] = np.inf
        pos = np.argmin(cost, axis=2)                                  # (K, m)
        rows = np.arange(K)
        col_cost = cost[rows[:, None], np.arange(m), pos]
        best = np.argmin(col_cost, axis=1)
        b = pos[rows, best]
        found = np.isfinite(col_cost[rows, best])
        thr = (vs[rows, best, b] + vs[rows, best, b + 1]) / 2.0
        return np.where(found, cand[rows, best], -1), np.where(found, thr, 0.0)

    def _assemble(self) -> list[Tree]:
        """Per-tree views into forest-wide arrays, node ids in place."""
        sizes = self.next_id
        offset = np.cumsum(sizes) - sizes
        N = int(sizes.sum())
        feature, left, right = (np.empty(N, dtype=np.intp) for _ in range(3))
        threshold, value = np.empty(N), np.empty((N, self.C))
        while self.records:
            trees, ids, *fields = self.records.pop()
            at = offset[trees] + ids
            for dest, src in zip((feature, threshold, left, right, value), fields):
                dest[at] = src
        return [Tree(feature[lo:hi], threshold[lo:hi], left[lo:hi], right[lo:hi], value[lo:hi])
                for lo, hi in zip(offset.tolist(), (offset + sizes).tolist())]
