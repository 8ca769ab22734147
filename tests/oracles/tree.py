"""Tree oracles: per-feature split search, node walks, ensemble sums.

``fit_binned`` has the signature of :meth:`RegressionTree.fit_binned`,
so a test can monkeypatch it onto the class and fit whole ensembles
through the oracle.  The histogram kernel must grow byte-identical
node tables and consume the tree's RNG identically; the flat predict
layer must return byte-identical predictions to the walks below, and
:func:`repro.models.flat.accumulate` must return byte-identical sums
to the per-tree loop in :func:`accumulate`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

import numpy as np

from repro.models.tree import BinnedDataset, RegressionTree, _Node


def fit_binned(
    tree: RegressionTree,
    binner: BinnedDataset,
    y: np.ndarray,
    sample_indices: Optional[np.ndarray] = None,
    feature_indices: Optional[np.ndarray] = None,
) -> RegressionTree:
    """The original one-node-at-a-time best-first growth loop."""
    y = np.asarray(y, dtype=float)
    if len(y) != binner.n_samples:
        raise ValueError("y length must match the binned dataset")
    if len(y) == 0:
        raise ValueError("cannot fit on an empty dataset")
    tree._binner = binner
    tree._flat = None
    idx = (
        np.arange(binner.n_samples)
        if sample_indices is None
        else np.asarray(sample_indices)
    )
    features = (
        np.arange(binner.n_features)
        if feature_indices is None
        else np.asarray(feature_indices)
    )

    tree._nodes = [_Node(value=float(np.mean(y[idx])))]
    # Best-first frontier: (-gain, tiebreak, node_id, idx, split_info)
    frontier: list = []
    counter = itertools.count()
    first = best_split(tree, binner, y, idx, features)
    if first is not None:
        heapq.heappush(frontier, (-first[0], next(counter), 0, idx, first))

    splits_done = 0
    while frontier and splits_done < tree.tree_complexity:
        neg_gain, _, node_id, node_idx, split = heapq.heappop(frontier)
        gain, feature, bin_threshold, left_idx, right_idx = split
        node = tree._nodes[node_id]
        node.feature = int(feature)
        node.bin_threshold = int(bin_threshold)
        node.threshold = binner.threshold(int(feature), int(bin_threshold))
        node.left = len(tree._nodes)
        tree._nodes.append(_Node(value=float(np.mean(y[left_idx]))))
        node.right = len(tree._nodes)
        tree._nodes.append(_Node(value=float(np.mean(y[right_idx]))))
        splits_done += 1

        for child_id, child_idx in ((node.left, left_idx), (node.right, right_idx)):
            child_split = best_split(tree, binner, y, child_idx, features)
            if child_split is not None:
                heapq.heappush(
                    frontier,
                    (-child_split[0], next(counter), child_id, child_idx, child_split),
                )
    return tree


def best_split(
    tree: RegressionTree,
    binner: BinnedDataset,
    y: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
):
    """Best (gain, feature, bin, left_idx, right_idx) or None.

    Gain is the decrease in sum of squared errors from splitting,
    computed from cumulative histogram sums, one feature at a time.
    """
    n = len(idx)
    if n < 2 * tree.min_samples_leaf:
        return None
    if tree.split_features is not None and tree.split_features < len(features):
        features = tree._rng.choice(
            features, size=tree.split_features, replace=False
        )
    y_node = y[idx]
    total_sum = y_node.sum()
    best_gain = 1e-12
    best = None
    codes = binner.codes[idx]
    for feature in features:
        nb = int(binner.n_bins[feature])
        if nb < 2:
            continue
        col = codes[:, feature]
        counts = np.bincount(col, minlength=nb).astype(float)
        sums = np.bincount(col, weights=y_node, minlength=nb)
        left_counts = np.cumsum(counts)[:-1]
        left_sums = np.cumsum(sums)[:-1]
        right_counts = n - left_counts
        right_sums = total_sum - left_sums
        valid = (left_counts >= tree.min_samples_leaf) & (
            right_counts >= tree.min_samples_leaf
        )
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = (
                left_sums**2 / left_counts
                + right_sums**2 / right_counts
                - total_sum**2 / n
            )
        gain = np.where(valid, gain, -np.inf)
        j = int(np.argmax(gain))
        if gain[j] > best_gain:
            best_gain = float(gain[j])
            mask = col <= j
            best = (best_gain, int(feature), j, idx[mask], idx[~mask])
    return best


def predict_binned_walk(tree: RegressionTree, codes: np.ndarray) -> np.ndarray:
    """Node-walk prediction from pre-binned codes."""
    if not tree._nodes:
        raise RuntimeError("tree is not fitted")
    n = len(codes)
    out = np.empty(n, dtype=float)
    node_ids = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    while len(active):
        still = []
        for node_id in np.unique(node_ids[active]):
            node = tree._nodes[node_id]
            members = active[node_ids[active] == node_id]
            if node.is_leaf:
                out[members] = node.value
                continue
            go_left = codes[members, node.feature] <= node.bin_threshold
            node_ids[members[go_left]] = node.left
            node_ids[members[~go_left]] = node.right
            still.append(members)
        active = np.concatenate(still) if still else np.empty(0, dtype=np.int64)
    return out


def predict_walk(model, X: np.ndarray) -> np.ndarray:
    """Per-tree node-walk prediction of a :class:`GradientBoostedTrees`."""
    if model._binner is None:
        raise RuntimeError("model is not fitted")
    if not model._trees and model._flat is not None and model._flat.n_trees:
        raise RuntimeError(
            "node-walk path needs per-tree state; this model was "
            "restored from flat sections"
        )
    codes = model._binner.bin_matrix(np.asarray(X, dtype=float))
    out = np.full(len(codes), model._base)
    for tree in model._trees:
        out += model.learning_rate * predict_binned_walk(tree, codes)
    return out


def flat_leaf_values(forest, codes: np.ndarray, n_trees: Optional[int] = None) -> np.ndarray:
    """Masked level-by-level walk of a :class:`FlatForest`'s node table.

    Every position still on an internal node advances one level per
    iteration until none is; needs only the stored sections, so it
    also checks section-restored forests that carry no per-tree state.
    """
    codes = np.asarray(codes)
    n = len(codes)
    roots = forest.roots if n_trees is None else forest.roots[:n_trees]
    pos = np.broadcast_to(roots[:, None], (len(roots), n)).astype(np.int32)
    rows = np.arange(n)[None, :]
    while True:
        feat = forest.feature[pos]
        active = feat >= 0
        if not active.any():
            break
        code = codes[rows, np.where(active, feat, 0)]
        step = forest.children[2 * pos + (code > forest.threshold[pos])]
        pos = np.where(active, step, pos)
    return forest.value[pos]


def accumulate(base: float, scale: float, leaf_values: np.ndarray) -> np.ndarray:
    """The per-tree ensemble loop: ``out += scale * tree_pred``, in order."""
    leaf_values = np.asarray(leaf_values, dtype=float)
    out = np.full(leaf_values.shape[1], float(base))
    for row in scale * leaf_values:
        out += row
    return out
