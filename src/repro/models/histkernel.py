"""Histogram-kernel split search: binned tree *fitting* at NumPy speed.

Fitting is the dominant cost of every collect→refit cycle.  The
semantic reference for split search — a per-feature Python loop that
evaluates one node at a time — lives in ``tests/oracles/tree.py``; this
module is the one production implementation, a histogram kernel:

* **All features in one shot** — a node's per-``(feature, bin)``
  count/sum histograms are built by a single ``np.bincount`` over flat
  cell indices ``code + feature * nb_max``, instead of one Python
  iteration per feature.  The index matrix is built once per
  :class:`~repro.models.tree.BinnedDataset` (``flat_index``), so a
  node's indices are one row gather.
* **Paired scoring** — when a split commits, *both* children are
  scored together: one weighted bincount over their concatenated cell
  indices (the right child's offset past the left's histogram) fills
  both sum histograms, and one :func:`_best_splits` call selects both
  splits from the stacked ``(2, features, bins)`` tables.  The tree
  still grows in exactly the reference's best-first order, see the
  determinism notes below.
* **Parent-histogram reuse** — integer count histograms satisfy
  ``counts_parent == counts_left + counts_right`` exactly, so the
  larger child's counts are derived by subtraction and only the
  smaller child is counted; the float *sum* histograms are always
  recomputed, because subtracting them would reorder float additions
  and break bit-equality.
* **No work no split can use** — the children of a tree's last
  allowed split are never histogrammed (:meth:`FrontierEvaluator.skip_pair`
  only consumes the mtry draws the reference made for them).

Determinism
-----------
The kernel must pick **byte-identical splits** to the reference —
``report_fingerprint`` equality across dedup, crash-resume, and
scenario replay all depend on fitted models being bit-for-bit stable.
Three facts make the vectorized path exact:

1. ``np.bincount`` (weighted or not) accumulates sequentially in input
   order, so a flattened sample-major bincount deposits each cell's
   contributions in the same ascending-row order as the reference's
   per-feature bincount — identical float sums.
   Offsetting the second child's cells keeps that order per cell, so
   one bincount for a pair sums exactly like two.
2. ``np.cumsum`` along an axis accumulates each lane sequentially,
   matching the reference's per-feature prefix sums; per-node scalars
   (``y[idx].sum()``, leaf means) are computed by the very same
   ``np.sum`` pairwise reduction over the very same gathers.
3. Gain comparison replays the reference's scan semantics exactly:
   first-max-wins inside a feature, strictly-greater first-wins across
   features in candidate order (together: one first-max ``np.argmax``
   over a node's feature-major gains), a feature holding a NaN gain
   never selected, and the same ``1e-12`` floor.

Best-first growth bounds the batch width: a popped node's children must
be scored before the next heap pop (their gains compete for it), so
the widest frontier the reference semantics admit is the just-expanded
child pair — full per-depth batching would change *which* nodes get
split whenever ``tree_complexity`` binds.  DESIGN.md §17 carries the
full argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.telemetry import events as tele
from repro.telemetry.metrics import get_registry

__all__ = ["FrontierEvaluator", "observe_fit"]

#: Gain floor shared with the reference: a split must beat this strictly.
MIN_GAIN = 1e-12


# ----------------------------------------------------------------------
# NumPy kernel
# ----------------------------------------------------------------------
def _best_splits(
    counts: np.ndarray,
    sums: np.ndarray,
    totals: List[float],
    sizes: List[int],
    min_samples_leaf: int,
) -> List[Tuple[int, int, float]]:
    """Reference-exact split selection over stacked histograms.

    ``counts``/``sums`` are ``(nodes, features, bins)``; ``totals`` and
    ``sizes`` are each node's target sum and row count.  Returns one
    ``(feature_position, bin, gain)`` per node, position ``-1`` when no
    candidate strictly beats the gain floor.  Bins a feature does not
    use (rectangular padding to ``nb_max``) have zero counts, so their
    split positions fail the ``right >= min_samples_leaf`` check and go
    to ``-inf`` — exactly as if they were never enumerated.

    Selection replays the reference scan — per-feature first-max bin,
    then strictly-greater first-wins across features in candidate
    order — as one first-max ``np.argmax`` over each node's
    feature-major gains: the first cell holding the node's maximum is
    the first feature whose best gain is that maximum, at its first
    best bin.  A NaN gain disqualifies its whole feature, as the
    reference's NaN-first ``argmax`` followed by ``NaN > best`` did.
    Every operation is elementwise or along the bin axis, so stacking
    nodes changes no float result; the per-node constant
    ``total**2 / n`` is formed from the same scalars as the reference.
    """
    left_counts = np.cumsum(counts, axis=2)[:, :, :-1]
    left_sums = np.cumsum(sums, axis=2)[:, :, :-1]
    n = np.array(sizes, dtype=np.int64)[:, None, None]
    right_counts = n - left_counts
    right_sums = np.array(totals)[:, None, None] - left_sums
    parent = np.array([total**2 / size for total, size in zip(totals, sizes)])
    valid = (left_counts >= min_samples_leaf) & (right_counts >= min_samples_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (
            left_sums**2 / left_counts
            + right_sums**2 / right_counts
            - parent[:, None, None]
        )
    gain[~valid] = -np.inf
    nan = np.isnan(gain)
    if nan.any():
        gain[nan.any(axis=2)] = -np.inf
    bins = gain.shape[2]
    gain = gain.reshape(len(gain), -1)
    out = []
    for node, cell in enumerate(np.argmax(gain, axis=1).tolist()):
        best = gain[node, cell]
        if best > MIN_GAIN:
            out.append((cell // bins, cell % bins, float(best)))
        else:
            out.append((-1, -1, 0.0))
    return out


class FrontierEvaluator:
    """Batched split evaluation for one :meth:`fit_binned` call.

    The tree's best-first loop asks it to score the root, then — after
    each committed split — both new children in one frontier batch:
    one weighted bincount fills both children's sum histograms (the
    right child's cells offset past the left's) and one
    :func:`_best_splits` call selects both splits.  When every node
    sees the full feature set (no random-forest subsampling,
    ``features`` is the identity) it remembers each scored node's
    integer count histogram, so only the smaller child is counted and
    the larger child's *counts* come from exact integer subtraction
    against the parent.  Float sum histograms are never subtracted.
    """

    def __init__(
        self,
        binner,
        y: np.ndarray,
        min_samples_leaf: int,
        rng: np.random.Generator,
        split_features: Optional[int],
        features: np.ndarray,
    ):
        self.binner = binner
        self.y = y
        self.min_samples_leaf = min_samples_leaf
        self.rng = rng
        self.split_features = split_features
        self.features = np.asarray(features)
        self.nb_max = int(binner.n_bins.max()) if binner.n_features else 0
        #: Candidate features are drawn fresh per node iff the reference
        #: would have drawn them (same condition, same RNG stream).
        self.draws = (
            split_features is not None and split_features < len(self.features)
        )
        #: Candidates per node, and one ``nb_max`` histogram row each.
        self.width = split_features if self.draws else len(self.features)
        self.cells = self.width * self.nb_max
        #: Parent-count reuse needs every node scored on the identical,
        #: identity-ordered feature set.
        self.full = (
            not self.draws
            and len(self.features) == binner.n_features
            and bool(np.array_equal(self.features, np.arange(binner.n_features)))
        )
        #: node_id -> full-feature integer count histogram (full mode).
        self._counts: Dict[int, np.ndarray] = {}

    # -- evaluation ----------------------------------------------------
    def evaluate(self, node_id: int, idx: np.ndarray):
        """Best split for one node, as the reference tuple
        ``(gain, feature, bin, left_idx, right_idx)`` or ``None``."""
        if len(idx) < 2 * self.min_samples_leaf:
            return None
        return self._score([(node_id, idx, self._draw())], None)[0]

    def evaluate_pair(
        self,
        parent_id: int,
        left_id: int,
        left_idx: np.ndarray,
        right_id: int,
        right_idx: np.ndarray,
    ):
        """Score a committed split's two children in one frontier batch.

        The size guard and any RNG draw run left-then-right — exactly
        the order of the reference's sequential child loop.
        """
        parent_counts = self._counts.pop(parent_id, None)
        plans = [
            None if len(idx) < 2 * self.min_samples_leaf else (node_id, idx, self._draw())
            for node_id, idx in ((left_id, left_idx), (right_id, right_idx))
        ]
        live = [plan for plan in plans if plan is not None]
        if not live:
            return None, None
        scored = iter(self._score(live, parent_counts if len(live) == 2 else None))
        return tuple(None if plan is None else next(scored) for plan in plans)

    def skip_pair(self, left_idx: np.ndarray, right_idx: np.ndarray) -> None:
        """Consume the RNG draws of a child pair that is never scored.

        After a tree's last split no heap pop can use its children's
        splits, so they are not histogrammed — but the reference drew
        their candidate features, left then right, and the tree's RNG
        stream must advance identically.
        """
        for idx in (left_idx, right_idx):
            if len(idx) >= 2 * self.min_samples_leaf:
                self._draw()

    # -- internals -----------------------------------------------------
    def _draw(self) -> np.ndarray:
        if self.draws:
            return self.rng.choice(
                self.features, size=self.split_features, replace=False
            )
        return self.features

    def _score(self, plans, parent_counts: Optional[np.ndarray]):
        """Histogram and select one or two ``(node_id, idx, candidates)``.

        Cells come from the binner's flat index (``code + feature *
        nb_max``); node ``b``'s cells are offset by ``b * cells``, so
        one bincount over the node-major concatenation fills every
        node's histogram while keeping each cell's contributions in
        ascending row order — the reference's accumulation order.
        """
        if self.nb_max < 2:
            return [None] * len(plans)
        cells, width = self.cells, self.width
        y_nodes = [self.y[idx] for _, idx, _ in plans]
        if self.full:
            rows = plans[0][1] if len(plans) == 1 else np.concatenate(
                [idx for _, idx, _ in plans]
            )
            block = self.binner.flat_index[rows]
        else:
            # Candidate subsets: cell rows follow candidate position.
            offsets = np.arange(width, dtype=np.int64) * self.nb_max
            blocks = [
                self.binner.codes[np.ix_(idx, cand)] + offsets
                for _, idx, cand in plans
            ]
            block = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        if len(plans) == 2:
            block[len(plans[0][1]) :] += cells
        flat = block.reshape(-1)
        shape = (len(plans), width, self.nb_max)
        y_rows = y_nodes[0] if len(plans) == 1 else np.concatenate(y_nodes)
        sums = np.bincount(
            flat, weights=np.repeat(y_rows, width), minlength=len(plans) * cells
        ).reshape(shape)
        if parent_counts is not None:  # a full-mode pair
            small = 0 if len(plans[0][1]) <= len(plans[1][1]) else 1
            lo = 0 if small == 0 else len(plans[0][1]) * width
            hi = lo + len(plans[small][1]) * width
            small_counts = np.bincount(flat[lo:hi], minlength=2 * cells)[
                small * cells : (small + 1) * cells
            ].reshape(shape[1:])
            counts = np.empty(shape, dtype=small_counts.dtype)
            counts[small] = small_counts
            counts[1 - small] = parent_counts - small_counts
        else:
            counts = np.bincount(flat, minlength=len(plans) * cells).reshape(shape)
        if self.full:
            for b, (node_id, _, _) in enumerate(plans):
                self._counts[node_id] = counts[b]
        best = _best_splits(
            counts,
            sums,
            [y_node.sum() for y_node in y_nodes],
            [len(idx) for _, idx, _ in plans],
            self.min_samples_leaf,
        )
        results: List[object] = []
        for (node_id, idx, cand), (pos, bin_index, gain) in zip(plans, best):
            if pos < 0:
                results.append(None)
                continue
            feature = int(cand[pos])
            mask = self.binner.codes[idx, feature] <= bin_index
            results.append((gain, feature, bin_index, idx[mask], idx[~mask]))
        return results


# ----------------------------------------------------------------------
# Fit telemetry (mirrors flat.observe_predict)
# ----------------------------------------------------------------------
def observe_fit(model: str, seconds: float, trees: int, nodes: int) -> None:
    """Record one model fit in the metrics registry and event stream.

    Emits ``model.fit.seconds`` (timer) plus ``model.fit.trees`` /
    ``model.fit.nodes`` (counters) labeled by model kind, mirroring the
    ``model.predict.*`` family, and — when event telemetry is on — a
    ``model.fit`` event so ``repro top`` can surface a fit row in the
    engine panel.
    """
    registry = get_registry()
    if registry.enabled:
        labels = {"model": model}
        registry.timer("model.fit.seconds", "model fit latency").labels(
            **labels
        ).observe(seconds)
        registry.counter("model.fit.trees", "trees fitted").labels(**labels).inc(
            trees
        )
        registry.counter("model.fit.nodes", "tree nodes fitted").labels(
            **labels
        ).inc(nodes)
    if tele.enabled():
        tele.event(
            "model.fit",
            model=model,
            seconds=float(seconds),
            trees=int(trees),
            nodes=int(nodes),
        )
