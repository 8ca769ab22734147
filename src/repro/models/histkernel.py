"""Histogram-kernel split search: binned tree *fitting* at NumPy speed.

Fitting is the dominant cost of every collect→refit cycle.  The
semantic reference for split search — a per-feature Python loop that
evaluates one node at a time — lives in ``tests/oracles/tree.py``; this
module is the one production implementation, a histogram kernel:

* **All features in one shot** — a node's per-``(feature, bin)``
  count/sum histograms are built by a single flattened-index
  ``np.bincount`` over the whole ``(rows, features)`` code block
  instead of one Python iteration per feature.
* **Frontier batching** — when a split commits, *both* children are
  evaluated in one kernel invocation (their histograms share one
  bincount pass); the tree still grows in exactly the reference's
  best-first order, see the determinism notes below.
* **Parent-histogram reuse** — integer count histograms satisfy
  ``counts_parent == counts_left + counts_right`` exactly, so the
  larger child's counts are derived by subtraction and only the
  smaller child is histogrammed; the float *sum* histograms are always
  recomputed, because subtracting them would reorder float additions
  and break bit-equality.

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
2. ``np.cumsum`` along an axis accumulates each lane sequentially,
   matching the reference's per-feature prefix sums; per-node scalars
   (``y[idx].sum()``, leaf means) are computed by the very same
   ``np.sum`` pairwise reduction over the very same gathers.
3. Gain comparison replays the reference's scan semantics exactly:
   first-max-wins inside a feature (``np.argmax``), strictly-greater
   first-wins across features in candidate order, NaN gains never
   selected, and the same ``1e-12`` floor.

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
def _flat_codes(codes_sub: np.ndarray, nb_max: int) -> np.ndarray:
    """Per-cell flat index ``feature * nb_max + code``, sample-major.

    Raveling in C order keeps every histogram cell's contributions in
    ascending row order — the accumulation order the reference's
    per-feature ``np.bincount`` used.
    """
    k = codes_sub.shape[1]
    return (
        codes_sub.astype(np.int64) + np.arange(k, dtype=np.int64) * nb_max
    ).ravel()


def _histograms(
    codes_sub: np.ndarray, y_sub: np.ndarray, nb_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All-features count/sum histograms in one bincount pass each."""
    k = codes_sub.shape[1]
    flat = _flat_codes(codes_sub, nb_max)
    counts = np.bincount(flat, minlength=k * nb_max).reshape(k, nb_max)
    sums = np.bincount(
        flat, weights=np.repeat(y_sub, k), minlength=k * nb_max
    ).reshape(k, nb_max)
    return counts, sums


def _best_from_histograms(
    counts: np.ndarray,
    sums: np.ndarray,
    total_sum: float,
    n: int,
    min_samples_leaf: int,
) -> Tuple[int, int, float]:
    """Reference-exact split selection over (features, bins) histograms.

    Returns ``(feature_position, bin, gain)`` with position ``-1`` when
    no candidate strictly beats the gain floor.  Bins a feature does
    not use (rectangular padding to ``nb_max``) have zero counts, so
    their split positions fail the ``right >= min_samples_leaf`` check
    and go to ``-inf`` — exactly as if they were never enumerated.
    Selection replays the reference scan: per-feature first-max
    ``np.argmax`` (NaN-first included — a NaN gain disqualifies its
    feature, as the reference's ``NaN > best`` comparison did), then a
    strictly-greater first-wins pass across features in candidate
    order.
    """
    nb_max = counts.shape[1]
    if nb_max < 2:
        return -1, -1, 0.0
    left_counts = np.cumsum(counts, axis=1)[:, :-1]
    left_sums = np.cumsum(sums, axis=1)[:, :-1]
    right_counts = n - left_counts
    right_sums = total_sum - left_sums
    valid = (left_counts >= min_samples_leaf) & (right_counts >= min_samples_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (
            left_sums**2 / left_counts
            + right_sums**2 / right_counts
            - total_sum**2 / n
        )
    gain = np.where(valid, gain, -np.inf)
    per_feature_bin = np.argmax(gain, axis=1)
    per_feature_gain = gain[np.arange(len(gain)), per_feature_bin]
    ranked = np.where(np.isnan(per_feature_gain), -np.inf, per_feature_gain)
    pos = int(np.argmax(ranked))
    if not ranked[pos] > MIN_GAIN:
        return -1, -1, 0.0
    return pos, int(per_feature_bin[pos]), float(per_feature_gain[pos])


class FrontierEvaluator:
    """Batched split evaluation for one :meth:`fit_binned` call.

    The tree's best-first loop asks it to score the root, then — after
    each committed split — both new children in one frontier batch.
    When every node sees the full feature set (no random-forest
    subsampling, ``features`` is the identity) it remembers each scored
    node's integer count histogram so a child pair costs three bincount
    passes instead of four: the smaller child is histogrammed directly
    and the larger child's *counts* come from exact integer subtraction
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
        candidates = self._draw()
        return self._evaluate_drawn(node_id, idx, candidates, None)

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
        plans = []
        for node_id, idx in ((left_id, left_idx), (right_id, right_idx)):
            if len(idx) < 2 * self.min_samples_leaf:
                plans.append(None)
                continue
            plans.append((node_id, idx, self._draw()))
        if (
            self.full
            and parent_counts is not None
            and plans[0] is not None
            and plans[1] is not None
        ):
            return self._evaluate_pair_with_parent(parent_counts, plans)
        return tuple(
            None if plan is None else self._evaluate_drawn(*plan, None)
            for plan in plans
        )

    # -- internals -----------------------------------------------------
    def _draw(self) -> np.ndarray:
        if self.draws:
            return self.rng.choice(
                self.features, size=self.split_features, replace=False
            )
        return self.features

    def _evaluate_pair_with_parent(self, parent_counts: np.ndarray, plans):
        """Histogram the smaller child, subtract counts for the larger."""
        small, large = (0, 1) if len(plans[0][1]) <= len(plans[1][1]) else (1, 0)
        small_counts = np.bincount(
            _flat_codes(self.binner.codes[plans[small][1]], self.nb_max),
            minlength=self.binner.n_features * self.nb_max,
        ).reshape(self.binner.n_features, self.nb_max)
        large_counts = parent_counts - small_counts
        results: List[object] = [None, None]
        for slot, counts in ((small, small_counts), (large, large_counts)):
            results[slot] = self._evaluate_drawn(*plans[slot], counts)
        return tuple(results)

    def _evaluate_drawn(
        self,
        node_id: int,
        idx: np.ndarray,
        candidates: np.ndarray,
        known_counts: Optional[np.ndarray],
    ):
        n = len(idx)
        if self.nb_max < 2:
            return None
        y_node = self.y[idx]
        total_sum = y_node.sum()
        if self.full:
            codes_sub = self.binner.codes[idx]
        else:
            codes_sub = self.binner.codes[idx][:, candidates]
        if known_counts is not None:
            counts = known_counts
            sums = np.bincount(
                _flat_codes(codes_sub, self.nb_max),
                weights=np.repeat(y_node, codes_sub.shape[1]),
                minlength=codes_sub.shape[1] * self.nb_max,
            ).reshape(codes_sub.shape[1], self.nb_max)
        else:
            counts, sums = _histograms(codes_sub, y_node, self.nb_max)
        if self.full:
            self._counts[node_id] = counts
        pos, bin_index, gain = _best_from_histograms(
            counts, sums, total_sum, n, self.min_samples_leaf
        )
        if pos < 0:
            return None
        feature = int(candidates[pos])
        col = codes_sub[:, pos]
        mask = col <= bin_index
        return (gain, feature, bin_index, idx[mask], idx[~mask])


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
