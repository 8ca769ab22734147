"""Flat-array model inference: the GA's fast path.

DAC's whole economics rest on a model query costing milliseconds while
a real run costs minutes (Section 5.5).  The reference prediction path
walks tree nodes in Python — fine for one tree, hopeless for ``nt`` up
to 12 000 of them (Figure 8) times a 60-row GA population per
generation.  This module lowers fitted trees into structure-of-arrays
node tables so a batch prediction is a handful of vectorized gathers:

* :class:`FlatTree` — one tree as parallel arrays (feature, bin
  threshold, children, leaf value).
* :class:`FlatForest` — a whole ensemble stacked into one node table
  with per-tree root offsets, so one traversal moves *all samples ×
  all trees* a level at a time.
* One fixed-depth walk serves both.  It reads derived tables in which
  a leaf is its own child (feature 0, threshold the int32 maximum), so
  every position advances exactly ``max_depth`` levels of
  ``pos = kids[2*pos + (code > threshold[pos])]`` — four flat ``intp``
  gathers a level, no active masks — in row blocks of about 2^16
  tree×row positions that bound the temporaries.  The tables are
  derived from the stored arrays, never pickled or stored themselves.
* :class:`MergedBinner` — the union of several
  :class:`~repro.models.tree.BinnedDataset` edge sets with exact
  per-component translation tables, so
  :class:`~repro.models.hierarchical.HierarchicalModel` bins an input
  matrix **once** and re-derives every component's codes with one
  gather instead of re-running ``searchsorted`` per component.

Every function here is **bit-for-bit** equal to the oracles in
``tests/oracles/tree.py``: the same leaf is reached through the same
``code <= bin_threshold`` comparisons, leaf values are gathered
unchanged, and ensemble accumulation replays the per-tree loop's
left-to-right float additions with a sequential, in-place
``np.add.accumulate`` (:func:`accumulate`).  That
exactness is what lets checkpointed jobs from the node-walk era resume
on this path with identical report fingerprints
(:func:`repro.store.report_fingerprint`), proven by
``tests/test_models_flat.py``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.telemetry.metrics import get_registry

__all__ = [
    "FlatForest",
    "FlatTree",
    "MergedBinner",
    "accumulate",
    "observe_predict",
]


def observe_predict(path: str, model: str, rows: int, seconds: float) -> None:
    """Record one batch prediction in the metrics registry.

    Emits the ``model.predict.seconds`` latency histogram and the
    ``model.predict.rows`` throughput counter, labeled by model kind
    and prediction path (``flat``/``walk``); a no-op registry makes
    this one attribute load per call.
    """
    registry = get_registry()
    if not registry.enabled:
        return
    labels = {"model": model, "path": path}
    registry.timer(
        "model.predict.seconds", "batch prediction latency"
    ).labels(**labels).observe(seconds)
    registry.counter(
        "model.predict.rows", "rows predicted"
    ).labels(**labels).inc(rows)


def accumulate(base: float, scale: float, leaf_values: np.ndarray) -> np.ndarray:
    """Sum per-tree predictions exactly as the node-walk loop does.

    The oracle ensemble loop computes ``out += scale * tree_pred`` one
    tree at a time; float addition is not associative, so matching it
    bit-for-bit requires the same left-to-right order.
    ``np.add.accumulate`` is sequential by definition
    (``r[i] = r[i-1] + a[i]``), so folding ``base`` into the first
    tree's row (addition is commutative) and accumulating down the tree
    axis reproduces ``((base + t0) + t1) + ...`` exactly — in place, in
    the scaled array the product already allocated.  ``np.add.reduce``
    would not do: it may sum pairwise.  The last row is returned as a
    copy: a view would keep the whole (trees, rows) array alive for as
    long as callers hold the predictions.
    """
    scaled = scale * np.asarray(leaf_values, dtype=float)
    if not len(scaled):
        return np.full(scaled.shape[1], float(base))
    scaled[0] += base
    np.add.accumulate(scaled, axis=0, out=scaled)
    return scaled[-1].copy()


#: Tree×row positions advanced per walk block: large enough to amortize
#: the per-level NumPy call overhead, small enough that the ``intp``
#: temporaries of one level stay a few hundred KB.
_WALK_BLOCK = 1 << 16

#: A leaf's threshold in the walk tables: no bin code exceeds it, so a
#: leaf always "goes left" — to itself.
_LEAF_THRESHOLD = np.iinfo(np.int32).max

#: A lone tree's root list.
_TREE_ROOT = np.zeros(1, dtype=np.intp)


class _WalkTables:
    """Derived node tables for the fixed-depth walk.

    A leaf's two children are itself, its feature is 0 and its
    threshold is :data:`_LEAF_THRESHOLD`, so one more level leaves a
    finished position where it is: every position can advance
    ``depth`` levels with no active-mask bookkeeping.  Indices are
    ``intp`` so gathers index with them directly, without a
    per-level conversion.  Derived from the stored node arrays, never
    persisted.
    """

    __slots__ = ("feature", "threshold", "kids", "depth")

    def __init__(self, feature, threshold, children, roots):
        feature = np.asarray(feature)
        leaf = feature < 0
        n = len(feature)
        self.feature = np.where(leaf, 0, feature).astype(np.intp)
        self.threshold = np.where(leaf, _LEAF_THRESHOLD, threshold).astype(np.int32)
        kids = np.asarray(children, dtype=np.intp).reshape(n, 2).copy()
        kids[leaf] = np.flatnonzero(leaf)[:, None]
        self.kids = kids.reshape(-1)
        # Max depth: advance the internal frontier level by level.
        depth = 0
        frontier = np.asarray(roots, dtype=np.intp)
        while True:
            frontier = frontier[~leaf[frontier]]
            if not len(frontier):
                break
            frontier = self.kids.reshape(n, 2)[frontier].reshape(-1)
            depth += 1
        self.depth = depth

    def walk(self, codes: np.ndarray, roots: np.ndarray, value: np.ndarray) -> np.ndarray:
        """(len(roots), n_samples) leaf values reached from ``roots``.

        Each level is ``pos = kids[2*pos + (code > threshold[pos])]``
        with ``code`` gathered from the raveled code matrix, so a level
        costs four flat gathers and no masks.  Rows are walked in blocks
        of about :data:`_WALK_BLOCK` positions, which bounds the
        temporaries whatever the forest or batch size.
        """
        codes = np.ascontiguousarray(codes)
        n, n_features = codes.shape
        flat_codes = codes.reshape(-1)
        roots = np.asarray(roots, dtype=np.intp)
        out = np.empty((len(roots), n), dtype=value.dtype)
        if not len(roots) or not n:
            return out
        step = max(1, _WALK_BLOCK // len(roots))
        for start in range(0, n, step):
            stop = min(n, start + step)
            row_base = np.arange(start, stop, dtype=np.intp) * n_features
            pos = np.repeat(roots[:, None], stop - start, axis=1)
            for _ in range(self.depth):
                code = flat_codes[row_base + self.feature[pos]]
                pos = self.kids[2 * pos + (code > self.threshold[pos])]
            out[:, start:stop] = value[pos]
        return out


class FlatTree:
    """One regression tree as parallel node arrays.

    ``feature[i] < 0`` marks node ``i`` a leaf whose prediction is
    ``value[i]``; otherwise samples with
    ``codes[:, feature[i]] <= threshold[i]`` descend to ``left[i]``,
    the rest to ``right[i]``.  ``children`` interleaves (left, right)
    so the traversal picks a child with a single flat gather.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "children")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
    ):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.int32)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)
        self.children = np.column_stack([self.left, self.right]).reshape(-1)

    @classmethod
    def from_nodes(cls, nodes: Sequence[object]) -> "FlatTree":
        """Lower a fitted tree's ``_Node`` list into arrays."""
        n = len(nodes)
        feature = np.empty(n, dtype=np.int32)
        threshold = np.empty(n, dtype=np.int32)
        left = np.empty(n, dtype=np.int32)
        right = np.empty(n, dtype=np.int32)
        value = np.empty(n, dtype=np.float64)
        for i, node in enumerate(nodes):
            feature[i] = node.feature
            threshold[i] = node.bin_threshold
            left[i] = node.left
            right[i] = node.right
            value[i] = node.value
        return cls(feature, threshold, left, right, value)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, codes: np.ndarray) -> np.ndarray:
        """Leaf values for pre-binned ``codes`` (n_samples, n_features).

        The walk tables are rebuilt per call rather than cached: a
        boosted tree is predicted once, on its training and validation
        rows, and thousands of cached tables would only hold memory.
        """
        tables = _WalkTables(self.feature, self.threshold, self.children, _TREE_ROOT)
        return tables.walk(codes, _TREE_ROOT, self.value)[0]

    def __getstate__(self):
        # ``children`` is derived; rebuild it on load.
        return (self.feature, self.threshold, self.left, self.right, self.value)

    def __setstate__(self, state):
        self.__init__(*state)


class FlatForest:
    """Many trees stacked into one node table.

    Per-tree node arrays are concatenated with child indices rebased to
    the global table; ``roots`` holds each tree's root offset.  One
    traversal then advances an (n_trees, n_samples) position matrix a
    level per iteration — the Python loop runs ``max_depth`` times no
    matter how many trees or samples are in flight.
    """

    __slots__ = ("feature", "threshold", "children", "value", "roots", "_walk")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        children: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
    ):
        self.feature = feature
        self.threshold = threshold
        self.children = children
        self.value = value
        self.roots = roots
        self._walk = None

    @classmethod
    def from_trees(cls, trees: Sequence[object]) -> "FlatForest":
        """Stack fitted :class:`~repro.models.tree.RegressionTree` s."""
        flats: List[FlatTree] = [tree.flatten() for tree in trees]
        sizes = np.array([flat.n_nodes for flat in flats], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int32)
        feature = np.concatenate([flat.feature for flat in flats])
        threshold = np.concatenate([flat.threshold for flat in flats])
        value = np.concatenate([flat.value for flat in flats])
        children = np.concatenate(
            [
                # Leaves carry -1 children; rebasing them is harmless
                # because the traversal never follows a leaf's child.
                flat.children + offset
                for flat, offset in zip(flats, offsets)
            ]
        ).astype(np.int32)
        return cls(feature, threshold, children, value, offsets)

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def leaf_values(self, codes: np.ndarray, n_trees: Optional[int] = None) -> np.ndarray:
        """(n_trees, n_samples) leaf values for pre-binned ``codes``.

        ``n_trees`` restricts the traversal to the first trees — the
        boosting convergence curve re-predicts prefixes this way.
        """
        if self._walk is None:
            self._walk = _WalkTables(
                self.feature, self.threshold, self.children, self.roots
            )
        roots = self.roots if n_trees is None else self.roots[:n_trees]
        return self._walk.walk(codes, roots, self.value)

    def to_sections(self, prefix: str = "") -> dict:
        """The node table as named arrays for the columnar blob format.

        These are exactly the arrays :meth:`leaf_values` gathers from,
        so a forest restored by :meth:`from_sections` — including one
        whose sections are read-only ``np.memmap`` views — traverses
        the identical table and produces bit-identical leaf values.
        """
        return {
            prefix + "feature": self.feature,
            prefix + "threshold": self.threshold,
            prefix + "children": self.children,
            prefix + "value": self.value,
            prefix + "roots": self.roots,
        }

    @classmethod
    def from_sections(cls, sections, prefix: str = "") -> "FlatForest":
        """Rebuild from stored sections (arrays are used as-is, zero copy).

        The traversal only ever *reads* the node table, so read-only
        memmap sections are safe: gathers (fancy indexing) return fresh
        ndarrays and all mutation happens in per-call position arrays.
        """
        return cls(
            sections[prefix + "feature"],
            sections[prefix + "threshold"],
            sections[prefix + "children"],
            sections[prefix + "value"],
            sections[prefix + "roots"],
        )

    def __getstate__(self):
        return (self.feature, self.threshold, self.children, self.value, self.roots)

    def __setstate__(self, state):
        (self.feature, self.threshold, self.children, self.value, self.roots) = state
        self._walk = None


class MergedBinner:
    """Bin once, translate everywhere.

    Components of a :class:`HierarchicalModel` each own a
    :class:`~repro.models.tree.BinnedDataset` whose quantile edges were
    fit on *different* bootstrap streams, so their bin codes disagree
    and the reference path re-binned the input per component.  This
    class merges the per-feature edge sets (``M_j = unique(∪ E_cj)``)
    and precomputes, per component, a lookup table from merged code to
    component code.

    Exactness: ``searchsorted(E, x, "right")`` is constant on each
    half-open merged region ``[M[m-1], M[m])`` because every edge of
    ``E`` appears in ``M``; the table entry for region ``m`` is
    therefore ``searchsorted(E, M[m-1], "right")`` (0 for the leftmost
    region), making the translated codes equal to per-component binning
    for every real input — including the region boundaries themselves.
    """

    def __init__(self, binners: Sequence[object]):
        if not binners:
            raise ValueError("need at least one binner")
        n_features = binners[0].n_features
        if any(b.n_features != n_features for b in binners):
            raise ValueError("binners disagree on feature count")
        self.n_features = n_features
        self.edges: List[np.ndarray] = []
        for j in range(n_features):
            merged = np.unique(
                np.concatenate([np.asarray(b.edges[j], dtype=float) for b in binners])
            )
            self.edges.append(merged)
        max_code = max((len(e) for e in self.edges), default=0)
        #: One (n_features, max_merged_code + 1) table per component.
        self.tables: List[np.ndarray] = []
        for binner in binners:
            table = np.zeros((n_features, max_code + 1), dtype=np.int64)
            for j in range(n_features):
                merged = self.edges[j]
                component_codes = np.searchsorted(
                    np.asarray(binner.edges[j], dtype=float), merged, side="right"
                )
                table[j, 1 : len(merged) + 1] = component_codes
                # Values past this feature's last merged edge keep the
                # final component code.
                if len(merged) + 1 <= max_code:
                    table[j, len(merged) + 1 :] = (
                        component_codes[-1] if len(merged) else 0
                    )
            self.tables.append(table)

    def merged_codes(self, X: np.ndarray) -> np.ndarray:
        """Bin a raw feature matrix against the merged edges (once)."""
        from repro.models.tree import bin_with_edges

        return bin_with_edges(np.asarray(X, dtype=float), self.edges)

    def component_codes(self, component: int, merged: np.ndarray) -> np.ndarray:
        """Translate merged codes into one component's codes (a gather)."""
        table = self.tables[component]
        return table[np.arange(self.n_features)[None, :], merged]


def timed(fn):
    """Tiny ``(result, seconds)`` helper for instrumented predict paths."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start
