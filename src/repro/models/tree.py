"""CART regression trees with histogram-binned split search.

The HM sub-models are regression trees (Section 3.2, citing Lewis'
CART [22]); the paper controls their size through *tree complexity*
``tc`` — "the number of nodes in a tree" that are split, i.e. the number
of internal nodes (a ``tc = 1`` tree is a stump, Figure 8a).  Trees grow
*best-first*: the leaf with the largest variance-reduction gain is split
next, so a budget of ``tc`` splits lands where it reduces error most.

Split search uses pre-binned features (:class:`BinnedDataset`): binning
is paid once per training set, after which each candidate split costs a
bincount rather than a sort — essential when boosting fits thousands of
trees (``nt`` up to 12 000 in Figure 8).  The per-node search itself
runs through :mod:`repro.models.histkernel` — all features histogrammed
in one flattened ``np.bincount``, both children of a committed split
scored in one frontier batch.  It is bit-identical by construction to
the per-feature Python loop kept as a test oracle in
``tests/oracles/tree.py`` (see the histkernel module docstring and
DESIGN.md §17).
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.models.histkernel import FrontierEvaluator

#: Default number of histogram bins per feature.
DEFAULT_BINS = 64

#: Upper bound on comparison-matrix elements per binning chunk; keeps the
#: (rows, features, edges) broadcast under a few tens of MB.
_BIN_CHUNK_ELEMENTS = 4_000_000


def bin_with_edges(X: np.ndarray, edges: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized ``searchsorted(edges[j], X[:, j], side="right")`` per column.

    One broadcasted comparison replaces the per-feature Python loop: the
    code for ``x`` is the count of edges ``e <= x``, computed as
    ``(~(x < e)).sum()`` over edges padded to a rectangle with ``+inf``
    (a pad edge is never counted for finite ``x``).  The count is then
    clipped to each feature's true edge count, which also reproduces
    ``searchsorted``'s NaN-sorts-last behaviour (every ``NaN < e`` is
    False, so the raw count saturates and clips to ``len(edges[j])``).
    Rows are chunked so the 3-d comparison stays memory-bounded.
    """
    X = np.asarray(X, dtype=float)
    n, n_features = X.shape
    if len(edges) != n_features:
        raise ValueError("edge list does not match feature count")
    n_edges = np.array([len(e) for e in edges], dtype=np.int64)
    max_edges = int(n_edges.max()) if n_features else 0
    codes = np.zeros((n, n_features), dtype=np.int64)
    if max_edges == 0 or n == 0:
        return codes
    padded = np.full((n_features, max_edges), np.inf)
    for j, e in enumerate(edges):
        padded[j, : len(e)] = e
    chunk = max(1, _BIN_CHUNK_ELEMENTS // max(1, n_features * max_edges))
    for start in range(0, n, chunk):
        block = X[start : start + chunk]
        counts = (~(block[:, :, None] < padded[None, :, :])).sum(axis=2)
        codes[start : start + chunk] = np.minimum(counts, n_edges[None, :])
    return codes


#: Matrices above this size are never keyed by content — hashing them
#: would materialize/scan every byte per lookup, which defeats the
#: zero-copy path for mmap-backed inputs.
_CACHE_CONTENT_BYTES = 1 << 20


def _matrix_cache_key(X: np.ndarray):
    """A cheap, stable cache key for a candidate matrix, or ``None``.

    Memmap-backed matrices (store blobs are content-addressed and
    immutable, spill files are written once) are keyed by the identity
    of their mapping — (file, byte offset, shape, strides, dtype) —
    without touching a single data page.  Small ordinary matrices keep
    the exact content key.  Large ordinary matrices return ``None``
    (no memoization): ``tobytes()`` on them costs a full private copy
    per lookup, which is the bug this function exists to avoid.
    """
    base = X
    while isinstance(base, np.ndarray):
        if isinstance(base, np.memmap):
            filename = getattr(base, "filename", None)
            if filename:
                return (
                    "mmap",
                    str(filename),
                    X.__array_interface__["data"][0]
                    - base.__array_interface__["data"][0],
                    X.shape,
                    X.strides,
                    X.dtype.str,
                )
            break
        base = base.base
    if X.nbytes > _CACHE_CONTENT_BYTES:
        return None
    return ("bytes", np.ascontiguousarray(X).tobytes())


#: Bound on the process-wide shared-binner cache (entries).
_SHARED_BINNER_CACHE_SIZE = 8

#: (max_bins, shape, content key) -> BinnedDataset, LRU-ordered.
_shared_binners: "OrderedDict[tuple, BinnedDataset]" = OrderedDict()


def clear_shared_binners() -> None:
    """Drop the process-wide :meth:`BinnedDataset.shared` cache."""
    _shared_binners.clear()


class BinnedDataset:
    """Feature matrix pre-binned for fast split search.

    Bin edges are quantiles of each feature, so splits adapt to the
    feature's empirical distribution (encoded configurations are uniform
    in [0,1], but datasize and derived features need not be).
    """

    #: Bound on the per-binner repeated-matrix code cache (entries).
    CODE_CACHE_SIZE = 8

    def __init__(self, X: np.ndarray, max_bins: int = DEFAULT_BINS):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if not 2 <= max_bins <= 255:
            raise ValueError("max_bins must be in [2, 255]")
        self.n_samples, self.n_features = X.shape
        self.max_bins = max_bins
        self.edges: List[np.ndarray] = []
        codes = np.empty(X.shape, dtype=np.uint8)
        quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
        # Identical columns (encoded configuration matrices repeat
        # constant or mirrored features) share one quantile/searchsorted
        # computation instead of recomputing ``np.unique`` per copy.
        seen: Dict[bytes, int] = {}
        for j in range(self.n_features):
            column = np.ascontiguousarray(X[:, j])
            key = column.tobytes()
            dup = seen.get(key)
            if dup is not None:
                self.edges.append(self.edges[dup])
                codes[:, j] = codes[:, dup]
                continue
            seen[key] = j
            edges = np.unique(np.quantile(column, quantiles))
            self.edges.append(edges)
            codes[:, j] = np.searchsorted(edges, column, side="right")
        self.codes = codes
        self.n_bins = np.array([len(e) + 1 for e in self.edges], dtype=np.int64)
        self._code_cache: Dict[object, np.ndarray] = {}

    @classmethod
    def shared(cls, X: np.ndarray, max_bins: int = DEFAULT_BINS) -> "BinnedDataset":
        """A process-cached binner for this exact matrix content.

        Quantile edges and codes depend only on ``(content, max_bins)``,
        yet every Hierarchical Model component, crash-resume refit, and
        ablation re-fit used to rebuild them from scratch.  This memo
        returns the existing binner when the same matrix comes around
        again.  The key includes the shape because the content key alone
        is shape-ambiguous; matrices too large to key cheaply
        (:func:`_matrix_cache_key` returns ``None``) are never cached.
        Binners are immutable after construction, so sharing one across
        models is safe.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            return cls(X, max_bins)
        content = _matrix_cache_key(X)
        if content is None:
            return cls(X, max_bins)
        key = (max_bins, X.shape, content)
        cached = _shared_binners.get(key)
        if cached is not None:
            _shared_binners.move_to_end(key)
            return cached
        binner = cls(X, max_bins)
        while len(_shared_binners) >= _SHARED_BINNER_CACHE_SIZE:
            _shared_binners.popitem(last=False)
        _shared_binners[key] = binner
        return binner

    @classmethod
    def from_edges(
        cls, edges: Sequence[np.ndarray], max_bins: int = DEFAULT_BINS
    ) -> "BinnedDataset":
        """A predict-only binner rebuilt from stored edges.

        Section-restored models carry no training rows — only the
        quantile edges, which are all :meth:`bin_matrix` needs.  The
        edge arrays are used as-is (they may be read-only memmap
        views), so reconstruction touches no data pages.
        """
        self = cls.__new__(cls)
        self.n_samples = 0
        self.n_features = len(edges)
        self.max_bins = max_bins
        self.edges = [np.ascontiguousarray(e, dtype=float) for e in edges]
        self.codes = np.empty((0, self.n_features), dtype=np.uint8)
        self.n_bins = np.array([len(e) + 1 for e in self.edges], dtype=np.int64)
        self._code_cache = {}
        return self

    def bin_matrix(self, X: np.ndarray) -> np.ndarray:
        """Bin new samples with the training edges.

        Binning is one vectorized pass (:func:`bin_with_edges`), and the
        resulting codes are memoized per input matrix — the GA predicts
        the same holdout/validation matrices repeatedly, and a cache hit
        is a dict lookup instead of any arithmetic.  Mmap-backed
        matrices are keyed by their mapping identity, large heap
        matrices bypass the memo (see :func:`_matrix_cache_key`).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) matrix")
        key = _matrix_cache_key(X)
        if key is None:
            return bin_with_edges(X, self.edges).astype(np.uint8)
        cached = self._code_cache.get(key)
        if cached is not None:
            return cached
        codes = bin_with_edges(X, self.edges).astype(np.uint8)
        if len(self._code_cache) >= self.CODE_CACHE_SIZE:
            self._code_cache.pop(next(iter(self._code_cache)))
        self._code_cache[key] = codes
        return codes

    def __getstate__(self):
        # The code cache is a per-process memo; never persist it.
        state = dict(self.__dict__)
        state["_code_cache"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Artifacts pickled before the cache existed lack the attribute.
        self.__dict__.setdefault("_code_cache", {})

    def threshold(self, feature: int, bin_index: int) -> float:
        """Real-valued threshold for 'go left if code <= bin_index'."""
        edges = self.edges[feature]
        if bin_index >= len(edges):
            return np.inf
        return float(edges[bin_index])


@dataclass
class _Node:
    feature: int = -1
    bin_threshold: int = -1
    threshold: float = np.inf
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class RegressionTree:
    """Best-first CART limited to ``tree_complexity`` internal splits.

    Parameters
    ----------
    tree_complexity:
        Number of split (internal) nodes — the paper's ``tc``.
    min_samples_leaf:
        Minimum samples on each side of a split.
    max_bins:
        Histogram resolution when the tree bins its own data; ignored
        when fitted through :meth:`fit_binned`.
    """

    def __init__(
        self,
        tree_complexity: int = 5,
        min_samples_leaf: int = 5,
        max_bins: int = DEFAULT_BINS,
        split_features: Optional[int] = None,
        random_state: int = 0,
    ):
        if tree_complexity < 1:
            raise ValueError("tree_complexity must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if split_features is not None and split_features < 1:
            raise ValueError("split_features must be >= 1")
        self.tree_complexity = tree_complexity
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins
        #: Random-forest style mtry: candidate features drawn fresh at
        #: every split (None = consider all features at each split).
        self.split_features = split_features
        self.random_state = random_state
        self._rng = np.random.default_rng(random_state)
        self._nodes: List[_Node] = []
        self._binner: Optional[BinnedDataset] = None
        self._flat = None

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        binner = BinnedDataset(np.asarray(X, dtype=float), self.max_bins)
        return self.fit_binned(binner, np.asarray(y, dtype=float))

    def fit_binned(
        self,
        binner: BinnedDataset,
        y: np.ndarray,
        sample_indices: Optional[np.ndarray] = None,
        feature_indices: Optional[np.ndarray] = None,
    ) -> "RegressionTree":
        """Fit on pre-binned data (the boosting/forest fast path).

        ``sample_indices`` selects a bootstrap sample; ``feature_indices``
        restricts candidate features (random-forest style).

        Growth is best-first over the histogram kernel: a committed
        split's two children are scored in a single
        :meth:`FrontierEvaluator.evaluate_pair` batch (one heap, one
        tie-break counter, left-then-right RNG order), which lets the
        kernel share one histogram pass per pair and reuse parent counts.
        """
        y = np.asarray(y, dtype=float)
        if len(y) != binner.n_samples:
            raise ValueError("y length must match the binned dataset")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._binner = binner
        self._flat = None
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
        evaluator = FrontierEvaluator(
            binner,
            y,
            self.min_samples_leaf,
            self._rng,
            self.split_features,
            features,
        )
        self._nodes = [_Node(value=float(np.mean(y[idx])))]
        # Best-first frontier: (-gain, tiebreak, node_id, idx, split_info)
        frontier: list = []
        counter = itertools.count()
        first = evaluator.evaluate(0, idx)
        if first is not None:
            heapq.heappush(frontier, (-first[0], next(counter), 0, idx, first))

        splits_done = 0
        while frontier and splits_done < self.tree_complexity:
            neg_gain, _, node_id, node_idx, split = heapq.heappop(frontier)
            gain, feature, bin_threshold, left_idx, right_idx = split
            node = self._nodes[node_id]
            node.feature = int(feature)
            node.bin_threshold = int(bin_threshold)
            node.threshold = binner.threshold(int(feature), int(bin_threshold))
            node.left = len(self._nodes)
            self._nodes.append(_Node(value=float(np.mean(y[left_idx]))))
            node.right = len(self._nodes)
            self._nodes.append(_Node(value=float(np.mean(y[right_idx]))))
            splits_done += 1

            left_split, right_split = evaluator.evaluate_pair(
                node_id, node.left, left_idx, node.right, right_idx
            )
            for child_id, child_idx, child_split in (
                (node.left, left_idx, left_split),
                (node.right, right_idx, right_split),
            ):
                if child_split is not None:
                    heapq.heappush(
                        frontier,
                        (-child_split[0], next(counter), child_id, child_idx, child_split),
                    )
        return self

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._binner is None:
            raise RuntimeError("tree is not fitted")
        return self.predict_binned(self._binner.bin_matrix(np.asarray(X, dtype=float)))

    def flatten(self):
        """This tree as a cached :class:`repro.models.flat.FlatTree`."""
        if not self._nodes:
            raise RuntimeError("tree is not fitted")
        if self._flat is None:
            from repro.models.flat import FlatTree

            self._flat = FlatTree.from_nodes(self._nodes)
        return self._flat

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Predict from pre-binned codes via the flat node table.

        Bit-for-bit equal to a node-by-node walk of the tree (the
        ``tests/oracles/tree.py`` oracle): the flat traversal applies the
        same ``code <= bin_threshold`` branches and gathers the same
        stored leaf values.
        """
        return self.flatten().predict(codes)

    @property
    def n_internal_nodes(self) -> int:
        return sum(1 for node in self._nodes if not node.is_leaf)

    @property
    def n_leaves(self) -> int:
        return sum(1 for node in self._nodes if node.is_leaf)

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Trees pickled before the flat layer predate the cache slot.
        self.__dict__.setdefault("_flat", None)
