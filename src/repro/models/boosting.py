"""Stochastic gradient-boosted regression trees — HM's FirstOrderProcedure.

Algorithm 1's ``FirstOrderProcedure(S)``: repeatedly fit a regression
tree with ``tc`` split nodes on a *bootstrap sample* of the training set
and add it to the combined model scaled by the learning rate ``lr``,
stopping at ``nt`` trees, at convergence, or when the target accuracy is
reached.  The bootstrap is the "randomness introduced into the HM
process to improve accuracy and convergence speed ... and mitigate
over-fitting" (Section 3.2).

Accuracy is monitored on a held-out fraction using the paper's relative
error (Equation 2); "convergence" means the validation error has not
improved by ``convergence_tol`` for ``patience`` consecutive trees.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.models.flat import FlatForest, accumulate, observe_predict, timed
from repro.models.histkernel import observe_fit
from repro.models.metrics import mean_relative_error
from repro.models.tree import BinnedDataset, RegressionTree


class GradientBoostedTrees:
    """Boosted CART ensemble with the paper's (tc, lr, nt) knobs.

    Parameters
    ----------
    n_trees:
        ``nt`` — maximum number of sub-models (Figure 8 sweeps 100-12000).
    learning_rate:
        ``lr`` — contribution of each sub-model (Figure 8 sweeps
        0.0005-0.05).
    tree_complexity:
        ``tc`` — split nodes per tree (Figure 8 compares 1 and 5).
    subsample:
        Bootstrap fraction per tree.
    target_accuracy:
        Stop early once validation accuracy (1 - err) reaches this.
    validation_fraction:
        Held-out share used for the accuracy/convergence checks.
    patience / convergence_tol:
        Convergence detector: stop when no ``convergence_tol`` improvement
        for ``patience`` trees.
    """

    def __init__(
        self,
        n_trees: int = 600,
        learning_rate: float = 0.05,
        tree_complexity: int = 5,
        subsample: float = 0.5,
        target_accuracy: Optional[float] = None,
        validation_fraction: float = 0.2,
        patience: int = 200,
        convergence_tol: float = 1e-4,
        min_samples_leaf: int = 5,
        random_state: int = 0,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_trees = n_trees
        self.learning_rate = learning_rate
        self.tree_complexity = tree_complexity
        self.subsample = subsample
        self.target_accuracy = target_accuracy
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.convergence_tol = convergence_tol
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state

        self._trees: List[RegressionTree] = []
        self._base: float = 0.0
        self._binner: Optional[BinnedDataset] = None
        self._flat: Optional[FlatForest] = None
        #: Validation error after each accepted tree (for Figure 8 curves).
        self.validation_errors_: List[float] = []
        self.stopped_reason_: str = "not fitted"

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        measured: Optional[np.ndarray] = None,
    ) -> "GradientBoostedTrees":
        """Fit the ensemble.

        ``y`` is the regression target (the tuning pipeline passes
        log-time); ``measured`` optionally provides the positive
        real-space values used for the Equation-2 relative error.  When
        omitted, targets are assumed to be log execution times and are
        exponentiated for the error metric.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) < 4:
            raise ValueError("need at least 4 samples")
        fit_start = time.perf_counter()
        rng = np.random.default_rng(self.random_state)

        n_val = max(1, int(round(len(X) * self.validation_fraction)))
        order = rng.permutation(len(X))
        val_idx, train_idx = order[:n_val], order[n_val:]

        X_train, y_train = X[train_idx], y[train_idx]
        measured_val = (
            np.exp(y[val_idx]) if measured is None else np.asarray(measured)[val_idx]
        )

        self._binner = BinnedDataset.shared(X_train)
        val_codes = self._binner.bin_matrix(X[val_idx])
        self._base = float(np.mean(y_train))
        self._trees = []
        self._flat = None
        self._frozen_n_trees = 0
        self.validation_errors_ = []

        residual = y_train - self._base
        val_pred = np.full(n_val, self._base)
        n_sub = max(2, int(round(len(X_train) * self.subsample)))
        best_error = np.inf
        stale = 0
        self.stopped_reason_ = "reached n_trees"

        for _ in range(self.n_trees):
            sample = rng.integers(0, len(X_train), n_sub)  # bootstrap
            tree = RegressionTree(
                tree_complexity=self.tree_complexity,
                min_samples_leaf=self.min_samples_leaf,
            )
            tree.fit_binned(self._binner, residual, sample_indices=sample)
            self._trees.append(tree)

            update = tree.predict_binned(self._binner.codes)
            residual -= self.learning_rate * update
            val_pred += self.learning_rate * tree.predict_binned(val_codes)

            error = mean_relative_error(np.exp(val_pred), measured_val)
            self.validation_errors_.append(error)

            if self.target_accuracy is not None and (1.0 - error) >= self.target_accuracy:
                self.stopped_reason_ = "target accuracy reached"
                break
            if error < best_error - self.convergence_tol:
                best_error = error
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    self.stopped_reason_ = "converged"
                    break
        observe_fit(
            "gbt",
            time.perf_counter() - fit_start,
            len(self._trees),
            sum(len(t._nodes) for t in self._trees),
        )
        return self

    # ------------------------------------------------------------------
    def flatten(self) -> FlatForest:
        """The whole ensemble as one cached stacked node table.

        A section-restored model has no per-tree state (``_trees`` is
        empty) but arrives with its stacked table preset — the empty
        tree list must not trigger a rebuild.
        """
        if self._binner is None:
            raise RuntimeError("model is not fitted")
        if self._flat is None or (
            self._trees and self._flat.n_trees != len(self._trees)
        ):
            self._flat = FlatForest.from_trees(self._trees)
        return self._flat

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._binner is None:
            raise RuntimeError("model is not fitted")
        out, seconds = timed(
            lambda: self.predict_codes(
                self._binner.bin_matrix(np.asarray(X, dtype=float))
            )
        )
        observe_predict("flat", "gbt", len(out), seconds)
        return out

    def predict_codes(self, codes: np.ndarray) -> np.ndarray:
        """Predict from codes already binned against this model's binner.

        One stacked-table traversal gathers every tree's leaf value,
        then :func:`repro.models.flat.accumulate` replays a per-tree
        loop's left-to-right float additions — bit-for-bit equal to the
        node-walk oracle in ``tests/oracles/tree.py``.
        """
        return accumulate(
            self._base, self.learning_rate, self.flatten().leaf_values(codes)
        )

    # ------------------------------------------------------------------
    def to_sections(self, prefix: str = ""):
        """Lower fitted state into ``(sections, meta)`` for the blob format.

        Sections carry every array (stacked node table, concatenated
        bin edges, validation-error curve); ``meta`` carries the JSON
        scalars (constructor hyperparameters, base prediction, stop
        reason).  Python's JSON floats round-trip exactly, so a
        :meth:`from_sections` model predicts bit-for-bit like this one.
        """
        if self._binner is None:
            raise ValueError("model is not fitted")
        flat = self.flatten()
        edges = self._binner.edges
        lengths = [len(e) for e in edges]
        sections = dict(flat.to_sections(prefix=prefix))
        sections[prefix + "edges"] = (
            np.concatenate([np.asarray(e, dtype=float) for e in edges])
            if edges
            else np.empty(0, dtype=float)
        )
        sections[prefix + "edges_off"] = np.cumsum([0] + lengths).astype(np.int64)
        sections[prefix + "val_errors"] = np.asarray(
            self.validation_errors_, dtype=float
        )
        meta = {
            "n_trees": int(self.n_trees),
            "learning_rate": float(self.learning_rate),
            "tree_complexity": int(self.tree_complexity),
            "subsample": float(self.subsample),
            "target_accuracy": (
                None if self.target_accuracy is None else float(self.target_accuracy)
            ),
            "validation_fraction": float(self.validation_fraction),
            "patience": int(self.patience),
            "convergence_tol": float(self.convergence_tol),
            "min_samples_leaf": int(self.min_samples_leaf),
            "random_state": int(self.random_state),
            "base": float(self._base),
            "stopped_reason": str(self.stopped_reason_),
            "n_trees_fitted": int(self.n_trees_fitted),
            "max_bins": int(self._binner.max_bins),
        }
        return sections, meta

    @classmethod
    def from_sections(cls, sections, meta, prefix: str = "") -> "GradientBoostedTrees":
        """Rebuild a frozen (predict-only) model from stored sections.

        The stacked node table and bin edges are adopted as-is — they
        may be read-only memmap views, in which case reconstruction
        touches no array data at all.  The per-tree training state is
        gone: :meth:`predict` and :meth:`flatten` work identically.
        """
        model = cls(
            n_trees=int(meta["n_trees"]),
            learning_rate=float(meta["learning_rate"]),
            tree_complexity=int(meta["tree_complexity"]),
            subsample=float(meta["subsample"]),
            target_accuracy=(
                None
                if meta.get("target_accuracy") is None
                else float(meta["target_accuracy"])
            ),
            validation_fraction=float(meta["validation_fraction"]),
            patience=int(meta["patience"]),
            convergence_tol=float(meta["convergence_tol"]),
            min_samples_leaf=int(meta["min_samples_leaf"]),
            random_state=int(meta["random_state"]),
        )
        offsets = np.asarray(sections[prefix + "edges_off"])
        concatenated = sections[prefix + "edges"]
        edges = [
            concatenated[int(offsets[j]) : int(offsets[j + 1])]
            for j in range(len(offsets) - 1)
        ]
        model._binner = BinnedDataset.from_edges(edges, max_bins=int(meta["max_bins"]))
        model._flat = FlatForest.from_sections(sections, prefix=prefix)
        model._base = float(meta["base"])
        model.stopped_reason_ = str(meta["stopped_reason"])
        model.validation_errors_ = [
            float(v) for v in sections[prefix + "val_errors"]
        ]
        model._frozen_n_trees = int(meta["n_trees_fitted"])
        return model

    @property
    def n_trees_fitted(self) -> int:
        if self._trees:
            return len(self._trees)
        return getattr(self, "_frozen_n_trees", 0)

    @property
    def final_validation_error(self) -> float:
        if not self.validation_errors_:
            raise RuntimeError("model is not fitted")
        return self.validation_errors_[-1]

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Models pickled before the flat layer predate the cache slot;
        # they rebuild the stacked table on first predict.
        self.__dict__.setdefault("_flat", None)
