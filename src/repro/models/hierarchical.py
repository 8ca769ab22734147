"""Hierarchical Modeling (HM) — Algorithm 1 of the paper.

The first-order model is a boosted-tree ensemble
(:class:`~repro.models.boosting.GradientBoostedTrees`).  If its accuracy
on a held-out set misses the target after convergence, HM recurses:
build *another* first-order model with different randomness (a different
bootstrap stream) and combine the pair, "β1·TM1 + β2·TM2" — producing a
second-order model; the procedure repeats up to ``max_order``.

The paper leaves the combination coefficients abstract ("the respective
coefficients corresponding to learning rate"); we resolve them the
standard stacking way: non-negative least squares of the held-out
targets on the component predictions, so the combined model is at least
as good as its best component on that set.  This interpretation is
documented in DESIGN.md.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np
from scipy.optimize import nnls

from repro.models.boosting import GradientBoostedTrees
from repro.models.flat import MergedBinner, observe_predict, timed
from repro.models.histkernel import observe_fit
from repro.models.metrics import mean_relative_error
from repro.telemetry import events as tele


def _fit_component(payload):
    """Fit one HM component (module-level so process pools can pickle it)."""
    component, X_train, y_train = payload
    component.fit(X_train, y_train)
    return component


class HierarchicalModel:
    """The paper's HM performance model.

    Parameters mirror :class:`GradientBoostedTrees` (they configure every
    first-order component) plus:

    target_accuracy:
        Algorithm 1's stopping criterion (e.g. 0.90 = "90%").
    max_order:
        Recursion bound; the paper reports first-order sufficed for its
        programs (Section 5.3), higher orders are the fallback.
    component_factory:
        Optional builder ``(order) -> estimator`` replacing the boosted
        trees; Section 3.2 notes "the sub-model can be built by
        different modeling techniques such as ANN and SVM" — pass e.g.
        ``lambda order: NeuralNetworkRegressor(random_state=order)`` to
        stack MLP components instead.  Distinct randomness per order is
        the caller's responsibility when overriding.
    """

    def __init__(
        self,
        n_trees: int = 600,
        learning_rate: float = 0.05,
        tree_complexity: int = 5,
        subsample: float = 0.5,
        target_accuracy: float = 0.90,
        max_order: int = 3,
        validation_fraction: float = 0.2,
        patience: int = 200,
        random_state: int = 0,
        component_factory=None,
    ):
        if max_order < 1:
            raise ValueError("max_order must be >= 1")
        if not 0.0 < target_accuracy < 1.0:
            raise ValueError("target_accuracy must be in (0, 1)")
        self.n_trees = n_trees
        self.learning_rate = learning_rate
        self.tree_complexity = tree_complexity
        self.subsample = subsample
        self.target_accuracy = target_accuracy
        self.max_order = max_order
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.random_state = random_state
        self.component_factory = component_factory

        self._components: List[object] = []
        self._weights: Optional[np.ndarray] = None
        self._merged: Optional[MergedBinner] = None
        self.order_: int = 0
        self.holdout_error_: float = np.inf

    # ------------------------------------------------------------------
    def fit(
        self, X: np.ndarray, y: np.ndarray, checkpoint=None, engine=None
    ) -> "HierarchicalModel":
        """Fit on features ``X`` and log-time targets ``y``.

        ``checkpoint``, if given, is called with ``self`` after each
        order completes (weights and holdout error updated) — the job
        service persists the partially-fitted model there, and
        :meth:`resume_fit` continues from whatever orders survived.

        ``engine``, if given and parallel-capable
        (:attr:`repro.engine.ExecutionBackend.supports_parallel_tasks`),
        trains the independent per-order components concurrently; the
        resulting model is identical to a sequential fit (see
        :meth:`_fit_orders`).

        Binning is shared where content allows: each component binds its
        training split through :meth:`BinnedDataset.shared
        <repro.models.tree.BinnedDataset.shared>`, so re-fitting the
        same component (crash-resume, ablation sweeps, kernel-vs-
        reference benchmarks) reuses the existing quantile edges and
        codes instead of recomputing them.  Components of *different*
        orders draw different internal train permutations, so their
        matrices differ by construction — sharing across orders would
        change the fitted model and is deliberately not attempted.
        """
        X, y = self._validate(X, y)
        self._components = []
        self.order_ = 0
        self._weights = None
        self._merged = None
        self.holdout_error_ = np.inf
        return self._fit_orders(X, y, [], checkpoint, engine)

    def resume_fit(
        self, X: np.ndarray, y: np.ndarray, checkpoint=None, engine=None
    ) -> "HierarchicalModel":
        """Continue a partially-completed :meth:`fit` on the same data.

        The holdout split is a pure function of ``random_state`` and
        ``len(X)``, and each order's component is seeded independently,
        so refitting only the missing orders yields the same model an
        uninterrupted :meth:`fit` would have produced.
        """
        if not self._components:
            return self.fit(X, y, checkpoint=checkpoint, engine=engine)
        X, y = self._validate(X, y)
        self._merged = None
        _, _, X_val, _, _ = self._split(X, y)
        preds = [c.predict(X_val) for c in self._components]
        return self._fit_orders(X, y, preds, checkpoint, engine)

    # ------------------------------------------------------------------
    def _validate(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) < 8:
            raise ValueError("need at least 8 samples")
        return X, y

    def _split(self, X: np.ndarray, y: np.ndarray):
        """HM's own holdout, used both to weight components and to decide
        whether another order is needed (deterministic in random_state)."""
        rng = np.random.default_rng(self.random_state)
        n_val = max(2, int(round(len(X) * self.validation_fraction)))
        order_idx = rng.permutation(len(X))
        val_idx, train_idx = order_idx[:n_val], order_idx[n_val:]
        return X[train_idx], y[train_idx], X[val_idx], y[val_idx], np.exp(y[val_idx])

    def _fit_orders(
        self,
        X: np.ndarray,
        y: np.ndarray,
        component_val_preds: List[np.ndarray],
        checkpoint,
        engine=None,
    ) -> "HierarchicalModel":
        fit_start = time.perf_counter()
        X_train, y_train, X_val, y_val, measured_val = self._split(X, y)
        self._merged = None

        # A resumed model may already satisfy the stopping criterion.
        if component_val_preds:
            self.order_ = len(self._components)
            self._weights = self._combine(component_val_preds, y_val)
            blended = self._blend(component_val_preds)
            self.holdout_error_ = mean_relative_error(np.exp(blended), measured_val)
            if (1.0 - self.holdout_error_) >= self.target_accuracy:
                return self

        first_order = len(self._components) + 1
        prefit = self._speculative_fit(engine, first_order, X_train, y_train)

        for order in range(first_order, self.max_order + 1):
            if prefit is not None:
                component = prefit[order - first_order]
            else:
                component = self._build_component(order)
                component.fit(X_train, y_train)
            self._components.append(component)
            component_val_preds.append(component.predict(X_val))
            self.order_ = order

            self._weights = self._combine(component_val_preds, y_val)
            blended = self._blend(component_val_preds)
            self.holdout_error_ = mean_relative_error(np.exp(blended), measured_val)
            if tele.enabled():
                tele.event(
                    "hm.order",
                    order=order,
                    holdout_error=float(self.holdout_error_),
                    components=len(self._components),
                    weights=[float(w) for w in self._weights],
                    target_accuracy=self.target_accuracy,
                )
            if checkpoint is not None:
                checkpoint(self)
            if (1.0 - self.holdout_error_) >= self.target_accuracy:
                break
        observe_fit(
            "hm",
            time.perf_counter() - fit_start,
            sum(getattr(c, "n_trees_fitted", 0) for c in self._components),
            sum(
                len(t._nodes)
                for c in self._components
                for t in getattr(c, "_trees", [])
            ),
        )
        return self

    # ------------------------------------------------------------------
    def _speculative_fit(self, engine, first_order: int, X_train, y_train):
        """Fit the remaining orders concurrently when the engine can.

        Components are mutually independent — each is seeded from its
        order alone and fits the same training split, with stacking
        weights resolved afterwards — so every order that *might* be
        needed can train at once and the main loop then consumes the
        prefix it would have fitted sequentially, evaluating the same
        early-stop checks in the same sequence.  Orders beyond the stop
        point are wasted work, which is why this path only engages on
        backends that actually run tasks in parallel.  Fitted state
        round-trips through pickle exactly, so results are bit-identical
        to a sequential fit.
        """
        if engine is None or not getattr(engine, "supports_parallel_tasks", False):
            return None
        if self.component_factory is not None:
            # Arbitrary factories may build unpicklable estimators.
            return None
        orders = list(range(first_order, self.max_order + 1))
        if len(orders) < 2:
            return None
        payloads = [
            (self._build_component(order), X_train, y_train) for order in orders
        ]
        if tele.enabled():
            tele.event("hm.parallel_fit", orders=orders)
        return list(engine.map_tasks(_fit_component, payloads))

    # ------------------------------------------------------------------
    def _build_component(self, order: int):
        """One sub-model with order-specific randomness (Algorithm 1's
        TM1/TM2 "call the same function but ... we introduce randomness")."""
        if self.component_factory is not None:
            return self.component_factory(order)
        return GradientBoostedTrees(
            n_trees=self.n_trees,
            learning_rate=self.learning_rate,
            tree_complexity=self.tree_complexity,
            subsample=self.subsample,
            validation_fraction=self.validation_fraction,
            patience=self.patience,
            random_state=self.random_state + 7919 * order,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _combine(predictions: List[np.ndarray], y_val: np.ndarray) -> np.ndarray:
        """Non-negative least-squares stacking weights (β coefficients)."""
        if len(predictions) == 1:
            return np.array([1.0])
        A = np.column_stack(predictions)
        weights, _ = nnls(A, y_val)
        if weights.sum() <= 0:
            # Degenerate holdout: fall back to a plain average.
            return np.full(len(predictions), 1.0 / len(predictions))
        return weights

    def _blend(self, predictions: List[np.ndarray]) -> np.ndarray:
        assert self._weights is not None
        stacked = np.column_stack(predictions)
        return stacked @ self._weights

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Blended prediction, binning the input **once**.

        When every component is a :class:`GradientBoostedTrees` (the
        default), the input matrix is binned a single time against the
        merged edge set and each component's codes are recovered with a
        table gather (:class:`repro.models.flat.MergedBinner`) — exactly
        the codes per-component binning would produce — then pushed
        through the component's stacked flat table.  Non-GBT components
        (custom factories) fall back to per-component ``predict``.
        """
        if not self._components or self._weights is None:
            raise RuntimeError("model is not fitted")
        if all(isinstance(c, GradientBoostedTrees) for c in self._components):
            out, seconds = timed(lambda: self._predict_flat(X))
            observe_predict("flat", "hm", len(out), seconds)
            return out
        out, seconds = timed(
            lambda: self._blend([c.predict(X) for c in self._components])
        )
        observe_predict("walk", "hm", len(out), seconds)
        return out

    def _predict_flat(self, X: np.ndarray) -> np.ndarray:
        if self._merged is None:
            self._merged = MergedBinner([c._binner for c in self._components])
        merged = self._merged.merged_codes(np.asarray(X, dtype=float))
        predictions = [
            component.predict_codes(self._merged.component_codes(i, merged))
            for i, component in enumerate(self._components)
        ]
        return self._blend(predictions)

    # ------------------------------------------------------------------
    def to_sections(self):
        """Lower the fitted model into ``(sections, meta)`` for the blob
        format.

        Only the default all-:class:`GradientBoostedTrees` composition
        lowers — per-component node tables, bin edges and stacking
        weights become array sections, scalars become JSON meta.  A
        custom ``component_factory`` (arbitrary estimators) raises
        ``ValueError``; the store falls back to pickling those.
        """
        if not self._components or self._weights is None:
            raise ValueError("model is not fitted")
        if self.component_factory is not None or not all(
            isinstance(c, GradientBoostedTrees) for c in self._components
        ):
            raise ValueError("only default GBT components lower to sections")
        sections = {
            "weights": np.asarray(self._weights, dtype=float),
            "holdout": np.asarray([self.holdout_error_], dtype=float),
        }
        component_meta = []
        for i, component in enumerate(self._components):
            comp_sections, comp_meta = component.to_sections(prefix=f"c{i}.")
            sections.update(comp_sections)
            component_meta.append(comp_meta)
        meta = {
            "n_trees": int(self.n_trees),
            "learning_rate": float(self.learning_rate),
            "tree_complexity": int(self.tree_complexity),
            "subsample": float(self.subsample),
            "target_accuracy": float(self.target_accuracy),
            "max_order": int(self.max_order),
            "validation_fraction": float(self.validation_fraction),
            "patience": int(self.patience),
            "random_state": int(self.random_state),
            "order": int(self.order_),
            "components": component_meta,
        }
        return sections, meta

    @classmethod
    def from_sections(cls, sections, meta) -> "HierarchicalModel":
        """Rebuild a model from stored sections (zero copy; see
        :meth:`GradientBoostedTrees.from_sections`).

        The restored model predicts bit-for-bit like the original and
        supports :meth:`resume_fit` — missing orders are refitted and
        re-stacked against the frozen ones.
        """
        model = cls(
            n_trees=int(meta["n_trees"]),
            learning_rate=float(meta["learning_rate"]),
            tree_complexity=int(meta["tree_complexity"]),
            subsample=float(meta["subsample"]),
            target_accuracy=float(meta["target_accuracy"]),
            max_order=int(meta["max_order"]),
            validation_fraction=float(meta["validation_fraction"]),
            patience=int(meta["patience"]),
            random_state=int(meta["random_state"]),
        )
        model._components = [
            GradientBoostedTrees.from_sections(sections, comp_meta, prefix=f"c{i}.")
            for i, comp_meta in enumerate(meta["components"])
        ]
        model._weights = np.asarray(sections["weights"], dtype=float)
        model.holdout_error_ = float(np.asarray(sections["holdout"])[0])
        model.order_ = int(meta["order"])
        model._merged = None
        return model

    @property
    def n_components(self) -> int:
        return len(self._components)

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Models pickled before the flat layer predate the merged-binner
        # cache; it is rebuilt on first predict.
        self.__dict__.setdefault("_merged", None)
