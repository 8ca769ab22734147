"""Histogram-kernel fit: equivalence, sharing, telemetry.

The kernel's contract is *byte identity* with the per-feature split
search kept as an oracle in ``tests/oracles/tree.py`` — same node
tables, same leaf values, same RNG consumption — because report
fingerprints, dedup, and crash-resume all assume fitted models are
bit-stable.  These tests pin that contract on adversarial inputs, plus
the shared binner cache and the ``model.fit.*`` telemetry.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.boosting import GradientBoostedTrees
from repro.models.forest import RandomForest
from repro.models.hierarchical import HierarchicalModel
from repro.models.histkernel import observe_fit
from repro.models.tree import (
    BinnedDataset,
    RegressionTree,
    _shared_binners,
    clear_shared_binners,
)
from repro.telemetry.metrics import MetricsRegistry, set_registry
from tests.oracles import tree as oracle


@pytest.fixture(autouse=True)
def _fresh_shared_binners():
    clear_shared_binners()
    yield
    clear_shared_binners()


def node_table(tree):
    """Everything that defines the grown tree, bit-exact."""
    structure = [
        (n.feature, n.bin_threshold, n.left, n.right) for n in tree._nodes
    ]
    values = np.array(
        [(n.value, n.threshold) for n in tree._nodes], dtype=float
    ).tobytes()
    return structure, values


def fit_oracle_and_kernel(X, y, **kwargs):
    ref = RegressionTree(**kwargs)
    oracle.fit_binned(ref, BinnedDataset(X, ref.max_bins), y)
    knl = RegressionTree(**kwargs).fit(X, y)
    return ref, knl


# ----------------------------------------------------------------------
# Kernel == oracle, adversarially
# ----------------------------------------------------------------------
class TestSplitEquivalence:
    @given(
        n=st.integers(min_value=4, max_value=90),
        n_features=st.integers(min_value=1, max_value=9),
        msl=st.integers(min_value=1, max_value=6),
        tc=st.integers(min_value=1, max_value=9),
        max_bins=st.integers(min_value=2, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        y_mode=st.sampled_from(["normal", "constant", "quantized"]),
        mtry=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_grows_byte_identical_trees(
        self, n, n_features, msl, tc, max_bins, seed, y_mode, mtry
    ):
        """Constant features, duplicated columns, degenerate targets,
        min_samples_leaf boundaries, and mtry subsets with the same RNG
        stream — the kernel must match the reference on all of them."""
        rng = np.random.default_rng(seed)
        X = rng.random((n, n_features))
        X[:, 0] = 0.5  # constant feature: zero-gain everywhere
        if n_features >= 3:
            X[:, -1] = X[:, 1]  # duplicated column: tie on every split
        if y_mode == "constant":
            y = np.full(n, 1.25)
        elif y_mode == "quantized":
            y = np.round(rng.normal(size=n), 1)  # mass ties in sums
        else:
            y = rng.normal(size=n)
        kwargs = dict(
            tree_complexity=tc,
            min_samples_leaf=msl,
            max_bins=max_bins,
            split_features=max(1, n_features // 2) if mtry else None,
            random_state=seed % 13,
        )
        ref, knl = fit_oracle_and_kernel(X, y, **kwargs)
        assert node_table(ref) == node_table(knl)
        # Same mtry draws consumed in the same order.
        assert ref._rng.bit_generator.state == knl._rng.bit_generator.state

    @pytest.mark.parametrize("msl", [1, 2, 5])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_min_samples_leaf_boundary(self, msl, offset):
        """n = 2*msl is the smallest splittable node; one below must
        leaf out identically on both paths."""
        n = max(2, 2 * msl + offset)
        rng = np.random.default_rng(msl * 10 + offset)
        X = rng.random((n, 4))
        y = rng.normal(size=n)
        ref, knl = fit_oracle_and_kernel(
            X, y, tree_complexity=3, min_samples_leaf=msl
        )
        assert node_table(ref) == node_table(knl)

    def test_all_equal_target_leafs_out(self):
        X = np.random.default_rng(0).random((40, 5))
        y = np.full(40, 3.0)
        ref, knl = fit_oracle_and_kernel(X, y, tree_complexity=5)
        assert node_table(ref) == node_table(knl)
        assert len(knl._nodes) == 1 and knl._nodes[0].is_leaf

    def test_feature_subset_fit_binned(self):
        """Non-identity feature_indices must not trip histogram reuse."""
        rng = np.random.default_rng(5)
        X = rng.random((60, 6))
        y = rng.normal(size=60)
        binner = BinnedDataset(X)
        features = np.array([4, 1, 5])
        ref = RegressionTree(tree_complexity=4)
        oracle.fit_binned(ref, binner, y, feature_indices=features)
        knl = RegressionTree(tree_complexity=4)
        knl.fit_binned(binner, y, feature_indices=features)
        assert node_table(ref) == node_table(knl)
        assert all(
            n.feature in (4, 1, 5) for n in knl._nodes if not n.is_leaf
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_gain_disqualifies_its_feature(self):
        """Feature 0 meets both +1e308 rows, then a bin holding both
        -1e308 rows: its prefix sum runs inf, then inf - inf = NaN.  The
        reference drops that feature even though its first bin scores
        an inf gain, and splits on feature 1 instead."""
        big = 1e308
        y = np.array([big, -big, big, -big, 1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([
            [0.0, 0.2, 0.1, 0.2, 0.4, 0.5, 0.6, 0.7],
            [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
        ])
        ref, knl = fit_oracle_and_kernel(
            X, y, tree_complexity=2, min_samples_leaf=1
        )
        assert node_table(ref) == node_table(knl)
        assert knl._nodes[0].feature == 1

    def test_mtry_with_binding_tree_complexity(self, monkeypatch):
        """When ``tree_complexity`` cuts growth short, the last split's
        children are never scored — yet their mtry draws are still
        consumed, so node tables and the RNG state match the oracle."""
        from repro.models.histkernel import FrontierEvaluator

        rng = np.random.default_rng(9)
        X = rng.random((300, 8))
        y = rng.normal(size=300)
        pairs = []
        scored = FrontierEvaluator.evaluate_pair
        monkeypatch.setattr(
            FrontierEvaluator,
            "evaluate_pair",
            lambda self, *args: pairs.append(args) or scored(self, *args),
        )
        for tc in (1, 2, 4, 7):
            kwargs = dict(
                tree_complexity=tc, min_samples_leaf=2, split_features=3,
                random_state=tc,
            )
            pairs.clear()
            ref, knl = fit_oracle_and_kernel(X, y, **kwargs)
            assert knl.n_internal_nodes == tc  # the budget binds
            assert node_table(ref) == node_table(knl)
            assert ref._rng.bit_generator.state == knl._rng.bit_generator.state
            assert len(pairs) == tc - 1  # the final pair is skipped
        # Without the skipped pair's draws the stream would diverge.
        monkeypatch.setattr(FrontierEvaluator, "skip_pair", lambda *args: None)
        _, lazy = fit_oracle_and_kernel(X, y, **kwargs)
        assert ref._rng.bit_generator.state != lazy._rng.bit_generator.state


# ----------------------------------------------------------------------
# Shared binner cache
# ----------------------------------------------------------------------
class TestSharedBinners:
    def test_same_content_returns_same_object(self):
        X = np.random.default_rng(0).random((50, 4))
        assert BinnedDataset.shared(X) is BinnedDataset.shared(X.copy())

    def test_max_bins_is_part_of_the_key(self):
        X = np.random.default_rng(1).random((50, 4))
        assert BinnedDataset.shared(X, 16) is not BinnedDataset.shared(X, 32)

    def test_lru_eviction_is_bounded(self):
        rng = np.random.default_rng(2)
        matrices = [rng.random((20, 3)) for _ in range(12)]
        binners = [BinnedDataset.shared(m) for m in matrices]
        assert len(_shared_binners) == 8
        # Oldest entries were evicted: re-requesting builds a new binner.
        assert BinnedDataset.shared(matrices[0]) is not binners[0]
        # Newest is still cached.
        assert BinnedDataset.shared(matrices[-1]) is binners[-1]

    def test_large_matrices_bypass_the_cache(self):
        X = np.random.default_rng(3).random((500, 300))  # 1.2 MB > 1 MiB
        a = BinnedDataset.shared(X)
        b = BinnedDataset.shared(X)
        assert a is not b
        assert len(_shared_binners) == 0

    def test_refit_reuses_the_binner(self):
        rng = np.random.default_rng(4)
        X, y = rng.random((60, 5)), rng.normal(size=60)
        first = GradientBoostedTrees(n_trees=4, random_state=0).fit(X, y)
        second = GradientBoostedTrees(n_trees=4, random_state=0).fit(X, y)
        assert second._binner is first._binner

    def test_flat_index_not_pickled(self):
        rng = np.random.default_rng(31)
        binner = BinnedDataset(rng.random((60, 5)), max_bins=16)
        flat_index = binner.flat_index
        assert binner.flat_index is flat_index  # built once
        nb_max = int(binner.n_bins.max())
        assert np.array_equal(
            flat_index, binner.codes.astype(np.int64) + np.arange(5) * nb_max
        )
        clone = pickle.loads(pickle.dumps(binner))
        assert clone._flat_index is None
        assert clone._code_cache == {}
        assert np.array_equal(clone.flat_index, flat_index)

    def test_clear_empties_the_cache(self):
        BinnedDataset.shared(np.random.default_rng(5).random((30, 3)))
        assert len(_shared_binners) == 1
        clear_shared_binners()
        assert len(_shared_binners) == 0


# ----------------------------------------------------------------------
# Ensemble models: kernel fit == oracle fit
# ----------------------------------------------------------------------
class TestEnsemblesBitwiseAcrossPaths:
    """Every tree of the ensemble fitted through the oracle instead of the
    kernel must leave the ensemble's predictions byte-identical."""

    def _data(self, seed, n=90, d=6):
        rng = np.random.default_rng(seed)
        return rng.random((n, d)), rng.normal(size=n)

    def _both(self, monkeypatch, fit, probe):
        kernel = fit().predict(probe).tobytes()
        with monkeypatch.context() as patch:
            patch.setattr(RegressionTree, "fit_binned", oracle.fit_binned)
            reference = fit().predict(probe).tobytes()
        return kernel, reference

    def test_gbt_predictions_identical(self, monkeypatch):
        X, y = self._data(20)
        probe = np.random.default_rng(21).random((40, 6))
        kernel, reference = self._both(
            monkeypatch,
            lambda: GradientBoostedTrees(n_trees=12, random_state=1).fit(X, y),
            probe,
        )
        assert kernel == reference

    def test_random_forest_predictions_identical(self, monkeypatch):
        X, y = self._data(22)
        probe = np.random.default_rng(23).random((40, 6))
        kernel, reference = self._both(
            monkeypatch,
            lambda: RandomForest(n_trees=10, random_state=2).fit(X, y),
            probe,
        )
        assert kernel == reference

    def test_hierarchical_model_predictions_identical(self, monkeypatch):
        X, y = self._data(24, n=120)
        probe = np.random.default_rng(25).random((40, 6))
        kernel, reference = self._both(
            monkeypatch,
            lambda: HierarchicalModel(
                n_trees=10, target_accuracy=0.999, max_order=2, random_state=3,
            ).fit(X, y),
            probe,
        )
        assert kernel == reference


# ----------------------------------------------------------------------
# Fit telemetry
# ----------------------------------------------------------------------
class TestFitTelemetry:
    def test_observe_fit_records_labeled_metrics(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            observe_fit("gbt", 0.25, trees=30, nodes=330)
            snap = registry.snapshot()
            assert snap.counters["model.fit.trees{model=gbt}"] == 30
            assert snap.counters["model.fit.nodes{model=gbt}"] == 330
            hist = snap.histograms["model.fit.seconds{model=gbt}"]
            assert hist.count == 1
        finally:
            set_registry(previous)

    def test_gbt_fit_emits_metrics(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            rng = np.random.default_rng(30)
            model = GradientBoostedTrees(n_trees=6, random_state=0).fit(
                rng.random((50, 4)), rng.normal(size=50)
            )
            snap = registry.snapshot()
            assert snap.counters["model.fit.trees{model=gbt}"] == model.n_trees_fitted
            nodes = sum(len(t._nodes) for t in model._trees)
            assert snap.counters["model.fit.nodes{model=gbt}"] == nodes
        finally:
            set_registry(previous)

    def test_hm_fit_emits_metrics_with_hm_label(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            rng = np.random.default_rng(31)
            HierarchicalModel(
                n_trees=6, target_accuracy=0.5, max_order=1, random_state=0
            ).fit(rng.random((60, 4)), rng.normal(size=60))
            snap = registry.snapshot()
            keys = [k for k in snap.histograms if k.startswith("model.fit.seconds")]
            assert "model.fit.seconds{model=hm}" in keys, keys
        finally:
            set_registry(previous)

    def test_fit_runs_cleanly_without_a_registry(self):
        rng = np.random.default_rng(32)
        GradientBoostedTrees(n_trees=3, random_state=0).fit(
            rng.random((40, 3)), rng.normal(size=40)
        )
