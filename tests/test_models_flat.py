"""Flat-array inference: bitwise equivalence, binning, memoization, drain.

The load-bearing property of :mod:`repro.models.flat` is that the fast
path is *bit-for-bit* equal to the node-walk oracle — every
fingerprint-equality guarantee of the store/service layers rides on it —
so these tests compare with ``tobytes()``, never ``allclose``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ga import MemoizedFitness
from repro.models.boosting import GradientBoostedTrees
from repro.models.flat import FlatForest, FlatTree, MergedBinner
from repro.models.forest import RandomForest
from repro.models.hierarchical import HierarchicalModel
from repro.models.tree import BinnedDataset, RegressionTree, bin_with_edges
from repro.telemetry.metrics import MetricsRegistry, set_registry
from tests.oracles.tree import predict_binned_walk, predict_walk


# ----------------------------------------------------------------------
# Vectorized binning
# ----------------------------------------------------------------------
class TestBinWithEdges:
    def test_matches_searchsorted_on_specials(self):
        rng = np.random.default_rng(0)
        X = rng.random((300, 6))
        binner = BinnedDataset(X, max_bins=32)
        Q = rng.random((64, 6))
        Q[0, 0] = np.nan
        Q[1, 1] = np.inf
        Q[2, 2] = -np.inf
        Q[3, 3] = binner.edges[3][0]  # exactly on an edge
        Q[4, 4] = np.nextafter(binner.edges[4][0], -np.inf)
        reference = np.empty(Q.shape, dtype=np.int64)
        for j in range(6):
            reference[:, j] = np.searchsorted(binner.edges[j], Q[:, j], side="right")
        assert np.array_equal(bin_with_edges(Q, binner.edges), reference)

    def test_chunking_is_invisible(self, monkeypatch):
        import repro.models.tree as tree_mod

        rng = np.random.default_rng(1)
        X = rng.random((200, 4))
        binner = BinnedDataset(X)
        Q = rng.random((97, 4))
        whole = bin_with_edges(Q, binner.edges)
        monkeypatch.setattr(tree_mod, "_BIN_CHUNK_ELEMENTS", 16)
        assert np.array_equal(bin_with_edges(Q, binner.edges), whole)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_searchsorted_randomized(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((80, 3))
        binner = BinnedDataset(X, max_bins=rng.integers(2, 64))
        # Mix fresh draws with training values (frequent exact-edge hits).
        Q = np.vstack([rng.random((20, 3)), X[rng.integers(0, 80, 20)]])
        reference = np.empty(Q.shape, dtype=np.int64)
        for j in range(3):
            reference[:, j] = np.searchsorted(binner.edges[j], Q[:, j], side="right")
        assert np.array_equal(bin_with_edges(Q, binner.edges), reference)


class TestBinMatrixCache:
    def test_repeat_matrix_served_from_cache(self):
        rng = np.random.default_rng(2)
        binner = BinnedDataset(rng.random((100, 5)))
        Q = rng.random((30, 5))
        first = binner.bin_matrix(Q)
        assert binner.bin_matrix(Q) is first  # identity: cached object

    def test_cache_is_bounded(self):
        rng = np.random.default_rng(3)
        binner = BinnedDataset(rng.random((50, 2)))
        for _ in range(3 * BinnedDataset.CODE_CACHE_SIZE):
            binner.bin_matrix(rng.random((4, 2)))
        assert len(binner._code_cache) <= BinnedDataset.CODE_CACHE_SIZE

    def test_cache_not_pickled(self):
        rng = np.random.default_rng(4)
        binner = BinnedDataset(rng.random((50, 2)))
        Q = rng.random((5, 2))
        codes = binner.bin_matrix(Q)
        clone = pickle.loads(pickle.dumps(binner))
        assert clone._code_cache == {}
        assert np.array_equal(clone.bin_matrix(Q), codes)

    def test_duplicate_columns_share_edges(self):
        rng = np.random.default_rng(5)
        col = rng.random(100)
        X = np.column_stack([col, rng.random(100), col])
        binner = BinnedDataset(X)
        assert binner.edges[2] is binner.edges[0]
        assert np.array_equal(binner.codes[:, 2], binner.codes[:, 0])


# ----------------------------------------------------------------------
# Flat == node walk, bitwise
# ----------------------------------------------------------------------
class TestFlatTree:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tc=st.sampled_from([1, 2, 5, 37, 200]),
    )
    @settings(max_examples=40, deadline=None)
    def test_flat_equals_walk_bitwise(self, seed, tc):
        rng = np.random.default_rng(seed)
        X = rng.random((250, 5))
        y = rng.normal(size=250)
        tree = RegressionTree(tree_complexity=tc, min_samples_leaf=1).fit(X, y)
        codes = tree._binner.bin_matrix(rng.random((70, 5)))
        flat = tree.predict_binned(codes)
        walk = predict_binned_walk(tree, codes)
        assert flat.tobytes() == walk.tobytes()

    def test_single_leaf_stump(self):
        # min_samples_leaf too large to split: the tree is one leaf.
        X = np.random.default_rng(6).random((20, 3))
        y = np.arange(20.0)
        tree = RegressionTree(tree_complexity=1, min_samples_leaf=50).fit(X, y)
        assert tree.n_internal_nodes == 0
        codes = tree._binner.bin_matrix(X)
        assert tree.predict_binned(codes).tobytes() == \
            predict_binned_walk(tree, codes).tobytes()

    def test_over_255_nodes(self):
        rng = np.random.default_rng(7)
        X = rng.random((2000, 6))
        y = rng.normal(size=2000)
        tree = RegressionTree(tree_complexity=400, min_samples_leaf=1).fit(X, y)
        assert len(tree._nodes) > 255
        codes = tree._binner.bin_matrix(rng.random((100, 6)))
        assert tree.predict_binned(codes).tobytes() == \
            predict_binned_walk(tree, codes).tobytes()

    def test_flatten_cached_and_invalidated_by_refit(self):
        rng = np.random.default_rng(8)
        X, y = rng.random((60, 3)), rng.random(60)
        tree = RegressionTree(tree_complexity=3).fit(X, y)
        first = tree.flatten()
        assert tree.flatten() is first
        tree.fit(X, -y)
        assert tree.flatten() is not first

    def test_flat_tree_pickle_round_trip(self):
        rng = np.random.default_rng(9)
        tree = RegressionTree(tree_complexity=5).fit(
            rng.random((80, 4)), rng.random(80)
        )
        flat = tree.flatten()
        clone = pickle.loads(pickle.dumps(flat))
        codes = tree._binner.bin_matrix(rng.random((20, 4)))
        assert clone.predict(codes).tobytes() == flat.predict(codes).tobytes()


class TestFlatForest:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_gbt_flat_equals_walk_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((150, 4))
        y = rng.normal(size=150)
        model = GradientBoostedTrees(
            n_trees=30, random_state=seed, patience=10 if seed % 2 else 200
        ).fit(X, y)
        Q = rng.random((60, 4))
        assert model.predict(Q).tobytes() == predict_walk(model, Q).tobytes()

    def test_stacked_table_matches_per_tree(self):
        rng = np.random.default_rng(10)
        X, y = rng.random((120, 3)), rng.random(120)
        model = GradientBoostedTrees(n_trees=12, random_state=1).fit(X, y)
        forest = model.flatten()
        assert forest.n_trees == model.n_trees_fitted
        codes = model._binner.bin_matrix(rng.random((25, 3)))
        leaves = forest.leaf_values(codes)
        for t, tree in enumerate(model._trees):
            assert leaves[t].tobytes() == predict_binned_walk(tree, codes).tobytes()

    def test_prefix_traversal(self):
        rng = np.random.default_rng(11)
        X, y = rng.random((120, 3)), rng.random(120)
        model = GradientBoostedTrees(n_trees=9, random_state=2).fit(X, y)
        codes = model._binner.bin_matrix(rng.random((10, 3)))
        full = model.flatten().leaf_values(codes)
        partial = model.flatten().leaf_values(codes, n_trees=4)
        assert partial.shape == (4, 10)
        assert partial.tobytes() == full[:4].tobytes()

    def test_random_forest_flat_equals_walk(self):
        rng = np.random.default_rng(12)
        X, y = rng.random((150, 4)), rng.random(150)
        model = RandomForest(n_trees=20, random_state=3).fit(X, y)
        Q = rng.random((40, 4))
        codes = model._binner.bin_matrix(Q)
        total = np.zeros(len(codes))
        for tree in model._trees:
            total += predict_binned_walk(tree, codes)
        assert model.predict(Q).tobytes() == (total / len(model._trees)).tobytes()

    def test_gbt_pickle_round_trip_keeps_fast_path(self):
        rng = np.random.default_rng(13)
        model = GradientBoostedTrees(n_trees=10, random_state=4).fit(
            rng.random((100, 3)), rng.random(100)
        )
        Q = rng.random((15, 3))
        expected = model.predict(Q)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.predict(Q).tobytes() == expected.tobytes()
        assert isinstance(clone.flatten(), FlatForest)

    def test_setstate_accepts_pre_flat_pickles(self):
        """A model state dict without the flat-cache slots (an artifact
        written before this layer existed) must load and predict."""
        rng = np.random.default_rng(14)
        model = GradientBoostedTrees(n_trees=8, random_state=5).fit(
            rng.random((90, 3)), rng.random(90)
        )
        Q = rng.random((12, 3))
        expected = model.predict(Q)

        old_state = dict(model.__dict__)
        old_state.pop("_flat")
        old_state["_trees"] = []
        for tree in model._trees:
            tree_state = dict(tree.__dict__)
            tree_state.pop("_flat")
            revived_tree = RegressionTree.__new__(RegressionTree)
            revived_tree.__setstate__(tree_state)
            old_state["_trees"].append(revived_tree)
        binner_state = dict(model._binner.__dict__)
        binner_state.pop("_code_cache")
        revived_binner = BinnedDataset.__new__(BinnedDataset)
        revived_binner.__setstate__(binner_state)
        old_state["_binner"] = revived_binner
        for tree in old_state["_trees"]:
            tree._binner = revived_binner

        revived = GradientBoostedTrees.__new__(GradientBoostedTrees)
        revived.__setstate__(old_state)
        assert revived.predict(Q).tobytes() == expected.tobytes()

    def test_pickles_with_a_fit_path_field_still_load(self):
        """Artifacts written while models carried a ``fit_path`` field
        load and predict unchanged; the stale field is simply ignored."""
        rng = np.random.default_rng(15)
        model = HierarchicalModel(
            n_trees=6, target_accuracy=0.999, max_order=2, random_state=4
        ).fit(rng.random((90, 3)), rng.normal(size=90))
        Q = rng.random((12, 3))
        expected = model.predict(Q).tobytes()
        model.fit_path = None
        for component in model._components:
            component.fit_path = "numpy"
            for tree in component._trees:
                tree.fit_path = "numpy"
        revived = pickle.loads(pickle.dumps(model))
        assert revived.predict(Q).tobytes() == expected


# ----------------------------------------------------------------------
# Merged binning across HM components
# ----------------------------------------------------------------------
class TestMergedBinner:
    def _binners(self, seed, n_features=4, n=120, count=3):
        rng = np.random.default_rng(seed)
        return [
            BinnedDataset(rng.random((n, n_features)), max_bins=rng.integers(2, 48))
            for _ in range(count)
        ]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_component_codes_equal_direct_binning(self, seed):
        binners = self._binners(seed)
        merged = MergedBinner(binners)
        rng = np.random.default_rng(seed + 1)
        # Exact merged-edge values are the adversarial inputs.
        edge_hits = np.column_stack(
            [
                rng.choice(merged.edges[j], size=10)
                for j in range(merged.n_features)
            ]
        )
        Q = np.vstack([rng.random((40, merged.n_features)), edge_hits])
        codes = merged.merged_codes(Q)
        for i, binner in enumerate(binners):
            translated = merged.component_codes(i, codes)
            assert np.array_equal(translated, binner.bin_matrix(Q).astype(np.int64))

    def test_rejects_mismatched_feature_counts(self):
        rng = np.random.default_rng(20)
        a = BinnedDataset(rng.random((50, 3)))
        b = BinnedDataset(rng.random((50, 4)))
        with pytest.raises(ValueError):
            MergedBinner([a, b])
        with pytest.raises(ValueError):
            MergedBinner([])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_hm_flat_equals_per_component_walk(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((140, 4))
        y = rng.normal(size=140)
        model = HierarchicalModel(
            n_trees=15, target_accuracy=0.99, max_order=3, random_state=seed
        ).fit(X, y)
        Q = rng.random((50, 4))
        reference = model._blend([predict_walk(c, Q) for c in model._components])
        assert model.predict(Q).tobytes() == reference.tobytes()

    def test_hm_pickle_round_trip(self):
        rng = np.random.default_rng(21)
        model = HierarchicalModel(
            n_trees=10, target_accuracy=0.99, max_order=2, random_state=6
        ).fit(rng.random((100, 3)), rng.random(100))
        Q = rng.random((20, 3))
        expected = model.predict(Q)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.predict(Q).tobytes() == expected.tobytes()

    def test_non_gbt_components_fall_back(self):
        class Affine:
            def fit(self, X, y):
                return self

            def predict(self, X):
                return np.asarray(X)[:, 0] * 2.0

        model = HierarchicalModel(component_factory=lambda order: Affine())
        rng = np.random.default_rng(22)
        model.fit(rng.random((60, 3)), rng.random(60))
        Q = rng.random((10, 3))
        assert model.predict(Q).tobytes() == \
            model._blend([c.predict(Q) for c in model._components]).tobytes()


# ----------------------------------------------------------------------
# Parallel component fitting
# ----------------------------------------------------------------------
class TestParallelFit:
    def test_map_tasks_serial_default(self):
        from repro.engine import InProcessBackend

        engine = InProcessBackend()
        assert not engine.supports_parallel_tasks
        assert engine.map_tasks(abs, [-1, -2, 3]) == [1, 2, 3]

    def test_parallel_fit_matches_sequential_bitwise(self):
        from repro.engine import ProcessPoolBackend

        rng = np.random.default_rng(23)
        X = rng.random((120, 3))
        y = rng.normal(size=120)
        kwargs = dict(
            n_trees=10, target_accuracy=0.999, max_order=3, random_state=7
        )
        sequential = HierarchicalModel(**kwargs).fit(X, y)
        with ProcessPoolBackend(jobs=2) as engine:
            assert engine.supports_parallel_tasks
            parallel = HierarchicalModel(**kwargs).fit(X, y, engine=engine)
        assert parallel.n_components == sequential.n_components
        assert parallel._weights.tobytes() == sequential._weights.tobytes()
        Q = rng.random((30, 3))
        assert parallel.predict(Q).tobytes() == sequential.predict(Q).tobytes()
        assert parallel.holdout_error_ == sequential.holdout_error_

    def test_serial_engine_keeps_lazy_early_stop(self):
        """On a serial backend the speculative path must not engage —
        an easily-satisfied target fits exactly one component."""
        from repro.engine import InProcessBackend

        rng = np.random.default_rng(24)
        X = rng.random((120, 3))
        y = 3.0 * X[:, 0]  # trivially learnable
        model = HierarchicalModel(
            n_trees=60, target_accuracy=0.5, max_order=3, random_state=8
        ).fit(X, y, engine=InProcessBackend())
        assert model.n_components == 1


# ----------------------------------------------------------------------
# Fitness memoization
# ----------------------------------------------------------------------
class TestMemoizedFitness:
    def test_exact_values_and_hit_accounting(self):
        calls = []

        def fitness(pop):
            calls.append(len(pop))
            return np.asarray(pop).sum(axis=1)

        memo = MemoizedFitness(fitness)
        rng = np.random.default_rng(25)
        pop = rng.random((10, 4))
        first = memo(pop)
        assert first.tobytes() == pop.sum(axis=1).tobytes()
        assert memo.misses == 10 and memo.hits == 0

        # Half elites (repeat rows), half fresh.
        fresh = rng.random((5, 4))
        mixed = np.vstack([pop[:5], fresh])
        second = memo(mixed)
        assert memo.hits == 5 and memo.misses == 15
        assert calls == [10, 5]  # only the unseen rows hit the model
        assert second[:5].tobytes() == first[:5].tobytes()
        assert second[5:].tobytes() == fresh.sum(axis=1).tobytes()

    def test_cache_is_bounded(self):
        memo = MemoizedFitness(lambda pop: np.zeros(len(pop)), max_entries=8)
        rng = np.random.default_rng(26)
        memo(rng.random((50, 3)))
        assert len(memo._cache) <= 8

    def test_counters_reach_registry(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            memo = MemoizedFitness(lambda pop: np.zeros(len(pop)))
            pop = np.random.default_rng(27).random((6, 2))
            memo(pop)
            memo(pop)
            snap = registry.snapshot()
            assert snap.counters["ga.fitness_cache.hits"] == 6
            assert snap.counters["ga.fitness_cache.misses"] == 6
        finally:
            set_registry(previous)

    def test_ga_result_identical_with_and_without_memo(self):
        from repro.common.rng import derive_rng
        from repro.core.ga import GeneticAlgorithm
        from repro.sparksim.confspace import spark_configuration_space

        space = spark_configuration_space()

        def fitness(pop):
            return np.asarray(pop).sum(axis=1)

        ga = GeneticAlgorithm(space, population_size=12)
        bare = ga.minimize(
            fitness, derive_rng("memo-test"), generations=6, patience=None
        )
        memo = MemoizedFitness(fitness)
        memoized = ga.minimize(
            memo, derive_rng("memo-test"), generations=6, patience=None
        )
        assert memoized.history == bare.history
        assert memoized.best_fitness == bare.best_fitness
        assert memo.hits > 0  # elites were served from the cache


# ----------------------------------------------------------------------
# Predict telemetry
# ----------------------------------------------------------------------
class TestPredictMetrics:
    def test_model_predict_metrics_recorded(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            rng = np.random.default_rng(28)
            model = HierarchicalModel(
                n_trees=8, target_accuracy=0.99, max_order=1, random_state=9
            ).fit(rng.random((80, 3)), rng.random(80))
            model.predict(rng.random((30, 3)))
            snap = registry.snapshot()
            assert snap.counters['model.predict.rows{model=hm,path=flat}'] >= 30
            key = 'model.predict.seconds{model=hm,path=flat}'
            assert snap.histograms[key].count >= 1
        finally:
            set_registry(previous)
