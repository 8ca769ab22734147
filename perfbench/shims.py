"""Timing shims around the public entry points of each layer.

A :class:`Tracer` replaces selected methods of the program's classes
with thin wrappers that time every call, and puts the originals back on
exit.  It is installed only around the traced units of a ``--trace 1``
run; untraced units assert that no shim is present
(:func:`installed_shims`), so the end-to-end numbers never carry its
cost.

Spans are kept in memory, per thread.  A metric is timed only at its
outermost call (a ``CachedBackend.submit`` calling the inner backend's
``submit`` counts once), and a shim with ``within`` times only calls
made while that other span is open on the same thread, e.g. tree
predictions inside ``HierarchicalModel.fit``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Attribute set on every wrapper, so installed shims can be found.
MARKER = "__perfbench_shim__"


@dataclass(frozen=True)
class Shim:
    """One method to time: ``module.owner.attr`` -> ``metric``."""

    module: str
    owner: str
    attr: str
    metric: str
    #: Time only calls made while this span is open on the thread.
    within: Optional[str] = None
    #: ``observe(state, args, result)`` adds counts after each timed call.
    observe: Optional[Callable] = None


def _engine_outcomes(state, args, result) -> None:
    state.counts["engine.requests"] += len(args[1])
    for outcome in result:
        if not outcome.ok:
            state.counts["engine.failures"] += 1
            continue
        state.counts["engine.retries"] += max(outcome.attempts - 1, 0)
        state.counts["engine.cache_hits"] += int(outcome.cache_hit)


def _collected_rows(state, args, result) -> None:
    state.counts["collect.rows"] += len(result)


def _fitness_memo(state, args, result) -> None:
    # The memo counts its own hits and misses; read them at report time.
    state.memos.append(result)


def _predicted_rows(state, args, result) -> None:
    state.counts["search.predict_rows"] += len(result)


def _dedup(state, args, result) -> None:
    state.counts["api.dedup_hits"] += int(bool(result.get("deduplicated")))


#: The layers' entry points, in the order the layers are listed in
#: ``perfbench/README.md``.
LAYER_SHIMS: Tuple[Shim, ...] = (
    Shim("repro.core.collecting", "Collector", "collect", "collect.s",
         observe=_collected_rows),
    Shim("repro.core.collecting", "Collector", "plan", "collect.plan_s"),
    Shim("repro.engine.backends", "InProcessBackend", "submit",
         "engine.submit_s", observe=_engine_outcomes),
    Shim("repro.engine.backends", "ProcessPoolBackend", "submit",
         "engine.submit_s", observe=_engine_outcomes),
    Shim("repro.engine.cache", "CachedBackend", "submit",
         "engine.submit_s", observe=_engine_outcomes),
    Shim("repro.models.hierarchical", "HierarchicalModel", "fit", "fit.s"),
    Shim("repro.models.hierarchical", "HierarchicalModel", "_combine",
         "hm.stack_s", within="fit.s"),
    Shim("repro.models.boosting", "GradientBoostedTrees", "fit", "fit.gbt_s"),
    Shim("repro.models.tree", "RegressionTree", "fit_binned", "fit.tree_s"),
    Shim("repro.models.tree", "BinnedDataset", "shared", "fit.bin_s"),
    Shim("repro.models.histkernel", "FrontierEvaluator", "evaluate",
         "fit.kernel_s"),
    Shim("repro.models.histkernel", "FrontierEvaluator", "evaluate_pair",
         "fit.kernel_s"),
    Shim("repro.models.tree", "RegressionTree", "predict_binned",
         "fit.predict_s", within="fit.s"),
    Shim("repro.models.flat", "FlatForest", "leaf_values", "fit.predict_s",
         within="fit.s"),
    Shim("repro.core.tuner", "DacTuner", "tune", "search.s"),
    Shim("repro.core.tuner", "DacTuner", "fitness_for", "search.fitness_s",
         observe=_fitness_memo),
    Shim("repro.core.ga", "GeneticAlgorithm", "step", "ga.step_s"),
    Shim("repro.models.hierarchical", "HierarchicalModel", "predict",
         "search.predict_s", within="search.s", observe=_predicted_rows),
    Shim("repro.service.api.client", "ApiClient", "submit", "api.submit_s",
         observe=_dedup),
    Shim("repro.service.api.client", "ApiClient", "status", "api.poll_s"),
    Shim("repro.service.api.client", "ApiClient", "result", "api.poll_s"),
)


class _ThreadState:
    def __init__(self) -> None:
        self.open: List[str] = []
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: (outer metric, inner metric) -> inner seconds spent inside outer.
        self.nested: Dict[Tuple[str, str], float] = defaultdict(float)
        #: MemoizedFitness objects the GA scored through.
        self.memos: List[object] = []

    def close(self, metric: str, elapsed: float) -> None:
        """End the innermost open span, ``metric``, after ``elapsed`` s."""
        self.open.pop()
        self.seconds[metric] += elapsed
        self.calls[metric] += 1
        for outer in self.open:
            self.nested[(outer, metric)] += elapsed


class Tracer:
    """Installs :data:`LAYER_SHIMS` for the life of a ``with`` block."""

    def __init__(self, on_call: Optional[Callable] = None):
        #: ``on_call(metric, args, result, end_time)`` after each timed call.
        self.on_call = on_call
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._originals: List[Tuple[type, str, object]] = []

    # -- install / remove -----------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for shim in LAYER_SHIMS:
                owner = getattr(importlib.import_module(shim.module), shim.owner)
                original = owner.__dict__[shim.attr]
                setattr(owner, shim.attr, self._wrap(original, shim))
                self._originals.append((owner, shim.attr, original))
        except BaseException:
            self._remove()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._remove()

    def _remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, shim: Shim):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap(original.__func__, shim))
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            state = tracer._state()
            if shim.metric in state.open or (
                shim.within is not None and shim.within not in state.open
            ):
                return original(*args, **kwargs)
            state.open.append(shim.metric)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.close(shim.metric, end - start)
            if shim.observe is not None:
                shim.observe(state, args, result)
            if tracer.on_call is not None:
                tracer.on_call(shim.metric, args, result, end)
            return result

        setattr(timed, MARKER, True)
        return timed

    # -- benchmark-level spans ------------------------------------------
    @contextmanager
    def span(self, metric: str):
        """Time a block of the benchmark's own code as ``metric``."""
        state = self._state()
        state.open.append(metric)
        start = time.perf_counter()
        try:
            yield
        finally:
            state.close(metric, time.perf_counter() - start)

    # -- results ----------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def totals(self):
        """``(seconds, calls, counts, nested)`` merged over all threads."""
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counts: Dict[str, int] = defaultdict(int)
        nested: Dict[Tuple[str, str], float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for target, source in ((seconds, state.seconds),
                                   (calls, state.calls),
                                   (counts, state.counts),
                                   (nested, state.nested)):
                for key, value in source.items():
                    target[key] += value
            for memo in state.memos:
                counts["ga.memo_hits"] += memo.hits
                counts["ga.memo_rows"] += memo.hits + memo.misses
        return seconds, calls, counts, nested


def installed_shims() -> List[str]:
    """``module.Owner.attr`` of every shim currently installed."""
    found = []
    for shim in LAYER_SHIMS:
        owner = getattr(importlib.import_module(shim.module), shim.owner)
        value = owner.__dict__.get(shim.attr)
        func = getattr(value, "__func__", value)
        if getattr(func, MARKER, False):
            found.append(f"{shim.module}.{shim.owner}.{shim.attr}")
    return found


def require_untraced() -> None:
    """Raise if any shim is installed: untraced units must carry none."""
    leftover = installed_shims()
    if leftover:
        raise RuntimeError(f"timing shims still installed: {leftover}")
