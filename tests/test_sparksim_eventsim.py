"""Tests for the discrete-event oracle and analytic-model validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import derive_rng
from repro.sparksim.cluster import PAPER_CLUSTER
from repro.sparksim.config import SparkConf
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.sparksim.scheduler import WaveScheduler
from repro.sparksim.task import TaskProfile
from tests.oracles.eventsim import draw_task_times, expected_makespan, simulate_stage


def conf(**overrides):
    return SparkConf(SPARK_CONF_SPACE.from_dict(overrides), PAPER_CLUSTER)


def profile(num_tasks=100, compute=5.0, skew=0.2, oom=0.0):
    return TaskProfile(
        num_tasks=num_tasks,
        compute_seconds=compute,
        io_seconds=1.0,
        shuffle_seconds=0.5,
        gc_seconds=0.1,
        spill_bytes=0.0,
        oom_probability=oom,
        max_gc_pause_seconds=0.1,
        network_seconds=0.1,
        skew=skew,
    )


class TestSimulateStage:
    def test_empty_stage(self):
        timeline = simulate_stage(
            profile(num_tasks=1), conf(), derive_rng("e0"),
            task_times=np.array([]),
        )
        assert timeline.makespan == 0.0

    def test_all_tasks_scheduled_exactly_once(self):
        timeline = simulate_stage(profile(num_tasks=77), conf(), derive_rng("e1"))
        assert timeline.num_tasks == 77

    def test_makespan_bounds(self):
        """Greedy list scheduling: max(t) <= makespan (and it also covers
        total work / slots)."""
        p = profile(num_tasks=500)
        c = conf()
        rng = derive_rng("e2")
        times = draw_task_times(p, rng)
        timeline = simulate_stage(p, c, rng, task_times=times)
        slots = int(c.total_task_slots)
        assert timeline.makespan >= times.max()
        assert timeline.makespan >= times.sum() / slots

    def test_deterministic_with_fixed_times(self):
        p = profile(num_tasks=40)
        c = conf()
        times = np.full(40, 3.0)
        a = simulate_stage(p, c, derive_rng("x"), task_times=times)
        b = simulate_stage(p, c, derive_rng("y"), task_times=times)
        assert a.makespan == b.makespan

    def test_no_slot_runs_two_tasks_at_once(self):
        timeline = simulate_stage(profile(num_tasks=50), conf(), derive_rng("e3"))
        events = sorted(timeline.events, key=lambda e: e.start)
        # At any event start, running tasks <= slots.
        slots = int(conf().total_task_slots)
        for event in events:
            running = sum(
                1 for other in events if other.start <= event.start < other.finish
            )
            assert running <= slots

    def test_utilization_bounded(self):
        timeline = simulate_stage(profile(num_tasks=400), conf(), derive_rng("e4"))
        u = timeline.utilization(conf().total_task_slots)
        assert 0.0 < u <= 1.0

    def test_speculation_adds_copies_under_heavy_skew(self):
        p = profile(num_tasks=300, skew=1.0)
        speculative = conf(**{
            "spark.speculation": True,
            "spark.speculation.quantile": 0.5,
            "spark.speculation.multiplier": 1.1,
        })
        plain = conf(**{"spark.speculation": False})
        rng_times = draw_task_times(p, derive_rng("e5"))
        with_spec = simulate_stage(p, speculative, derive_rng("e5c"), rng_times)
        without = simulate_stage(p, plain, derive_rng("e5c"), rng_times)
        assert with_spec.speculative_copies > 0
        assert with_spec.makespan <= without.makespan

    def test_expected_makespan_validates_input(self):
        with pytest.raises(ValueError):
            expected_makespan(profile(), conf(), derive_rng("e6"), replications=0)


class TestAnalyticModelValidation:
    """The core purpose: the analytic scheduler tracks the event sim."""

    @pytest.mark.parametrize(
        "num_tasks,skew,cores",
        [
            (50, 0.1, 12),   # single wave, mild skew
            (500, 0.2, 12),  # multi-wave
            (1500, 0.3, 4),  # many waves, heavier skew
        ],
    )
    def test_analytic_tracks_event_driven(self, num_tasks, skew, cores):
        p = profile(num_tasks=num_tasks, skew=skew)
        c = conf(**{"spark.executor.cores": cores,
                    "spark.executor.memory": 4096})
        reference = expected_makespan(p, c, derive_rng("val", num_tasks), 30)
        analytic = WaveScheduler(c).stage_time(p, 0.0, derive_rng("val2")).seconds
        # Within 35% — the analytic model is a bound-based approximation.
        assert analytic == pytest.approx(reference, rel=0.35)

    @given(st.integers(min_value=10, max_value=2000))
    @settings(max_examples=10, deadline=None)
    def test_analytic_within_factor_two_for_any_task_count(self, num_tasks):
        p = profile(num_tasks=num_tasks, skew=0.25)
        c = conf(**{"spark.executor.cores": 8, "spark.executor.memory": 4096})
        reference = expected_makespan(p, c, derive_rng("h", num_tasks), 8)
        analytic = WaveScheduler(c).stage_time(p, 0.0, derive_rng("h2")).seconds
        assert reference / 2 < analytic < reference * 2
