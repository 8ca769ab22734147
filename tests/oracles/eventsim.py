"""Discrete-event stage scheduler: the analytic model's ground truth.

:mod:`repro.sparksim.scheduler` computes stage makespans in expectation
(order statistics + work-conserving bounds).  This oracle implements the
same scheduling semantics *exactly*: per-task durations are sampled,
tasks are list-scheduled onto executor slots with a priority queue,
speculative copies launch when the configured conditions hold, and the
makespan is read off the event clock.  Tests assert the analytic
makespan tracks :func:`expected_makespan` within tolerance across
configurations; :func:`simulate_stage` also returns every task's
start/finish for Gantt-style inspection.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.sparksim.config import SparkConf
from repro.sparksim.scheduler import (
    _STRAGGLER_FACTOR,
    _STRAGGLER_PROBABILITY,
)
from repro.sparksim.task import TaskProfile


@dataclass(frozen=True)
class TaskEvent:
    """One task attempt's placement in the stage timeline."""

    task_id: int
    start: float
    finish: float
    speculative: bool = False


@dataclass(frozen=True)
class StageTimeline:
    """Full event-level account of one stage execution."""

    makespan: float
    events: Tuple[TaskEvent, ...]
    speculative_copies: int

    @property
    def num_tasks(self) -> int:
        return len({e.task_id for e in self.events})

    def utilization(self, slots: float) -> float:
        """Busy slot-seconds over available slot-seconds."""
        if self.makespan <= 0:
            return 0.0
        busy = sum(e.finish - e.start for e in self.events)
        return float(busy / (slots * self.makespan))


def draw_task_times(
    profile: TaskProfile, rng: np.random.Generator
) -> np.ndarray:
    """Per-task durations matching the analytic model's assumptions:
    log-normal skew around the mean (normalized to preserve the mean),
    plus rare hardware stragglers with the scheduler's parameters."""
    sigma = max(profile.skew, 1e-3)
    noise = rng.lognormal(
        mean=-0.5 * sigma * sigma, sigma=sigma, size=profile.num_tasks
    )
    times = profile.mean_seconds * noise
    stragglers = rng.random(profile.num_tasks) < _STRAGGLER_PROBABILITY
    if stragglers.any():
        times[stragglers] *= _STRAGGLER_FACTOR
    return times


def simulate_stage(
    profile: TaskProfile,
    conf: SparkConf,
    rng: np.random.Generator,
    task_times: Optional[np.ndarray] = None,
) -> StageTimeline:
    """Exact list-scheduling of one stage iteration.

    Tasks launch in index order onto the earliest-free slot, paying the
    per-task dispatch latency and the per-wave revive/locality delays
    the analytic model charges.  With ``spark.speculation`` on, once the
    completion quantile is reached, any running task whose elapsed time
    exceeds ``multiplier x median(done)`` gets one speculative copy; the
    task finishes at the earlier of the two attempts.
    """
    slots = max(int(conf.total_task_slots), 1)
    times = draw_task_times(profile, rng) if task_times is None else np.asarray(
        task_times, dtype=float
    )
    n = len(times)
    if n == 0:
        return StageTimeline(makespan=0.0, events=(), speculative_copies=0)

    dispatch = 0.0012 / max(min(conf.akka_threads, conf.driver_cores * 2), 1)
    wave_latency = 0.3 * conf.revive_interval + 0.08 * conf.locality_wait

    # slot_free[i] = when slot i next becomes idle.
    slot_free = [0.0] * slots
    heapq.heapify(slot_free)
    events: List[TaskEvent] = []
    finish_times = np.empty(n)

    for task_id in range(n):
        free_at = heapq.heappop(slot_free)
        start = free_at + dispatch
        if task_id < slots:
            start += wave_latency  # first wave pays the initial offer delay
        finish = start + times[task_id]
        events.append(TaskEvent(task_id=task_id, start=start, finish=finish))
        finish_times[task_id] = finish
        heapq.heappush(slot_free, finish)

    speculative = 0
    if conf.speculation and n >= 2:
        quantile = min(max(conf.speculation_quantile, 0.0), 0.999)
        sorted_finish = np.sort(finish_times)
        launch_clock = float(sorted_finish[int(quantile * (n - 1))])
        median_time = float(np.median(times))
        threshold = median_time * conf.speculation_multiplier
        for event in list(events):
            duration = event.finish - event.start
            if event.finish > launch_clock and duration > threshold:
                # The copy launches once both the quantile is reached and
                # the original's elapsed time crosses the threshold; it
                # runs a fresh median-ish duration.
                copy_start = max(launch_clock, event.start + threshold)
                copy_duration = median_time * float(
                    np.clip(1.0 + 0.1 * rng.standard_normal(), 0.5, 2.0)
                )
                copy_finish = copy_start + copy_duration
                if copy_finish < event.finish:
                    events.remove(event)
                    events.append(
                        TaskEvent(
                            task_id=event.task_id,
                            start=event.start,
                            finish=copy_finish,
                            speculative=True,
                        )
                    )
                    finish_times[event.task_id] = copy_finish
                    speculative += 1

    makespan = float(max(e.finish for e in events))
    return StageTimeline(
        makespan=makespan, events=tuple(events), speculative_copies=speculative
    )


def expected_makespan(
    profile: TaskProfile,
    conf: SparkConf,
    rng: np.random.Generator,
    replications: int = 25,
) -> float:
    """Monte-Carlo estimate of the true expected makespan: the mean of
    ``replications`` independent :func:`simulate_stage` runs."""
    if replications < 1:
        raise ValueError("need at least one replication")
    total = 0.0
    for _ in range(replications):
        total += simulate_stage(profile, conf, rng).makespan
    return total / replications
