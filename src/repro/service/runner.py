"""The job runner: one job, executed through checkpointable phases.

:class:`JobRunner` drives a :class:`~repro.service.jobs.JobRecord`
through the DAC pipeline against a :class:`~repro.store.RunStore`,
persisting a durable checkpoint after every unit of work:

* **collect** — the batch plan is a pure function of (workload, seed,
  stream), so after each per-size batch the rows gathered so far are
  stored as one column-backed training set and ``batches_done``
  advances; a restart replans, reloads the stored columns and skips the
  finished prefix.
* **fit** — the partial :class:`HierarchicalModel` is stored after each
  order; a restart continues from the next order
  (:meth:`HierarchicalModel.resume_fit`).
* **search** — the live :class:`~repro.core.ga.GaState` (population,
  scores, history, *and the RNG mid-stream*) is pickled every
  generation; a restart continues the exact random sequence.

Because every stochastic draw in the pipeline is derived from stable
keys, a resumed job's :class:`~repro.core.tuner.TuningReport` carries
the same :func:`~repro.store.report_fingerprint` as an uninterrupted
run — crash recovery changes the cost of a run, never its answer.

Each session appends to the job's JSONL event log in the store, so
``repro trace`` (and ``--follow``) works across interruptions, and
records its substrate-execution count in ``runs_by_session`` — the
direct evidence that resuming cost strictly less than starting over.
"""

from __future__ import annotations

import itertools
import time
import traceback
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.collecting import Collector, TrainingSet
from repro.core.tuner import DacTuner, TuningReport
from repro.engine import (
    CachedBackend,
    ExecutionBackend,
    ExecutionError,
    InProcessBackend,
)
from repro.service.budget import BudgetedBackend, BudgetExceeded
from repro.service.health import job_progress
from repro.service.jobs import CANCELLED, DONE, FAILED, RUNNING, JobRecord, TuneRequest
from repro.service.lease import Lease, LeaseLost
from repro.store import RunStore, report_fingerprint
from repro.telemetry import events as tele
from repro.telemetry.events import Telemetry
from repro.telemetry.sinks import JsonlSink
from repro.workloads import get_workload


class DrainRequested(Exception):
    """A graceful stop was requested and the current checkpoint is durable.

    Raised from inside :meth:`JobRunner._checkpoint` — i.e. strictly
    *after* the phase artifact and job record landed on disk — so the
    abandoned job is RUNNING with a complete checkpoint and no lease:
    exactly the shape :meth:`JobService.claimable` hands to the next
    worker.
    """

    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"job {job_id}: drained at checkpoint boundary")


class JobRunner:
    """Executes one job at a time against a store, checkpointing as it goes.

    Parameters
    ----------
    store:
        The :class:`RunStore` holding job records, artifacts, event logs
        and the shared substrate-result cache.
    engine_factory:
        Builds the substrate backend for each job session (default: a
        fresh :class:`InProcessBackend`).  The runner wraps it with the
        store's :class:`CachedBackend` (unless ``use_cache=False``) and,
        when the request carries a budget, a :class:`BudgetedBackend`.
    use_cache:
        Share substrate results across jobs/sessions through the
        store's ``cache/`` directory.  Crash-recovery tests disable it
        to prove resumption comes from checkpoints, not cached runs.
    checkpoint_every:
        Persist the GA state every N generations (1 = every
        generation).  Collect and fit checkpoint at their natural
        granularity regardless.
    """

    def __init__(
        self,
        store: RunStore,
        engine_factory: Optional[Callable[[], ExecutionBackend]] = None,
        use_cache: bool = True,
        checkpoint_every: int = 1,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        self.store = store
        self.engine_factory = engine_factory or InProcessBackend
        self.use_cache = use_cache
        self.checkpoint_every = checkpoint_every
        #: Graceful-drain hook: when set and it returns true, the runner
        #: stops at the next checkpoint boundary (after the persist),
        #: releases the lease and leaves the job RUNNING + resumable.
        self.should_stop: Optional[Callable[[], bool]] = None
        #: Liveness hook: a :class:`~repro.service.health.HeartbeatWriter`
        #: (or anything with ``maybe_beat()``) refreshed at every
        #: checkpoint, on top of its own background thread — so a
        #: heartbeat is guaranteed fresh whenever durable progress lands.
        self.heartbeat = None
        #: Per-job leases for runs in flight (keyed by job id so one
        #: runner can drive several jobs from pool threads).
        self._leases: Dict[str, Lease] = {}

    # ------------------------------------------------------------------
    def run(self, record: JobRecord, lease: Optional[Lease] = None) -> JobRecord:
        """Run ``record`` to completion (or failure), checkpointing.

        Safe to call on a fresh job or on one found mid-flight after a
        crash: every phase first reads its own durable progress.  With
        a ``lease``, every checkpoint renews it and verifies the
        fencing token; losing the lease (taken over while this worker
        was stalled) abandons the job without committing anything
        further — the usurper owns it now.
        """
        if lease is not None:
            self._leases[record.job_id] = lease
        try:
            return self._run(record)
        except LeaseLost as exc:
            # Everything after the loss was rejected before reaching
            # the store; the record on disk belongs to the new holder.
            record.error = str(exc)
            return record
        finally:
            held = self._leases.pop(record.job_id, None)
            if held is not None:
                try:
                    held.release()
                except OSError:  # pragma: no cover - lease dir vanished
                    pass

    def _run(self, record: JobRecord) -> JobRecord:
        record.state = RUNNING
        record.sessions += 1
        session = str(record.sessions)
        record.runs_by_session.setdefault(session, 0)
        self._save(record, engine=None, session=session)

        engine = self._build_engine(record)
        try:
            with engine, self._job_telemetry(record.job_id):
                with tele.span(
                    "job",
                    job_id=record.job_id,
                    kind=record.request.kind,
                    session=record.sessions,
                ):
                    self._execute(record, engine, session)
                    if record.state == DONE:
                        tele.event(
                            "job.completed",
                            job_id=record.job_id,
                            worker=record.worker,
                            fencing_token=record.fencing_token,
                            sessions=record.sessions,
                        )
        except DrainRequested:
            # The checkpoint that observed the stop request is already
            # durable; the record stays RUNNING with no error so any
            # worker (including a restarted this-one) can claim it.
            pass
        except BudgetExceeded as exc:
            record.state = FAILED
            record.error = str(exc)
        except ExecutionError as exc:
            record.state = FAILED
            record.error = f"substrate failure: {exc}"
        except LeaseLost:
            raise  # not a job failure: the job moved to another worker
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            record.state = FAILED
            record.error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
        finally:
            self._save(record, engine, session)
        return record

    # ------------------------------------------------------------------
    def _execute(self, record: JobRecord, engine: ExecutionBackend, session: str) -> None:
        request = record.request
        training = self._phase_collect(record, engine, session)
        if request.kind == "collect":
            record.state = DONE
            record.result = {
                "examples": len(training),
                "training_key": record.artifact_key("training"),
                "simulated_hours": self._hours(training),
            }
            return

        workload = get_workload(request.program)
        tuner = DacTuner(
            workload,
            n_train=request.n_train,
            n_trees=request.n_trees,
            learning_rate=request.learning_rate,
            seed=request.seed,
            engine=engine,
        )
        tuner.restore(training, collect_hours=self._hours(training))

        record.phase = "fit"
        self._phase_fit(record, tuner, engine, session)
        record.phase = "search"
        report = self._phase_search(record, tuner, engine, session)
        record.phase = "report"

        self._checkpoint(
            record,
            engine,
            session,
            lambda: self.store.put_report(record.artifact_key("report"), report),
        )
        record.state = DONE
        record.result = {
            "predicted_seconds": float(report.predicted_seconds),
            "fingerprint": report_fingerprint(report),
            "model_holdout_error": float(report.model_holdout_error),
            "ga_generations": report.ga.generations,
            "report_key": record.artifact_key("report"),
        }

    # -- phase: collect -------------------------------------------------
    def _phase_collect(
        self, record: JobRecord, engine: ExecutionBackend, session: str
    ) -> TrainingSet:
        store = self.store
        request = record.request
        progress = record.progress.setdefault("collect", {})
        key = record.artifact_key("training")

        if progress.get("done"):
            # Completed checkpoint: map it read-only — workers on one
            # host share a single page-cache copy of the matrix.
            training = store.get_training_set(key, mode="mmap")
            if training is not None and len(training) == request.n_train:
                return training
            progress.clear()  # artifact lost/torn: re-collect

        if request.warm_from and not progress.get("batches_done"):
            training = self._warm_training(request)
            if training is not None:
                store.put_training_set(key, training)
                progress.update(
                    {"done": True, "warm_from": request.warm_from}
                )
                self._save(record, engine, session)
                tele.event(
                    "job.warm_start",
                    job_id=record.job_id,
                    source=request.warm_from,
                    artifact="training_set",
                )
                return training

        workload = get_workload(request.program)
        collector = Collector(workload, seed=request.seed, engine=engine)
        batches = collector.plan(request.n_train, stream="train")
        progress["total_batches"] = len(batches)

        # The sink run_batch streams rows into: one (k, 3 + n_params)
        # chunk per batch, folded into one matrix at each checkpoint.
        rows: List[np.ndarray] = []
        batches_done = int(progress.get("batches_done", 0))
        # The artifact is written before the record's ``batches_done``,
        # so a crash between the two leaves it one batch ahead: resume
        # after whichever planned prefix (of at least ``batches_done``
        # batches) it holds.
        partial = store.get_training_set(key)
        ends = list(itertools.accumulate(len(b.requests) for b in batches))
        held = -1 if partial is None else len(partial)
        if held in ends[max(batches_done - 1, 0) :]:
            batches_done = ends.index(held) + 1
            progress["batches_done"] = batches_done
            rows.append(partial.to_matrix())
        elif batches_done:  # checkpoint missing or from different parameters
            batches_done = 0
            progress["batches_done"] = 0
        collected = sum(len(chunk) for chunk in rows)

        with tele.span(
            "collect",
            program=workload.abbr,
            examples=request.n_train,
            stream="train",
            resumed=batches_done > 0,
        ):
            for batch in batches[batches_done:]:
                collected += len(
                    collector.run_batch(
                        batch, done=collected, total=request.n_train, sink=rows
                    )
                )
                rows[:] = [np.vstack(rows)]
                partial_set = TrainingSet.from_matrix(collector.space, rows[0])

                def persist(ts=partial_set, done=batch.index + 1):
                    store.put_training_set(key, ts)
                    progress["batches_done"] = done

                self._checkpoint(record, engine, session, persist)

        progress["done"] = True
        self._save(record, engine, session)
        return TrainingSet.from_matrix(collector.space, np.vstack(rows))

    def _warm_training(self, request: TuneRequest) -> Optional[TrainingSet]:
        """A prior job's complete training set, when it fits this request."""
        prior = self._load_record(request.warm_from)
        if prior is None or not prior.progress.get("collect", {}).get("done"):
            return None
        if (
            prior.request.program != request.program
            or prior.request.seed != request.seed
            or prior.request.n_train != request.n_train
        ):
            return None
        return self.store.get_training_set(
            prior.artifact_key("training"), mode="mmap"
        )

    # -- phase: fit -----------------------------------------------------
    def _phase_fit(
        self,
        record: JobRecord,
        tuner: DacTuner,
        engine: ExecutionBackend,
        session: str,
    ) -> None:
        store = self.store
        request = record.request
        progress = record.progress.setdefault("fit", {})
        key = record.artifact_key("model")

        if progress.get("done"):
            # Completed checkpoint: the node tables come back as
            # read-only memmap views — zero deserialization.
            model = store.get_model(key, mode="mmap")
            if model is not None:
                tuner.model = model
                return
            progress.clear()  # artifact lost/torn: refit

        if request.warm_from and not progress.get("orders_done"):
            model = self._warm_model(request)
            if model is not None:
                store.put_model(key, model)
                progress.update({"done": True, "warm_from": request.warm_from})
                self._save(record, engine, session)
                tele.event(
                    "job.warm_start",
                    job_id=record.job_id,
                    source=request.warm_from,
                    artifact="model",
                )
                tuner.model = model
                return

        partial = store.get_model(key) if progress.get("orders_done") else None

        def checkpoint(model):
            def persist():
                store.put_model(key, model)
                progress["orders_done"] = model.order_

            self._checkpoint(record, engine, session, persist)

        tuner.fit(checkpoint=checkpoint, resume_model=partial)
        progress["done"] = True

        def persist_final():
            store.put_model(key, tuner.model)

        self._checkpoint(record, engine, session, persist_final)

    def _warm_model(self, request: TuneRequest) -> Optional[object]:
        """A prior job's finished model, when the model parameters match."""
        prior = self._load_record(request.warm_from)
        if prior is None or not prior.progress.get("fit", {}).get("done"):
            return None
        if not request.model_params_match(prior.request):
            return None
        return self.store.get_model(prior.artifact_key("model"), mode="mmap")

    # -- phase: search --------------------------------------------------
    def _phase_search(
        self,
        record: JobRecord,
        tuner: DacTuner,
        engine: ExecutionBackend,
        session: str,
    ) -> TuningReport:
        store = self.store
        request = record.request
        progress = record.progress.setdefault("search", {})
        key = record.artifact_key("ga")

        state = None
        if progress.get("generation") is not None:
            state = store.get_ga_state(key)

        def on_generation(live_state):
            generation = live_state.generation
            if generation % self.checkpoint_every and generation:
                return

            def persist():
                store.put_ga_state(key, live_state)
                progress["generation"] = generation

            self._checkpoint(record, engine, session, persist)

        report = tuner.tune(
            request.size,
            generations=request.generations,
            population_size=request.population_size,
            patience=request.patience,
            ga_state=state,
            on_generation=on_generation,
        )
        progress["done"] = True
        progress["generation"] = report.ga.generations
        return report

    # -- engine / telemetry / persistence helpers -----------------------
    def _build_engine(self, record: JobRecord) -> ExecutionBackend:
        engine = self.engine_factory()
        if self.use_cache:
            engine = CachedBackend(engine, directory=self.store.cache_dir)
        if record.request.budget is not None:
            engine = BudgetedBackend(engine, record.request.budget)
        return engine

    @contextmanager
    def _job_telemetry(self, job_id: str):
        """Route this job's events into its per-store JSONL log.

        If a global telemetry pipeline is active (the CLI's
        ``--telemetry``), the job log taps it as an extra sink; else a
        dedicated pipeline is installed for the duration.  Either way
        the log is appended and flushed per record, so every session of
        a resumed job lands in one file that ``repro trace --follow``
        can tail live.
        """
        sink = JsonlSink(
            self.store.event_log_path(job_id), append=True, live=True
        )
        active = tele.get_telemetry()
        if active is not None:
            active.add_sink(sink)
            try:
                yield
            finally:
                active.remove_sink(sink)
                sink.close()
        else:
            session = Telemetry([sink])
            previous = tele.install(session)
            try:
                yield
            finally:
                tele.install(previous)
                session.close()

    def _load_record(self, job_id: Optional[str]) -> Optional[JobRecord]:
        if not job_id:
            return None
        data = self.store.load_job(job_id)
        if data is None:
            return None
        try:
            return JobRecord.from_dict(data)
        except (TypeError, ValueError):
            return None

    def _checkpoint(
        self,
        record: JobRecord,
        engine: Optional[ExecutionBackend],
        session: str,
        persist: Callable[[], None],
    ) -> None:
        """Run one artifact write + record save, timing the overhead.

        The accumulated ``checkpoint_wall_seconds`` is what
        ``benchmarks/bench_store.py`` reads to bound store overhead.
        """
        start = time.perf_counter()
        persist()
        self._save(record, engine, session, wall_start=start)
        progress = job_progress(record)
        tele.event(
            "job.progress",
            job_id=record.job_id,
            phase=progress["phase"],
            done=progress["done"],
            total=progress["total"],
            fraction=progress["fraction"],
            session=session,
        )
        if self.should_stop is not None and self.should_stop():
            tele.event(
                "job.drained",
                job_id=record.job_id,
                phase=record.phase,
                session=session,
            )
            raise DrainRequested(record.job_id)

    def _save(
        self,
        record: JobRecord,
        engine: Optional[ExecutionBackend],
        session: str,
        wall_start: Optional[float] = None,
    ) -> None:
        start = time.perf_counter() if wall_start is None else wall_start
        if engine is not None:
            stats = engine.stats
            record.runs_by_session[session] = int(stats.runs - stats.cache_hits)
        lease = self._leases.get(record.job_id)
        if lease is not None:
            lease.renew()  # LeaseLost when the job was taken over
            self._guard_fencing(record, lease)
            record.fencing_token = lease.token
            record.worker = lease.worker
        if self.heartbeat is not None:
            self.heartbeat.maybe_beat()
        record.touch()
        self.store.save_job(record.job_id, record.to_dict())
        record.checkpoint_wall_seconds += time.perf_counter() - start

    def _guard_fencing(self, record: JobRecord, lease: Lease) -> None:
        """Refuse to commit over a higher token's (or a cancelled) record.

        The lease renewal above already rejects most stale writers; this
        closes the remaining window where a stealer replaced the lease
        *after* our renewal read, by checking the durable record itself
        — the newest committed fencing token always wins.
        """
        data = self.store.load_job(record.job_id)
        if data is None:
            return
        committed = int(data.get("fencing_token") or 0)
        if committed > lease.token:
            raise LeaseLost(
                f"job {record.job_id}: committed fencing token {committed} "
                f"outranks ours ({lease.token}); dropping stale write"
            )
        if data.get("state") == CANCELLED:
            raise LeaseLost(
                f"job {record.job_id}: cancelled by another process"
            )

    @staticmethod
    def _hours(training: TrainingSet) -> float:
        # Left-to-right over times(): the same float adds for eager,
        # column-backed and mmap-loaded sets (the value feeds the
        # report fingerprint).
        return float(sum(float(s) for s in training.times()) / 3600.0)
