"""The run store: durable, versioned home of every expensive artifact.

DAC's pipeline costs hours of (simulated) cluster time before the GA
ever runs; the store makes each expensive intermediate — training sets,
fitted :class:`~repro.models.hierarchical.HierarchicalModel`\\ s, GA
populations, :class:`~repro.core.tuner.TuningReport`\\ s — a durable,
content-addressed object that survives crashes and is shared across
sessions and jobs.

On disk::

    <root>/
      meta.json            store identity + schema version
      index.jsonl          append-only key -> digest index (latest wins)
      objects/ab/<sha256>  content-addressed artifact blobs
      jobs/<job_id>.json   job records (atomic rewrite per update)
      events/<id>.jsonl    per-job telemetry event logs (append across
                           sessions, readable by ``repro trace``)
      cache/               the engine's on-disk result cache
      leases/              per-job worker leases + fencing-token ledger
                           (:mod:`repro.service.lease`)

Crash safety is layered: blobs are self-verifying artifact containers
written via tmp-file + atomic rename (:mod:`repro.store.artifacts`);
the index is append-only JSONL whose torn tail lines are skipped on
read; job records are whole-file atomic replaces.  A reader therefore
always sees either a complete prior version of anything or nothing —
never a torn object.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.store.artifacts import (
    ArtifactError,
    payload_digest,
    read_artifact,
    write_artifact,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.collecting import TrainingSet
    from repro.core.ga import GaState
    from repro.core.tuner import TuningReport
    from repro.models.hierarchical import HierarchicalModel

#: Store-level layout version (bumped only on incompatible layout change).
STORE_SCHEMA = 1

#: Payload schema per artifact kind; bumping one invalidates only that
#: kind's stored entries (they read back as absent and are rewritten).
KIND_SCHEMAS = {
    "training_set": 1,
    "model": 1,
    "ga_state": 1,
    "report": 1,
    "json": 1,
    "bytes": 1,
}


class StoreError(Exception):
    """The store directory is unusable (wrong schema, not a store)."""


class RunStore:
    """A crash-safe experiment store rooted at one directory."""

    def __init__(
        self,
        root: Union[str, Path],
        create: bool = True,
        fsync: bool = False,
    ):
        self.root = Path(root)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._index: Optional[Dict[str, Dict[str, object]]] = None

        meta_path = self.root / "meta.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise StoreError(f"{self.root}: unreadable meta.json") from exc
            if meta.get("store_schema") != STORE_SCHEMA:
                raise StoreError(
                    f"{self.root}: store schema {meta.get('store_schema')!r} "
                    f"!= {STORE_SCHEMA}"
                )
        elif create:
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_atomic(
                meta_path,
                json.dumps(
                    {"store_schema": STORE_SCHEMA, "created": time.time()},
                    sort_keys=True,
                ).encode("utf-8"),
            )
        else:
            raise StoreError(f"{self.root}: not a run store")
        for sub in ("objects", "jobs", "events", "cache", "leases", "health"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    @property
    def cache_dir(self) -> Path:
        """Directory for the engine's :class:`CachedBackend` disk cache."""
        return self.root / "cache"

    @property
    def lease_dir(self) -> Path:
        """Directory for per-job worker leases (:mod:`repro.service.lease`)."""
        return self.root / "leases"

    @property
    def health_dir(self) -> Path:
        """Directory for per-worker heartbeat files (:mod:`repro.service.health`)."""
        return self.root / "health"

    def event_log_path(self, job_id: str) -> Path:
        """The per-job JSONL telemetry event log (append across sessions)."""
        return self.root / "events" / f"{job_id}.jsonl"

    def _object_path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest

    def _index_path(self) -> Path:
        return self.root / "index.jsonl"

    # -- low-level atomic file write ------------------------------------
    def _write_atomic(self, path: Path, payload: bytes) -> None:
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        )
        try:
            with tmp.open("wb") as handle:
                handle.write(payload)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    # -- the index ------------------------------------------------------
    def _load_index(self) -> Dict[str, Dict[str, object]]:
        if self._index is None:
            index: Dict[str, Dict[str, object]] = {}
            path = self._index_path()
            if path.exists():
                with path.open("r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            entry = json.loads(line)
                        except json.JSONDecodeError:
                            continue  # torn tail line: skip
                        if isinstance(entry, dict) and "key" in entry:
                            index[str(entry["key"])] = entry
            self._index = index
        return self._index

    def refresh(self) -> None:
        """Drop cached index/job state so the next read hits disk.

        Call after another process may have written to the store (the
        resume path does).
        """
        with self._lock:
            self._index = None

    def entry(self, key: str) -> Optional[Dict[str, object]]:
        """The latest index entry for ``key`` (no blob verification)."""
        with self._lock:
            return self._load_index().get(key)

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._load_index())

    # -- artifact put/get -----------------------------------------------
    def put_bytes(
        self, key: str, payload: bytes, kind: str = "bytes", codec: str = "raw"
    ) -> str:
        """Store ``payload`` under ``key``; returns its content digest.

        The blob lands first (atomic rename), the index line second —
        a crash between the two leaves an unreferenced blob, never a
        dangling reference.
        """
        schema = KIND_SCHEMAS[kind]
        digest = payload_digest(payload)
        blob_path = self._object_path(digest)
        if not blob_path.exists():
            blob_path.parent.mkdir(parents=True, exist_ok=True)
            write_artifact(
                blob_path, payload, kind=kind, schema=schema, codec=codec,
                fsync=self.fsync,
            )
        entry = {
            "key": key,
            "kind": kind,
            "schema": schema,
            "codec": codec,
            "digest": digest,
            "ts": time.time(),
        }
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock:
            with self._index_path().open("a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            self._load_index()[key] = entry
        return digest

    def get_bytes(self, key: str, kind: str = "bytes") -> Optional[bytes]:
        """The latest intact payload for ``key``, or ``None``.

        ``None`` covers every defect uniformly: unknown key, kind or
        schema mismatch (stale format), missing blob, torn or corrupt
        blob — a partially-written artifact is treated as absent.
        """
        entry = self.entry(key)
        if entry is None or entry.get("kind") != kind:
            return None
        if entry.get("schema") != KIND_SCHEMAS[kind]:
            return None
        try:
            header, payload = read_artifact(self._object_path(str(entry["digest"])))
        except ArtifactError:
            return None
        if header.get("kind") != kind or header.get("schema") != KIND_SCHEMAS[kind]:
            return None
        return payload

    # -- typed codecs ---------------------------------------------------
    def put_object(self, key: str, obj: object, kind: str) -> str:
        return self.put_bytes(
            key,
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
            kind=kind,
            codec="pickle",
        )

    def get_object(self, key: str, kind: str) -> Optional[object]:
        payload = self.get_bytes(key, kind=kind)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:  # corrupt-but-digest-valid should be impossible;
            return None    # treat defensively as absent all the same

    def put_json(self, key: str, obj: object) -> str:
        return self.put_bytes(
            key,
            json.dumps(obj, sort_keys=True).encode("utf-8"),
            kind="json",
            codec="json",
        )

    def get_json(self, key: str) -> Optional[object]:
        payload = self.get_bytes(key, kind="json")
        if payload is None:
            return None
        try:
            return json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None

    # -- codec-dispatched typed artifacts -------------------------------
    def _decode_with_codec(
        self, key: str, kind: str, mode: str, **ctx
    ) -> Optional[object]:
        """Read a typed artifact through the codec its entry names.

        ``mode="copy"`` reads + fully digest-verifies the payload, then
        decodes; ``mode="mmap"`` (for codecs that support ``open``)
        validates only the artifact header and hands the codec the file
        path + payload offset, so the object comes back as read-only
        memmap views sharing the page cache across processes.  Any
        defect — unknown codec (written by newer code), mismatched
        header, corrupt section, undecodable payload — reads as
        ``None``, the store's uniform "absent" answer.
        """
        from repro.io import codecs
        from repro.store.blobfmt import BlobError

        entry = self.entry(key)
        if entry is None or entry.get("kind") != kind:
            return None
        if entry.get("schema") != KIND_SCHEMAS[kind]:
            return None
        codec = codecs.lookup(kind, str(entry.get("codec")))
        if codec is None:
            return None
        path = self._object_path(str(entry["digest"]))
        if mode == "mmap" and codec.open is not None:
            from repro.store.artifacts import read_artifact_header

            try:
                header, offset = read_artifact_header(path)
            except ArtifactError:
                return None
            if (
                header.get("kind") != kind
                or header.get("schema") != KIND_SCHEMAS[kind]
            ):
                return None
            try:
                return codec.open(path, offset, **ctx)
            except (BlobError, codecs.CodecError, OSError, ValueError, KeyError):
                return None
        try:
            header, payload = read_artifact(path)
        except ArtifactError:
            return None
        if header.get("kind") != kind or header.get("schema") != KIND_SCHEMAS[kind]:
            return None
        try:
            return codec.decode(payload, **ctx)
        except Exception:  # undecodable-but-digest-valid: treat as absent
            return None

    def put_training_set(self, key: str, training_set: "TrainingSet") -> str:
        """Store a training set in the columnar blob format."""
        from repro.io import codecs

        codec = codecs.default_for("training_set")
        payload = codec.encode(training_set)
        return self.put_bytes(key, payload, kind="training_set", codec=codec.name)

    def get_training_set(
        self, key: str, space=None, mode: str = "copy"
    ) -> Optional["TrainingSet"]:
        """The stored training set, or ``None``.

        ``mode="mmap"`` returns a column-backed set whose arrays are
        read-only views over the artifact file (blob-codec entries
        only; legacy CSV entries always copy).
        """
        return self._decode_with_codec(
            key, "training_set", mode, space=space, source=key
        )  # type: ignore[return-value]

    def put_model(self, key: str, model: "HierarchicalModel") -> str:
        """Store a model, lowering it to blob sections when possible.

        Models that don't lower (custom ``component_factory``
        estimators) fall back to the pickle codec — both read back
        through :meth:`get_model` transparently.
        """
        from repro.io import codecs

        codec = codecs.default_for("model")
        try:
            payload = codec.encode(model)
        except codecs.CodecError:
            return self.put_object(key, model, kind="model")
        return self.put_bytes(key, payload, kind="model", codec=codec.name)

    def get_model(
        self, key: str, mode: str = "copy"
    ) -> Optional["HierarchicalModel"]:
        """The stored model, or ``None``.

        ``mode="mmap"`` maps the node tables and bin edges read-only
        from the artifact file — loading touches no array data, and N
        processes share one page-cache copy.  Predictions are
        bit-for-bit identical on every path.
        """
        return self._decode_with_codec(key, "model", mode)  # type: ignore[return-value]

    def put_ga_state(self, key: str, state: "GaState") -> str:
        return self.put_object(key, state, kind="ga_state")

    def get_ga_state(self, key: str) -> Optional["GaState"]:
        return self.get_object(key, kind="ga_state")  # type: ignore[return-value]

    def put_report(self, key: str, report: "TuningReport") -> str:
        return self.put_object(key, report, kind="report")

    def get_report(self, key: str) -> Optional["TuningReport"]:
        return self.get_object(key, kind="report")  # type: ignore[return-value]

    # -- job records ----------------------------------------------------
    def save_job(self, job_id: str, record: Dict[str, object]) -> None:
        """Persist a job record (atomic whole-file replace)."""
        payload = json.dumps(record, sort_keys=True, default=str).encode("utf-8")
        self._write_atomic(self.root / "jobs" / f"{job_id}.json", payload)

    def load_job(self, job_id: str) -> Optional[Dict[str, object]]:
        path = self.root / "jobs" / f"{job_id}.json"
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def list_jobs(self) -> List[Dict[str, object]]:
        """Every readable job record, oldest first."""
        records = []
        for path in sorted((self.root / "jobs").glob("*.json")):
            record = self.load_job(path.stem)
            if record is not None:
                records.append(record)
        records.sort(key=lambda r: (r.get("created", 0), str(r.get("job_id", ""))))
        return records

    # -- garbage collection ---------------------------------------------
    def gc(
        self,
        apply: bool = False,
        min_age_seconds: float = 3600.0,
        _now: Optional[float] = None,
    ) -> Dict[str, object]:
        """Sweep object blobs no index entry references any more, and
        the engine cache's unindexed packs.

        The index is append-only and latest-wins, so superseded
        versions of a key (re-collected training sets, per-order model
        checkpoints overwritten in place, every GA-generation state but
        the last) accumulate as unreferenced blobs.  Job records point
        at artifacts only *through* index keys, so the latest index
        digests are exactly the live set.

        Dry-run by default: returns a report of what would go without
        touching anything; ``apply=True`` deletes.  Blobs younger than
        ``min_age_seconds`` are kept regardless — a concurrent writer
        puts the blob *before* the index line, and the age floor keeps
        the sweep from racing that window.  Stale ``.*.tmp`` litter
        from crashed writers is swept by the same rule.  In
        :attr:`cache_dir`, packs no ``index.jsonl`` line names and stale
        temp files go under the same floor
        (:func:`~repro.engine.cache.sweep_cache_dir`).
        """
        from repro.engine.cache import sweep_cache_dir

        now = time.time() if _now is None else _now
        with self._lock:
            self._index = None
            live = {
                str(entry.get("digest")) for entry in self._load_index().values()
            }
        report: Dict[str, object] = {
            "live": 0,
            "swept": [],
            "skipped_young": 0,
            "tmp_swept": 0,
            "reclaimed_bytes": 0,
            "applied": bool(apply),
        }
        for path in sorted((self.root / "objects").glob("*/*")):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with another sweeper
            young = now - stat.st_mtime < min_age_seconds
            if path.name.startswith("."):
                if young:
                    report["skipped_young"] += 1
                    continue
                report["tmp_swept"] += 1
                report["reclaimed_bytes"] += stat.st_size
                if apply:
                    path.unlink(missing_ok=True)
                continue
            if path.name in live:
                report["live"] += 1
                continue
            if young:
                report["skipped_young"] += 1
                continue
            report["swept"].append({"digest": path.name, "bytes": stat.st_size})
            report["reclaimed_bytes"] += stat.st_size
            if apply:
                path.unlink(missing_ok=True)
        cache = sweep_cache_dir(self.cache_dir, apply, min_age_seconds, now)
        report["cache_packs_swept"] = cache["packs_swept"]
        report["cache_tmp_swept"] = cache["tmp_swept"]
        report["skipped_young"] += cache["skipped_young"]
        report["reclaimed_bytes"] += cache["bytes"]
        return report


def report_fingerprint(report: "TuningReport") -> str:
    """Digest of a report's *semantic* content.

    Covers everything the tuner decided — program, target size, chosen
    configuration, predicted time, full GA convergence history, model
    holdout error, simulated collection cost — and excludes wall-clock
    timings and engine accounting, which legitimately differ between an
    uninterrupted run and a checkpoint-resumed one.  Two runs with equal
    fingerprints made identical decisions.
    """
    config = report.configuration
    doc = {
        "program": report.program,
        "datasize": repr(report.datasize),
        "configuration": {name: repr(config[name]) for name in config},
        "predicted_seconds": repr(report.predicted_seconds),
        "ga_history": [repr(v) for v in report.ga.history],
        "ga_generations": report.ga.generations,
        "model_holdout_error": repr(report.model_holdout_error),
        "collecting_simulated_hours": repr(report.collecting_simulated_hours),
    }
    return payload_digest(json.dumps(doc, sort_keys=True).encode("utf-8"))
