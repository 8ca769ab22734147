"""Result caching: stop re-simulating identical triples.

:class:`CachedBackend` decorates any :class:`ExecutionBackend` with an
in-memory and (optionally) on-disk store keyed by the canonical hash of
the request triple *and* the inner backend's substrate signature — the
same cluster running the same program on the same datasize under the
same configuration always reproduces the same measurement, so the
first execution can answer every later identical request, across
sessions, experiments and benchmarks.

Keys hash the configuration's canonical *values* (not its [0,1]
encoding, which clips out-of-range defaults) plus the job's full stage
list, so distinct programs or distinct job compilations never alias.
Failures are never cached: a :class:`FailedRun` is returned to the
caller but the next identical request goes back to the substrate.

On disk, the misses of one :meth:`CachedBackend.submit` call land in
one *pack*, and one line of an append-only index names its keys::

    <directory>/
      index.jsonl     one line per pack: {"pack": "<name>", "keys": [...]}
      <hex>.pack      blobfmt container (kind "cache_pack"): the batch's
                      RunResults as columns, no pickle
      <key>.pkl       legacy per-key entry (read, never written)

The pack lands first (temp file + atomic rename), its index line second,
so a crash between the two leaves an unreferenced pack that no reader
sees.  Index lines are appended with one ``O_APPEND`` write and start
with a newline, so a torn line (a writer killed mid-append) is always
terminated by the next writer's line and skipped as unparsable.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import uuid
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.backends import ExecutionBackend
from repro.engine.request import ExecOutcome, ExecRequest, ExecResult
from repro.engine.stats import EngineStats
from repro.sparksim.simulator import RunResult, StageResult
from repro.store import blobfmt
from repro.telemetry.metrics import get_registry

#: First bytes of legacy on-disk cache entries (plain tagged pickle).
#: Still readable, like the blob-wrapped per-key entries that followed
#: them; new results are written to packs instead.  A per-key file
#: that is neither format reads as a miss and is evicted.
CACHE_FORMAT = b"repro-cache/1\n"

#: ``kind`` tag of legacy blob-container per-key entries.
_CACHE_BLOB_KIND = "cache_entry"

#: ``kind`` tag and layout version of a pack.
_PACK_KIND = "cache_pack"
_PACK_VERSION = 1

#: The append-only key -> pack index inside a cache directory.
INDEX_NAME = "index.jsonl"

#: StageResult columns by stored type; ``name`` goes to a string table.
_STAGE_FIELDS = tuple(f.name for f in fields(StageResult))
_STAGE_INTS = ("num_tasks", "iterations")
_STAGE_FLOATS = tuple(
    name for name in _STAGE_FIELDS if name != "name" and name not in _STAGE_INTS
)


def _index_entries(blob: bytes):
    """``(pack, keys)`` of each well-formed index line; torn lines and
    pack names that are not plain file names are skipped."""
    for line in blob.split(b"\n"):
        if not line:
            continue
        try:
            entry = json.loads(line)
            pack, keys = entry["pack"], entry["keys"]
        except (ValueError, TypeError, KeyError):
            continue  # torn line
        if isinstance(pack, str) and os.path.basename(pack) == pack:
            yield pack, keys


def sweep_cache_dir(
    directory: Union[str, Path], apply: bool, min_age_seconds: float, now: float
) -> Dict[str, int]:
    """Find (and with ``apply``, delete) a cache directory's dead files.

    Dead are packs no index line names — orphaned by a crash between
    rename and index append — and ``.*.tmp`` files of crashed writers.
    Files younger than ``min_age_seconds`` are kept: a live writer's
    pack exists before its index line does.  Legacy ``*.pkl`` entries
    are still served and are left alone.
    """
    directory = Path(directory)
    report = {"packs_swept": 0, "tmp_swept": 0, "skipped_young": 0, "bytes": 0}
    try:
        index = (directory / INDEX_NAME).read_bytes()
        named = {pack for pack, _ in _index_entries(index)}
    except OSError:  # no index: no pack is named
        named = set()
    for path in sorted(directory.glob("*.pack")) + sorted(directory.glob(".*.tmp")):
        if path.name in named:
            continue
        try:
            stat = path.stat()
        except OSError:
            continue  # raced with another sweeper
        if now - stat.st_mtime < min_age_seconds:
            report["skipped_young"] += 1
            continue
        report["tmp_swept" if path.name.startswith(".") else "packs_swept"] += 1
        report["bytes"] += stat.st_size
        if apply:
            path.unlink(missing_ok=True)
    return report


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def _job_digest(job, substrate_signature: str):
    """BLAKE2b state after the key's job part (everything but the config)."""
    digest = hashlib.blake2b(digest_size=16)
    for part in (
        substrate_signature,
        job.program,
        repr(job.datasize_bytes),
        repr(job.stages),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest


def _finish_key(job_digest, config) -> str:
    digest = job_digest.copy()
    values = config.as_dict()
    digest.update(
        "".join(
            [f"{name}\x1f{values[name]!r}\x1f" for name in config.space.names]
        ).encode("utf-8")
    )
    return digest.hexdigest()


def request_key(request: ExecRequest, substrate_signature: str) -> str:
    """Canonical cache key of a (substrate, program, config, datasize) tuple."""
    return _finish_key(_job_digest(request.job, substrate_signature), request.config)


def request_keys(
    requests: Sequence[ExecRequest], substrate_signature: str
) -> List[str]:
    """:func:`request_key` of every request, hashing each job part once.

    Jobs are told apart by ``id()`` only within this call, while
    ``requests`` keeps them alive; ids are reused after garbage
    collection, so the memo never outlives the call.
    """
    job_digests: Dict[int, object] = {}
    keys = []
    for request in requests:
        digest = job_digests.get(id(request.job))
        if digest is None:
            digest = _job_digest(request.job, substrate_signature)
            job_digests[id(request.job)] = digest
        keys.append(_finish_key(digest, request.config))
    return keys


# ----------------------------------------------------------------------
# Packs
# ----------------------------------------------------------------------
def encode_pack(keys: Sequence[str], runs: Sequence[RunResult]) -> bytes:
    """One blob holding ``runs`` (stored under ``keys``) as columns.

    Floats are float64 and counts int64, both exact for every value
    the simulator produces; program and stage names are string tables
    in the header.
    """
    stages = [stage for run in runs for stage in run.stages]
    programs = sorted({run.program for run in runs})
    names = sorted({stage.name for stage in stages})
    program_ids = {program: i for i, program in enumerate(programs)}
    name_ids = {name: i for i, name in enumerate(names)}
    sections = {
        "seconds": np.array([run.seconds for run in runs], dtype=np.float64),
        "datasize_bytes": np.array(
            [run.datasize_bytes for run in runs], dtype=np.float64
        ),
        "program": np.array([program_ids[run.program] for run in runs], dtype=np.int64),
        "stage_count": np.array([len(run.stages) for run in runs], dtype=np.int64),
        "stage_name": np.array([name_ids[s.name] for s in stages], dtype=np.int64),
        # Field-major, so each field decodes as one contiguous column.
        "stage_floats": np.array(
            list(map(attrgetter(*_STAGE_FLOATS), stages)), dtype=np.float64
        ).reshape(len(stages), len(_STAGE_FLOATS)).T,
        "stage_ints": np.array(
            list(map(attrgetter(*_STAGE_INTS), stages)), dtype=np.int64
        ).reshape(len(stages), len(_STAGE_INTS)).T,
    }
    meta = {
        "version": _PACK_VERSION,
        "keys": list(keys),
        "programs": programs,
        "stage_names": names,
    }
    return blobfmt.encode_sections(sections, meta=meta, kind=_PACK_KIND)


def decode_pack(blob: bytes) -> Dict[str, RunResult]:
    """Inverse of :func:`encode_pack`.

    Raises :class:`~repro.store.blobfmt.BlobError` on any malformed,
    torn or corrupt input.
    """
    header, sections = blobfmt.decode_sections(blob, verify=True)
    meta = header.get("meta")
    if (
        header.get("kind") != _PACK_KIND
        or not isinstance(meta, dict)
        or meta.get("version") != _PACK_VERSION
    ):
        raise blobfmt.BlobError("not a cache pack")
    try:
        keys = [str(key) for key in meta["keys"]]
        programs = list(meta["programs"])
        names = list(meta["stage_names"])
        counts = sections["stage_count"].tolist()
        if len(keys) != len(counts) or sum(counts) != len(sections["stage_name"]):
            raise ValueError("run and stage columns disagree")
        columns = {"name": [names[i] for i in sections["stage_name"].tolist()]}
        columns.update(zip(_STAGE_FLOATS, sections["stage_floats"].tolist()))
        columns.update(zip(_STAGE_INTS, sections["stage_ints"].tolist()))
        run_columns = [
            sections[name].tolist() for name in ("program", "datasize_bytes", "seconds")
        ]
        program_names = [programs[i] for i in run_columns[0]]
        stages = [
            StageResult(*row) for row in zip(*(columns[f] for f in _STAGE_FIELDS))
        ]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise blobfmt.BlobError(f"malformed cache pack ({exc})") from exc
    runs: Dict[str, RunResult] = {}
    start = 0
    for key, program, size, seconds, count in zip(
        keys, program_names, run_columns[1], run_columns[2], counts
    ):
        runs[key] = RunResult(
            program=program,
            datasize_bytes=size,
            seconds=seconds,
            stages=tuple(stages[start : start + count]),
        )
        start += count
    return runs


class CachedBackend(ExecutionBackend):
    """Memoizing decorator around another backend.

    Parameters
    ----------
    inner:
        The backend that answers cache misses.
    directory:
        Optional on-disk store: one pack per ``submit`` that missed,
        listed in an append-only index (see the module docstring).
        Sharing a directory across processes is safe: packs are
        renamed into place whole, index lines are single appends, and
        an unreadable index line, pack or entry only costs misses.
    """

    name = "cached"

    def __init__(
        self,
        inner: ExecutionBackend,
        directory: Optional[Union[str, Path]] = None,
    ):
        super().__init__()
        self.inner = inner
        # Each request through this cache is telemetered exactly once,
        # by this recorder; mute the inner backend's tap.
        inner._recorder.telemetry = False
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, RunResult] = {}
        #: key -> pack file name, as read from the index so far.
        self._packs: Dict[str, str] = {}
        self._index_offset = 0
        #: Keys of legacy per-key files, as of the last directory listing.
        self._legacy: set = set()
        self._disk_fresh = False
        self._signature = inner.signature()

    # -- protocol -------------------------------------------------------
    def signature(self) -> str:
        return self._signature

    @property
    def supports_parallel_tasks(self) -> bool:
        return self.inner.supports_parallel_tasks

    def map_tasks(self, fn, items):
        # Generic compute is not request-shaped; pass it straight down.
        return self.inner.map_tasks(fn, items)

    def submit(self, requests: Sequence[ExecRequest]) -> List[ExecOutcome]:
        registry = get_registry()
        outcomes: List[Optional[ExecOutcome]] = [None] * len(requests)
        misses: List[Tuple[int, str, ExecRequest]] = []
        # The index and the legacy listing are re-read at most once per call.
        self._disk_fresh = False
        for i, (request, key) in enumerate(
            zip(requests, request_keys(requests, self._signature))
        ):
            if registry.enabled:
                lookup_start = time.perf_counter()
                run = self._lookup(key)
                registry.timer("engine.cache.lookup_seconds").labels(
                    result="hit" if run is not None else "miss"
                ).observe(time.perf_counter() - lookup_start)
            else:
                run = self._lookup(key)
            if run is not None:
                outcomes[i] = ExecResult(
                    run=run,
                    wall_seconds=0.0,
                    attempts=0,
                    backend=self.name,
                    cache_hit=True,
                )
            else:
                misses.append((i, key, request))

        if misses:
            inner_outcomes = self.inner.submit([req for _, _, req in misses])
            fresh: Dict[str, RunResult] = {}
            for (i, key, _), outcome in zip(misses, inner_outcomes):
                if isinstance(outcome, ExecResult):
                    fresh[key] = outcome.run
                outcomes[i] = outcome
                self._recorder.record_miss()
            self._store(fresh)

        for outcome in outcomes:
            assert outcome is not None
            self._recorder.record(outcome)
        return outcomes  # type: ignore[return-value]

    def close(self) -> None:
        self.inner.close()

    # -- introspection --------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        """Requests through this cache (hits + misses; inner wall times
        show up via the recorded miss outcomes)."""
        return self._recorder.snapshot()

    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop every decoded run; the next lookup reads the disk layer."""
        self._memory.clear()

    # -- storage layers -------------------------------------------------
    def _lookup(self, key: str) -> Optional[RunResult]:
        """Memory, then the index's pack, then a legacy per-key file."""
        run = self._memory.get(key)
        if run is not None or self.directory is None:
            return run
        if key not in self._packs and key not in self._legacy and not self._disk_fresh:
            self._disk_fresh = True
            self._read_index()
            self._list_legacy()
        pack = self._packs.get(key)
        if pack is not None:
            self._load_pack(pack)
            run = self._memory.get(key)
            if run is not None:
                return run
        return self._load_legacy(key) if key in self._legacy else None

    def _list_legacy(self) -> None:
        """Note which keys have a legacy per-key file: one directory
        listing instead of one failed open per missing key."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        self._legacy = {name[:-4] for name in names if name.endswith(".pkl")}

    def _read_index(self) -> None:
        """Fold index lines appended since the last read into ``_packs``."""
        try:
            with (self.directory / INDEX_NAME).open("rb") as handle:
                if handle.seek(0, os.SEEK_END) < self._index_offset:
                    self._index_offset = 0  # index replaced: read it afresh
                handle.seek(self._index_offset)
                tail = handle.read()
        except OSError:  # no index yet
            return
        # A line without its newline is still being written (or torn):
        # leave it for the next read.
        complete = tail.rfind(b"\n") + 1
        self._index_offset += complete
        for pack, keys in _index_entries(tail[:complete]):
            self._packs.update(dict.fromkeys(map(str, keys), pack))

    def _load_pack(self, name: str) -> None:
        """Decode a whole pack into memory; a bad pack's keys miss."""
        path = self.directory / name
        try:
            runs = decode_pack(path.read_bytes())
        except (OSError, blobfmt.BlobError) as exc:  # absent, torn or corrupt
            self._packs = {k: p for k, p in self._packs.items() if p != name}
            if isinstance(exc, blobfmt.BlobError):
                self._evict(path)
            return
        self._memory.update(runs)

    def _load_legacy(self, key: str) -> Optional[RunResult]:
        self._legacy.discard(key)  # served from memory or evicted from here on
        path = self.directory / f"{key}.pkl"
        try:
            blob = path.read_bytes()
        except OSError:  # gone since the listing (or unreadable): miss
            return None
        if blob.startswith(blobfmt.MAGIC):
            try:
                header, sections = blobfmt.decode_sections(blob, verify=True)
                if header.get("kind") != _CACHE_BLOB_KIND:
                    raise blobfmt.BlobError("not a cache entry")
                run = pickle.loads(sections["pickle"].tobytes())
            except Exception:  # truncated/corrupt entry: miss + evict
                self._evict(path)
                return None
        elif blob.startswith(CACHE_FORMAT):  # legacy tagged-pickle entry
            try:
                run = pickle.loads(blob[len(CACHE_FORMAT) :])
            except Exception:  # truncated/corrupt entry: miss + evict
                self._evict(path)
                return None
        else:
            self._evict(path)  # stale format or foreign file
            return None
        if not isinstance(run, RunResult):
            self._evict(path)
            return None
        self._memory[key] = run
        return run

    @staticmethod
    def _evict(path: Path) -> None:
        """Best-effort removal of a bad entry or pack."""
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass

    def _store(self, runs: Dict[str, RunResult]) -> None:
        """Keep ``runs`` in memory and write them to disk as one pack."""
        self._memory.update(runs)
        if self.directory is None or not runs:
            return
        keys = list(runs)
        name = f"{uuid.uuid4().hex}.pack"
        tmp = self.directory / f".{name}.{os.getpid()}.tmp"
        line = b"\n" + json.dumps({"pack": name, "keys": keys}).encode() + b"\n"
        try:
            with tmp.open("wb") as handle:
                handle.write(encode_pack(keys, list(runs.values())))
            tmp.replace(self.directory / name)
            fd = os.open(
                self.directory / INDEX_NAME,
                os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:  # read-only/full disk: memory layer still works
            tmp.unlink(missing_ok=True)
            return
        self._packs.update(dict.fromkeys(keys, name))
