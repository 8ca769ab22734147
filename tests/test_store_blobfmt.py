"""The zero-copy data path: blob containers, codecs, mmap reads, gc.

Property-based round trips for :mod:`repro.store.blobfmt`, the codec
registry's legacy fallbacks, bit-exactness of the mmap read path
against the copying path, the streaming :class:`MatrixBuilder`, the
mmap-safe matrix cache key, and ``RunStore.gc``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collecting import (
    Collector,
    TrainingSet,
    encode_raw_columns,
    raw_columns,
    value_from_raw,
)
from repro.core.tuner import DacTuner
from repro.io import codecs, dumps_training_set
from repro.models.tree import _CACHE_CONTENT_BYTES, _matrix_cache_key
from repro.store import MatrixBuilder, RunStore, blobfmt
from repro.store.blobfmt import (
    BlobError,
    decode_sections,
    encode_sections,
    map_sections,
)
from tests.oracles.collecting import raw_value

# ----------------------------------------------------------------------
# Hypothesis strategies: arbitrary section tables
# ----------------------------------------------------------------------
_DTYPES = st.sampled_from(["<f8", "<f4", "<i8", "<i4", "<u1", "<i2"])


@st.composite
def _section(draw):
    dtype = np.dtype(draw(_DTYPES))
    ndim = draw(st.integers(min_value=1, max_value=2))
    shape = tuple(
        draw(st.integers(min_value=0, max_value=7)) for _ in range(ndim)
    )
    n = int(np.prod(shape)) if shape else 0
    if dtype.kind == "f":
        elements = st.floats(
            allow_nan=False, allow_infinity=True, width=8 * dtype.itemsize
        )
    else:
        info = np.iinfo(dtype)
        elements = st.integers(min_value=int(info.min), max_value=int(info.max))
    flat = draw(
        st.lists(elements, min_size=n, max_size=n)
    )
    return np.asarray(flat, dtype=dtype).reshape(shape)


@st.composite
def _section_table(draw):
    names = draw(
        st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll", "Lu", "Nd"),
                    whitelist_characters="._-",
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    return {name: draw(_section()) for name in names}


# ----------------------------------------------------------------------
# blobfmt container properties
# ----------------------------------------------------------------------
class TestBlobRoundTripProperty:
    @given(_section_table())
    @settings(max_examples=40, deadline=None)
    def test_decode_views_are_byte_identical(self, sections):
        blob = encode_sections(sections, meta={"k": 1}, kind="test")
        header, views = decode_sections(blob, verify=True)
        assert header["kind"] == "test"
        assert header["meta"] == {"k": 1}
        assert set(views) == set(sections)
        for name, original in sections.items():
            view = views[name]
            assert view.shape == original.shape
            assert view.dtype == original.dtype
            assert view.tobytes() == original.tobytes()
            assert not view.flags.writeable

    @given(_section_table())
    @settings(max_examples=25, deadline=None)
    def test_mapped_views_match_decoded_views(self, tmp_path_factory, sections):
        blob = encode_sections(sections, kind="test")
        path = tmp_path_factory.mktemp("blob") / "container"
        prefix = b"artifact-header-stand-in\n"
        path.write_bytes(prefix + blob)
        header, views = map_sections(
            path, offset=len(prefix), length=len(blob), verify=True
        )
        for name, original in sections.items():
            assert views[name].tobytes() == original.tobytes()
            assert not views[name].flags.writeable

    @given(_section_table(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_flipped_payload_byte_is_detected(self, sections, data):
        nonempty = {n: a for n, a in sections.items() if a.nbytes}
        if not nonempty:
            return  # all-empty tables have no payload byte to corrupt
        blob = bytearray(encode_sections(nonempty, kind="test"))
        # Corrupt one byte of section data (never the header JSON, whose
        # corruption is a parse error rather than a digest mismatch).
        header, _ = decode_sections(bytes(blob), verify=False)
        data_start = len(blob) - max(
            d["offset"] + d["nbytes"] for d in header["sections"]
        )
        victim = data.draw(
            st.sampled_from(sorted(nonempty)), label="section"
        )
        desc = next(
            d for d in header["sections"] if d["name"] == victim
        )
        at = data_start + desc["offset"] + data.draw(
            st.integers(min_value=0, max_value=desc["nbytes"] - 1), label="byte"
        )
        blob[at] ^= 0xFF
        with pytest.raises(BlobError, match="digest"):
            decode_sections(bytes(blob), verify=True)

    def test_truncated_header_rejected(self):
        blob = encode_sections({"a": np.arange(4.0)}, kind="test")
        for cut in (0, 4, len(blobfmt.MAGIC), len(blobfmt.MAGIC) + 8 + 3):
            with pytest.raises(BlobError):
                decode_sections(blob[:cut])

    def test_truncated_payload_rejected(self):
        blob = encode_sections({"a": np.arange(64.0)}, kind="test")
        with pytest.raises(BlobError):
            decode_sections(blob[:-7], verify=True)

    def test_wrong_magic_rejected(self):
        blob = encode_sections({"a": np.arange(4.0)}, kind="test")
        with pytest.raises(BlobError, match="magic"):
            decode_sections(b"XXXXXXXX" + blob[8:])

    def test_object_dtype_rejected(self):
        with pytest.raises(BlobError):
            encode_sections({"a": np.array([object()])}, kind="test")

    def test_sections_are_aligned(self):
        sections = {"a": np.arange(3, dtype=np.uint8), "b": np.arange(5.0)}
        blob = encode_sections(sections, kind="test")
        header, _ = decode_sections(blob, verify=True)
        for desc in header["sections"]:
            assert desc["offset"] % blobfmt.ALIGNMENT == 0


# ----------------------------------------------------------------------
# Raw-value column encoding
# ----------------------------------------------------------------------
class TestRawColumns:
    def test_raw_values_round_trip_every_parameter(self, space, rng):
        for _ in range(20):
            config = space.random(rng)
            for param in space.parameters:
                raw = raw_value(param, config[param.name])
                assert value_from_raw(param, raw) == config[param.name]

    def test_raw_columns_match_cell_loop_bitwise(self, space, rng):
        configs = [space.default()] + [space.random(rng) for _ in range(200)]
        expected = np.array(
            [[raw_value(p, c[p.name]) for p in space.parameters] for c in configs]
        )
        got = raw_columns(space, configs)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)
        assert raw_columns(space, []).shape == (0, len(space.parameters))

    def test_vectorized_encode_matches_row_loop_bitwise(self, space, rng):
        configs = [space.random(rng) for _ in range(50)]
        values = np.array(
            [[raw_value(p, c[p.name]) for p in space.parameters] for c in configs]
        )
        vectorized = encode_raw_columns(space, values)
        rows = np.array([space.encode(c) for c in configs])
        np.testing.assert_array_equal(vectorized, rows)


# ----------------------------------------------------------------------
# Store reads: legacy codecs, mmap bit-exactness, corruption handling
# ----------------------------------------------------------------------
class TestStoreCodecPaths:
    @pytest.fixture()
    def training(self, terasort):
        return Collector(terasort, seed=11).collect(24, stream="train")

    def test_legacy_csv_training_set_still_loads(self, tmp_path, training, space):
        store = RunStore(tmp_path / "store")
        payload = dumps_training_set(training).encode("utf-8")
        store.put_bytes("ts", payload, kind="training_set", codec="csv")
        loaded = store.get_training_set("ts", space=space)
        assert loaded is not None and len(loaded) == len(training)
        np.testing.assert_allclose(loaded.times(), training.times())
        # legacy entries have no zero-copy path; mmap mode falls back
        mapped = store.get_training_set("ts", space=space, mode="mmap")
        np.testing.assert_allclose(mapped.times(), training.times())

    def test_legacy_pickle_model_still_loads(self, tmp_path, terasort):
        store = RunStore(tmp_path / "store")
        tuner = DacTuner(terasort, n_train=30, n_trees=8, seed=0)
        tuner.collect()
        model = tuner.fit()
        store.put_object("m", model, kind="model")
        assert store.entry("m")["codec"] == "pickle"
        X = tuner.training_set.features()
        for mode in ("copy", "mmap"):
            loaded = store.get_model("m", mode=mode)
            np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_unknown_codec_reads_absent(self, tmp_path, training):
        store = RunStore(tmp_path / "store")
        store.put_bytes("ts", b"future bytes", kind="training_set", codec="blob9")
        assert store.get_training_set("ts") is None
        assert store.get_training_set("ts", mode="mmap") is None

    def test_mmap_training_set_is_file_backed_and_exact(
        self, tmp_path, training, space
    ):
        store = RunStore(tmp_path / "store")
        store.put_training_set("ts", training)
        copied = store.get_training_set("ts", space=space)
        mapped = store.get_training_set("ts", space=space, mode="mmap")
        np.testing.assert_array_equal(copied.features(), training.features())
        np.testing.assert_array_equal(mapped.features(), training.features())
        np.testing.assert_array_equal(mapped.times(), training.times())
        assert isinstance(mapped.times().base, np.memmap)
        assert not mapped.times().flags.writeable
        for a, b in zip(mapped.vectors, training.vectors):
            assert a.configuration == b.configuration
            assert a.seconds == b.seconds

    def test_mmap_model_predictions_bitwise_equal(self, tmp_path, terasort):
        store = RunStore(tmp_path / "store")
        tuner = DacTuner(terasort, n_train=40, n_trees=12, seed=1)
        tuner.collect()
        model = tuner.fit()
        store.put_model("m", model)
        assert store.entry("m")["codec"] == codecs.BLOB_CODEC
        X = tuner.training_set.features()
        expected = model.predict(X)
        for mode in ("copy", "mmap"):
            loaded = store.get_model("m", mode=mode)
            np.testing.assert_array_equal(loaded.predict(X), expected)
        mapped = store.get_model("m", mode="mmap")
        forest = mapped._components[0]._flat
        assert isinstance(forest.value, np.memmap)
        assert not forest.value.flags.writeable

    def test_corrupt_blob_section_reads_absent(self, tmp_path, training, space):
        store = RunStore(tmp_path / "store")
        store.put_training_set("ts", training)
        path = store._object_path(str(store.entry("ts")["digest"]))
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        # copy mode verifies the artifact digest; mmap mode catches the
        # torn container at section-parse/bounds time
        assert store.get_training_set("ts", space=space) is None

    def test_truncated_blob_reads_absent_in_mmap_mode(
        self, tmp_path, training, space
    ):
        store = RunStore(tmp_path / "store")
        store.put_training_set("ts", training)
        path = store._object_path(str(store.entry("ts")["digest"]))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert store.get_training_set("ts", space=space, mode="mmap") is None
        assert store.get_training_set("ts", space=space) is None

    def test_space_mismatch_reads_absent(self, tmp_path, training, space):
        from repro.common.space import ConfigurationSpace

        store = RunStore(tmp_path / "store")
        store.put_training_set("ts", training)
        other = ConfigurationSpace(list(space.parameters[:-1]), name="other")
        assert store.get_training_set("ts", space=other) is None


# ----------------------------------------------------------------------
# Streaming MatrixBuilder
# ----------------------------------------------------------------------
class TestMatrixBuilder:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=9), min_size=0, max_size=12
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_spill_and_ram_paths_agree(self, chunk_sizes, n_cols):
        gen = np.random.default_rng(sum(chunk_sizes) + n_cols)
        chunks = [gen.random((k, n_cols)) for k in chunk_sizes]

        ram = MatrixBuilder(n_cols)  # default threshold: never spills here
        spill = MatrixBuilder(n_cols, spill_bytes=1)  # spills on append
        for chunk in chunks:
            ram.append(chunk)
            spill.append(chunk)
        assert spill.spilled == any(chunk_sizes)
        a, b = ram.finalize(), spill.finalize()
        np.testing.assert_array_equal(a, b)
        assert a.shape == (sum(chunk_sizes), n_cols)
        assert not b.flags.writeable

    def test_collector_streams_identically(self, terasort):
        eager = Collector(terasort, seed=5).collect(30, stream="train")
        streamed = Collector(terasort, seed=5).collect(30, stream="train")
        np.testing.assert_array_equal(eager.features(), streamed.features())
        np.testing.assert_array_equal(eager.times(), streamed.times())


# ----------------------------------------------------------------------
# Matrix cache key (satellite: mmap matrices must not materialize)
# ----------------------------------------------------------------------
class TestMatrixCacheKey:
    def test_small_heap_matrix_keys_by_content(self):
        X = np.arange(12.0).reshape(3, 4)
        assert _matrix_cache_key(X) == _matrix_cache_key(X.copy())

    def test_large_heap_matrix_bypasses_memo(self):
        n = _CACHE_CONTENT_BYTES // 8 + 16
        X = np.zeros((n, 1))
        assert X.nbytes > _CACHE_CONTENT_BYTES
        assert _matrix_cache_key(X) is None

    def test_mmap_matrix_keys_by_identity_not_content(self, tmp_path):
        path = tmp_path / "m.bin"
        np.arange(24.0).reshape(6, 4).tofile(path)
        mapped = np.memmap(path, dtype=np.float64, mode="r", shape=(6, 4))
        key = _matrix_cache_key(mapped)
        assert key is not None and key[0] == "mmap"
        # a plain slice view keys back to the same mapping
        assert _matrix_cache_key(mapped[:]) is not None
        # and an equal-content heap matrix gets a different (content) key
        heap = np.asarray(mapped).copy()
        assert _matrix_cache_key(heap) != key


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------
class TestStoreGc:
    def _stale(self, store):
        """Backdate every blob past the gc age floor."""
        import os

        for path in (store.root / "objects").glob("*/*"):
            os.utime(path, (1.0, 1.0))

    def test_dry_run_reports_without_deleting(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"v1" * 100)
        store.put_bytes("k", b"v2" * 100)  # supersedes v1
        self._stale(store)
        report = store.gc()
        assert report["applied"] is False
        assert report["live"] == 1
        assert len(report["swept"]) == 1
        assert report["reclaimed_bytes"] > 0
        assert store.get_bytes("k") == b"v2" * 100
        # dry run deleted nothing: both blobs still on disk
        assert len(list((store.root / "objects").glob("*/*"))) == 2

    def test_apply_sweeps_only_unreferenced(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"old" * 50)
        old_digest = str(store.entry("k")["digest"])
        store.put_bytes("k", b"new" * 50)
        store.put_bytes("other", b"live")
        self._stale(store)
        report = store.gc(apply=True)
        assert report["applied"] is True
        assert [s["digest"] for s in report["swept"]] == [old_digest]
        assert not store._object_path(old_digest).exists()
        assert store.get_bytes("k") == b"new" * 50
        assert store.get_bytes("other") == b"live"

    def test_young_blobs_survive(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"v1")
        store.put_bytes("k", b"v2")  # v1 now unreferenced but fresh
        report = store.gc(apply=True)
        assert report["swept"] == []
        assert report["skipped_young"] == 1
        assert len(list((store.root / "objects").glob("*/*"))) == 2

    def test_stale_tmp_litter_swept(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"v")
        litter = store.root / "objects" / "ab" / ".crashed-writer.123.tmp"
        litter.parent.mkdir(parents=True, exist_ok=True)
        litter.write_bytes(b"partial")
        self._stale(store)
        report = store.gc(apply=True)
        assert report["tmp_swept"] == 1
        assert not litter.exists()
        assert store.get_bytes("k") == b"v"

    def test_cli_sweeps_unindexed_cache_packs(self, tmp_path, capsys):
        """A crash between a cache pack's rename and its index append
        leaves an orphan pack (the layout of test_engine's
        test_pack_without_index_line_is_ignored); gc removes it and stale
        temp files, and a dry run touches nothing."""
        import json
        import os

        from repro.cli.main import main
        from repro.engine import CachedBackend, ExecRequest, InProcessBackend
        from repro.engine.cache import INDEX_NAME
        from repro.sparksim.confspace import SPARK_CONF_SPACE
        from repro.workloads import get_workload

        store = RunStore(tmp_path / "store")
        cache = store.cache_dir
        request = ExecRequest(
            job=get_workload("TS").job(10.0), config=SPARK_CONF_SPACE.default()
        )
        CachedBackend(InProcessBackend(), directory=cache).submit([request])
        (cache / INDEX_NAME).unlink()
        CachedBackend(InProcessBackend(), directory=cache).submit([request])
        (cache / ".0123.pack.77.tmp").write_bytes(b"partial")
        for path in cache.iterdir():
            os.utime(path, (1.0, 1.0))
        lines = (cache / INDEX_NAME).read_text().splitlines()
        (indexed,) = [json.loads(line)["pack"] for line in lines if line]
        assert len(list(cache.glob("*.pack"))) == 2

        def snapshot():
            return {
                p.name: (p.stat().st_mtime, p.read_bytes()) for p in cache.iterdir()
            }

        before = snapshot()
        report = store.gc()
        assert (report["cache_packs_swept"], report["cache_tmp_swept"]) == (1, 1)
        assert main(["store", "gc", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "1 unindexed cache pack(s) + 1 cache tmp file(s)" in out
        assert snapshot() == before

        assert main(["store", "gc", "--store", str(store.root), "--apply"]) == 0
        assert sorted(p.name for p in cache.iterdir()) == sorted([INDEX_NAME, indexed])
        again = CachedBackend(InProcessBackend(), directory=cache)
        assert again.submit([request])[0].cache_hit

    def test_artifacts_of_finished_jobs_stay_live(self, tmp_path, terasort):
        """Job records reference artifacts only through index keys, so
        a full tune's artifacts all survive an aggressive sweep."""
        from repro.service import JobService, TuneRequest
        from repro.store import report_fingerprint

        service = JobService(tmp_path / "store", use_cache=False)
        request = TuneRequest(
            program="TS", size=10.0, n_train=20, n_trees=6,
            generations=2, patience=None, seed=0,
        )
        record = service.submit(request)
        done = service.resume(record.job_id)
        assert done.state == "done"
        store = service.store
        self._stale(store)
        store.gc(apply=True, min_age_seconds=0.0)
        key = record.artifact_key("report")
        report = store.get_report(key)
        assert report is not None
        assert done.result["fingerprint"] == report_fingerprint(report)


# ----------------------------------------------------------------------
# Engine cache containers
# ----------------------------------------------------------------------
class TestCacheEntryContainer:
    def test_cache_entry_is_checksummed_container(self, tmp_path):
        from repro.sparksim.simulator import RunResult

        blob = blobfmt.encode_sections(
            {"pickle": np.frombuffer(pickle.dumps(1), dtype=np.uint8)},
            kind="cache_entry",
        )
        header, sections = blobfmt.decode_sections(blob, verify=True)
        assert header["kind"] == "cache_entry"
        assert pickle.loads(sections["pickle"].tobytes()) == 1
