"""Unit tests for the cache's payload records, pack frames and recovery paths.

Every recovery path of a disk lookup is a MISS that the executor
recomputes and re-stores; ``docs/experiments.md`` ("The result cache")
maps each path to the test here (or in ``test_experiments_jobs.py`` /
``test_executor_faults.py``) that reaches it.
"""

import dataclasses
import json
import math
import multiprocessing
import os
import pathlib
import struct

import pytest

from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.cache import MISS, ResultCache
from repro.experiments.executor import Executor, make_executor
from repro.experiments.jobs import job, run_job
from repro.telemetry import Recorder
from tests.helpers import retained_bytes, shard_file

JOBS = lambda: fig20.jobs("fast")  # noqa: E731 - tiny factory

#: The shard every record of the concurrency tests lands in.
SHARD = "f7"
WRITERS = 4
RECORDS_PER_WRITER = 4
TRIALS = 100


def shipped_text(value):
    """The canonical-JSON text a pool worker ships (``_pool_run``)."""
    return json.dumps(value, allow_nan=True, sort_keys=True)


def payload(jb):
    """A distinct payload per job, all of one length (6-digit ``i``)."""
    return {"i": dict(jb.params)["i"]}


@pytest.fixture(scope="module")
def shard_jobs():
    """Sixteen jobs whose keys share shard ``SHARD``, with equal-length
    records — so an offset off by whole frames lands on a parsable record
    of another job."""
    found, i = [], 100_000
    while len(found) < WRITERS * RECORDS_PER_WRITER:
        jb = job("race", "timeout_models", params={"i": i})
        if jb.content_hash.startswith(SHARD):
            found.append(jb)
        i += 1
    return found


def flushed(root, jobs):
    """A cache at ``root`` holding ``payload(jb)`` for ``jobs``, one batch."""
    cache = ResultCache(root)
    cache.begin_batch()
    for jb in jobs:
        cache.store(jb, payload(jb))
    cache.flush_batch()
    return cache


def assert_recomputed(root, jb):
    """A fresh lookup misses; the executor recomputes and re-stores it."""
    fresh = ResultCache(root)
    assert fresh.lookup(jb) is MISS
    executor = Executor()
    executor.map([jb], fresh)
    assert executor.last_report.computed == 1
    assert ResultCache(root).lookup(jb) is not MISS


class TestCacheSplicing:
    def test_store_text_is_byte_identical_to_store(self, tmp_path):
        jb = JOBS()[0]
        value = {"rows": [[0.1, "tcp", 3.5]], "meta": {"n": 2}}
        via_store = ResultCache(tmp_path / "a")
        via_store.store(jb, value)
        via_splice = ResultCache(tmp_path / "b")
        value_text = shipped_text(value)
        returned = via_splice.store_text(jb, value_text)
        assert returned == value
        for suffix in (".pack", ".pack.idx"):
            pack_a = shard_file(tmp_path / "a", jb, suffix).read_bytes()
            pack_b = shard_file(tmp_path / "b", jb, suffix).read_bytes()
            assert pack_a == pack_b

    def test_spliced_record_hits_on_lookup(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = JOBS()[0]
        value = {"x": [1, 2, 3]}
        value_text = shipped_text(value)
        cache.store_text(jb, value_text)
        assert ResultCache(tmp_path).lookup(jb) == value

    def test_store_text_returns_the_json_round_trip(self, tmp_path):
        # Same contract as store(): callers get what a reader would see.
        cache = ResultCache(tmp_path)
        jb = JOBS()[0]
        value = {"t": (1, 2)}  # tuples become lists through JSON
        value_text = shipped_text(value)
        assert cache.store_text(jb, value_text) == {"t": [1, 2]}

    def test_a_nan_payload_is_the_same_cold_and_warm(self, tmp_path):
        # allow_nan: NaN and the infinities are stored as JSON's
        # NaN/Infinity tokens and parse back to the same floats.
        jb = JOBS()[0]
        value = {"nan": math.nan, "inf": [math.inf, -math.inf], "x": 0.1}
        cold = ResultCache(tmp_path).store_text(jb, shipped_text(value))
        warm = ResultCache(tmp_path).lookup(jb)
        assert math.isnan(warm["nan"])
        assert shipped_text(cold) == shipped_text(warm) == shipped_text(value)


class TestBatchedPacks:
    def test_batch_flush_packs_and_reads_back(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = JOBS()[:4]
        cache.begin_batch()
        for i, jb in enumerate(jobs):
            cache.store(jb, {"i": i})
        cache.flush_batch()
        # Entries live in per-shard packs, not one file per result.
        pack = shard_file(tmp_path, jobs[0], ".pack")
        assert not pack.with_name(jobs[0].content_hash + ".json").exists()
        assert pack.exists()
        fresh = ResultCache(tmp_path)
        for i, jb in enumerate(jobs):
            assert fresh.lookup(jb) == {"i": i}
        assert len(fresh) == len(jobs)

    def test_batched_entries_visible_before_flush(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = JOBS()[0]
        cache.begin_batch()
        cache.store(jb, {"ok": 1})
        assert cache.lookup(jb) == {"ok": 1}  # buffered, still a hit
        cache.flush_batch()
        assert cache.lookup(jb) == {"ok": 1}

    def test_a_frame_is_the_key_then_the_length_then_the_record(self, tmp_path):
        # The record is the payload text run_job returned, byte for byte:
        # the stamp, not an envelope, names the job; the salt is the
        # directory the shard sits in.
        jb = JOBS()[0]
        Executor().map([jb], ResultCache(tmp_path))
        frame = shard_file(tmp_path, jb, ".pack").read_bytes()
        key = jb.content_hash
        (length,) = struct.unpack_from("<I", frame, 32)
        assert frame[:32] == bytes.fromhex(key) and len(frame) == 36 + length
        assert frame[36:] == run_job(jb)[0].encode("utf-8")
        index = json.loads(shard_file(tmp_path, jb, ".pack.idx").read_text())
        assert index == {"version": 3, "entries": {key: [0, length]}}


class TestOneName:
    def test_the_run_log_hash_names_the_record_and_the_trace(self, tmp_path):
        # One name per job, end to end: the run log's hash is the job's
        # content hash, its key in the shard's index and its trace's stem.
        jobs = [dataclasses.replace(jb, trace=True) for jb in JOBS()[:3]]
        root = tmp_path / "cache"
        cache = ResultCache(root)
        with make_executor(0, run_log=tmp_path / "run.jsonl") as executor:
            executor.map(jobs, cache)
        records = map(json.loads, (tmp_path / "run.jsonl").read_text().splitlines())
        computed = [r for r in records if r["event"] == "job" and r["status"] == "computed"]
        assert len(computed) == len(jobs)
        for record in computed:
            jb = jobs[record["index"]]
            trace = pathlib.Path(record["trace_path"])
            index = json.loads(shard_file(root, jb, ".pack.idx").read_text())
            assert record["hash"] == jb.content_hash
            assert record["hash"] == trace.name.removesuffix(".trace.jsonl")
            assert record["hash"] in index["entries"]
            assert trace.is_file() and trace.parent.parent == root / cache.salt


class TestAFrameNamesItsKey:
    @pytest.mark.parametrize(
        "entry", ["another key's frame", "past the end of the pack", "not [offset, length]"]
    )
    def test_a_misdirected_index_entry_is_a_miss(self, tmp_path, shard_jobs, entry):
        a, b = shard_jobs[:2]
        flushed(tmp_path, [a, b])
        index_path = shard_file(tmp_path, a, ".pack.idx")
        doc = json.loads(index_path.read_text())
        end = shard_file(tmp_path, a, ".pack").stat().st_size
        doc["entries"][a.content_hash] = {
            "another key's frame": doc["entries"][b.content_hash],
            "past the end of the pack": [end, doc["entries"][a.content_hash][1]],
            "not [offset, length]": "junk",
        }[entry]
        index_path.write_text(json.dumps(doc))
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(a) is MISS
        assert fresh.lookup(b) == payload(b)


class TestMemory:
    def test_a_cold_map_leaves_little_in_the_cache_per_job(self, tmp_path):
        # What the cache keeps of a job is its index entry; the key is the
        # job's own hash string, so naming the job costs the cache nothing.
        jobs = [
            job("mem", "timeout_models", params={"p": (i + 1) / 5_001}) for i in range(5_000)
        ]
        for jb in jobs:
            jb.content_hash
        Executor().map(jobs[:1], ResultCache(tmp_path / "warm-up"))  # first-call state
        cache = ResultCache(tmp_path / "cache")

        def cold_map_with_the_results_dropped():
            Executor().map(jobs, cache)

        held, _ = retained_bytes(cold_map_with_the_results_dropped)
        assert len(cache) == len(jobs)
        assert held / len(jobs) <= 180


def _flush_at_the_barrier(root, jobs, barrier):
    cache = ResultCache(root)
    barrier.wait(timeout=30)
    cache.begin_batch()
    for jb in jobs:
        cache.store(jb, payload(jb))
    cache.flush_batch()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_concurrent_flushes_never_serve_another_jobs_payload(tmp_path, shard_jobs):
    """Four processes wait at a barrier, then each flushes four
    equal-length records into one shard.  An entry lost to a
    simultaneous index replace is a miss (allowed: it is recomputed); a
    hit is always the job's own payload.

    A hundred trials, not twenty: on a two-core host the first few dozen
    barrier releases wake the writers a millisecond apart and their
    flushes seldom meet.  There, a flush that takes its offset before it
    appends served no wrong payload in twenty trials, and tens to
    hundreds in a hundred.
    """
    context = multiprocessing.get_context("fork")
    wrong = hits = 0
    for trial in range(TRIALS):
        root = tmp_path / str(trial)
        barrier = context.Barrier(WRITERS)
        writers = [
            context.Process(
                target=_flush_at_the_barrier,
                args=(root, shard_jobs[w::WRITERS], barrier),
            )
            for w in range(WRITERS)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        assert [writer.exitcode for writer in writers] == [0] * WRITERS
        fresh = ResultCache(root)
        for jb in shard_jobs:
            value = fresh.lookup(jb)
            hits += value is not MISS
            wrong += value is not MISS and value != payload(jb)
    assert wrong == 0
    assert hits >= TRIALS * RECORDS_PER_WRITER  # the last index writer's at least


class TestRecoveryPaths:
    """Damage one cached fig20 entry; the next run recomputes it."""

    def test_litter_is_inert(self, tmp_path):
        # A tmp file stranded by an interrupted write and a trace whose
        # entry is gone: nothing reads or counts either, and the traced
        # job is recomputed with both of its artifacts re-stored.
        kept, orphaned = JOBS()[0], dataclasses.replace(JOBS()[1], trace=True)
        Executor().map([kept], ResultCache(tmp_path))
        stale = shard_file(tmp_path, kept, ".pack.idx.1234.tmp")
        stale.write_text("{ torn")
        ResultCache(tmp_path).store_trace(orphaned, Recorder().export_text())
        cache = ResultCache(tmp_path)
        assert len(cache) == 1 and cache.lookup(kept) is not MISS
        assert cache.lookup(orphaned) is MISS
        executor = Executor()
        executor.map([orphaned], cache)
        assert executor.last_report.computed == 1
        assert stale.exists() and len(ResultCache(tmp_path)) == 2
        assert ResultCache(tmp_path).has_trace(orphaned)

    @pytest.mark.parametrize(
        "damage",
        [
            "missing index",
            "unreadable index",
            "missing pack",
            "short frame",
            "not UTF-8",
            "nested record",
            "nested index",
            "nested trace header",
        ],
    )
    def test_damage_is_a_miss_and_recomputed(self, tmp_path, damage):
        # A traced job, so that a trace header is on disk to damage too.
        jb = dataclasses.replace(JOBS()[0], trace=True)
        Executor().map([jb], ResultCache(tmp_path))
        index_path = shard_file(tmp_path, jb, ".pack.idx")
        pack = shard_file(tmp_path, jb, ".pack")
        frame = pack.read_bytes()
        nested = b"[" * 100_000  # deeper than the JSON parser recurses
        if damage == "missing index":
            index_path.unlink()
        elif damage == "unreadable index":
            index_path.write_bytes(b"{ torn")
        elif damage == "missing pack":
            pack.unlink()
        elif damage == "short frame":
            pack.write_bytes(frame[:-1])
        elif damage == "nested record":  # stamped and indexed as the job's own
            pack.write_bytes(frame[:32] + struct.pack("<I", len(nested)) + nested)
            doc = json.loads(index_path.read_text())
            doc["entries"][jb.content_hash] = [0, len(nested)]
            index_path.write_text(json.dumps(doc))
        elif damage == "nested index":
            index_path.write_bytes(nested)
        elif damage == "nested trace header":
            ResultCache(tmp_path).trace_path(jb).write_bytes(nested + b"\n")
        else:  # same length, same stamp
            pack.write_bytes(frame[:-1] + b"\xff")
        if damage == "nested trace header":  # the record is intact; its trace is not
            fresh = ResultCache(tmp_path)
            assert not fresh.has_trace(jb) and fresh.load_trace(jb) is None
            executor = Executor()
            executor.map([jb], fresh)
            assert executor.last_report.computed == 1
        else:
            assert_recomputed(tmp_path, jb)
        assert ResultCache(tmp_path).has_trace(jb)

    def test_a_parent_written_cache_reads_as_misses_once_then_hits(self, tmp_path):
        # Every older layout, each holding a {"job", "salt", "value"}
        # envelope: before frames carried their key, an index of version 1
        # pointing at bare length-prefixed records, or a record in its own
        # <key>.json blob; before the record was the payload, an index of
        # version 2 over key-stamped frames.  A reader of either would
        # serve the whole envelope as the payload.  And before the salt
        # was a directory, version-3 frames of bare payloads in root/ab.
        # Each is keyed by the job's own hash, the worst case, and all but
        # the last sit in the salt directory.
        packed, blobbed, enveloped, unsalted = olds = JOBS()[:4]
        for jb, where in zip(olds, ("pack", "blob", "frame", "unsalted")):
            key = jb.content_hash
            if where == "unsalted":
                record, shard = "1", tmp_path / key[:2]
            else:
                record = json.dumps({"job": jb.describe(), "salt": "old", "value": 1})
                shard = shard_file(tmp_path, jb, "").parent
            shard.mkdir(parents=True, exist_ok=True)
            if where == "blob":
                (shard / f"{key}.json").write_text(record)
                continue
            if where == "pack":
                head, version, offset = struct.pack("<I", len(record)), 1, 4
            else:
                stamp = bytes.fromhex(key) + struct.pack("<I", len(record))
                head, version, offset = stamp, 2 if where == "frame" else 3, 0
            (shard / f"{key[:2]}.pack").write_bytes(head + record.encode())
            (shard / f"{key[:2]}.pack.idx").write_text(
                json.dumps({"version": version, "entries": {key: [offset, len(record)]}})
            )
        assert len(ResultCache(tmp_path)) == 0
        for jb in olds:
            assert_recomputed(tmp_path, jb)
        fresh = ResultCache(tmp_path)
        assert [fresh.lookup(jb) for jb in olds] == [json.loads(run_job(jb)[0]) for jb in olds]
        blob = shard_file(tmp_path, blobbed, "").with_name(f"{blobbed.content_hash}.json")
        assert blob.exists()  # inert: never read, never counted
        assert (tmp_path / unsalted.content_hash[:2]).exists()  # inert too
        assert len(ResultCache(tmp_path)) == 4

    def test_a_torn_tail_is_inert_and_the_next_flush_appends_after_it(
        self, tmp_path, shard_jobs, monkeypatch
    ):
        # A flush whose write lands short (or is killed before its index)
        # leaves bytes no index references: the frames that landed whole
        # are indexed, the torn one is a miss, and the next flush appends
        # after the torn bytes.
        first, torn = sorted(shard_jobs[:2], key=lambda jb: jb.content_hash)  # frame order
        later = shard_jobs[2]
        real_write = os.write
        frame_size = []

        def short_write(fd, data):
            frame_size.append(len(data) // 2)
            return real_write(fd, data[: len(data) // 2 + 10])

        monkeypatch.setattr(os, "write", short_write)
        flushed(tmp_path, [first, torn])
        monkeypatch.undo()
        pack = shard_file(tmp_path, first, ".pack")
        assert pack.stat().st_size == frame_size[0] + 10
        flushed(tmp_path, [later])
        fresh = ResultCache(tmp_path)
        first_value, torn_value, later_value = map(fresh.lookup, (first, torn, later))
        assert (first_value, later_value) == (payload(first), payload(later))
        assert torn_value is MISS
        assert pack.stat().st_size == 2 * frame_size[0] + 10
