"""Unit tests for the cache's text splicing, pack frames and recovery paths.

Every recovery path of a disk lookup is a MISS that the executor
recomputes and re-stores; ``docs/experiments.md`` ("The result cache")
maps each path to the test here (or in ``test_experiments_jobs.py`` /
``test_executor_faults.py``) that reaches it.
"""

import dataclasses
import json
import multiprocessing
import os
import struct

import pytest

from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.cache import MISS, ResultCache
from repro.experiments.executor import Executor
from repro.experiments.jobs import job
from repro.telemetry import Recorder

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
def shard_jobs(tmp_path_factory):
    """Sixteen jobs whose keys share shard ``SHARD``, with equal-length
    records — so an offset off by whole frames lands on a parsable record
    of another job."""
    found, i = [], 100_000
    cache = ResultCache(tmp_path_factory.mktemp("keys"))
    while len(found) < WRITERS * RECORDS_PER_WRITER:
        jb = job("race", "timeout_models", params={"i": i})
        if cache.key(jb).startswith(SHARD):
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


def shard_file(root, jb, suffix):
    shard = ResultCache(root).key(jb)[:2]
    return root / shard / f"{shard}{suffix}"


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


class TestBatchedPacks:
    def test_batch_flush_packs_and_reads_back(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = JOBS()[:4]
        cache.begin_batch()
        for i, jb in enumerate(jobs):
            cache.store(jb, {"i": i})
        cache.flush_batch()
        # Entries live in per-shard packs, not one file per result.
        assert not list(tmp_path.glob("*/" + cache.key(jobs[0]) + ".json"))
        assert list(tmp_path.glob("*/*.pack"))
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

    def test_a_frame_is_the_key_then_the_length_then_the_record(self, tmp_path, shard_jobs):
        jb = shard_jobs[0]
        cache = flushed(tmp_path, [jb])
        frame = shard_file(tmp_path, jb, ".pack").read_bytes()
        key = cache.key(jb)
        (length,) = struct.unpack_from("<I", frame, 32)
        assert frame[:32] == bytes.fromhex(key) and len(frame) == 36 + length
        assert json.loads(frame[36:])["value"] == payload(jb)
        index = json.loads(shard_file(tmp_path, jb, ".pack.idx").read_text())
        assert index == {"version": 2, "entries": {key: [0, length]}}


class TestAFrameNamesItsKey:
    @pytest.mark.parametrize(
        "entry", ["another key's frame", "past the end of the pack", "not [offset, length]"]
    )
    def test_a_misdirected_index_entry_is_a_miss(self, tmp_path, shard_jobs, entry):
        a, b = shard_jobs[:2]
        cache = flushed(tmp_path, [a, b])
        index_path = shard_file(tmp_path, a, ".pack.idx")
        doc = json.loads(index_path.read_text())
        end = shard_file(tmp_path, a, ".pack").stat().st_size
        doc["entries"][cache.key(a)] = {
            "another key's frame": doc["entries"][cache.key(b)],
            "past the end of the pack": [end, doc["entries"][cache.key(a)][1]],
            "not [offset, length]": "junk",
        }[entry]
        index_path.write_text(json.dumps(doc))
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(a) is MISS
        assert fresh.lookup(b) == payload(b)


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
        ["missing index", "unreadable index", "missing pack", "short frame", "not UTF-8"],
    )
    def test_damage_is_a_miss_and_recomputed(self, tmp_path, damage):
        jb = JOBS()[0]
        Executor().map([jb], ResultCache(tmp_path))
        index_path = shard_file(tmp_path, jb, ".pack.idx")
        pack = shard_file(tmp_path, jb, ".pack")
        frame = pack.read_bytes()
        if damage == "missing index":
            index_path.unlink()
        elif damage == "unreadable index":
            index_path.write_bytes(b"{ torn")
        elif damage == "missing pack":
            pack.unlink()
        elif damage == "short frame":
            pack.write_bytes(frame[:-1])
        else:  # same length, same stamp
            pack.write_bytes(frame[:-1] + b"\xff")
        assert_recomputed(tmp_path, jb)

    def test_a_parent_written_cache_reads_as_misses_once_then_hits(self, tmp_path):
        # The layout before frames carried their key: an index of
        # version 1 pointing at bare length-prefixed records, and a
        # record in its own <key>.json blob.
        packed, blobbed = JOBS()[:2]
        cache = ResultCache(tmp_path)
        for jb, where in ((packed, "pack"), (blobbed, "blob")):
            key = cache.key(jb)
            record = json.dumps({"job": jb.describe(), "salt": cache.salt, "value": 1})
            (tmp_path / key[:2]).mkdir(exist_ok=True)
            if where == "pack":
                with open(tmp_path / key[:2] / f"{key[:2]}.pack", "ab") as handle:
                    handle.write(struct.pack("<I", len(record)) + record.encode())
                (tmp_path / key[:2] / f"{key[:2]}.pack.idx").write_text(
                    json.dumps({"version": 1, "entries": {key: [4, len(record)]}})
                )
            else:
                (tmp_path / key[:2] / f"{key}.json").write_text(record)
        for jb in (packed, blobbed):
            assert_recomputed(tmp_path, jb)
        blob = tmp_path / cache.key(blobbed)[:2] / f"{cache.key(blobbed)}.json"
        assert blob.exists()  # inert: never read, never counted
        assert len(ResultCache(tmp_path)) == 2

    def test_a_torn_tail_is_inert_and_the_next_flush_appends_after_it(
        self, tmp_path, shard_jobs, monkeypatch
    ):
        # A flush whose write lands short (or is killed before its index)
        # leaves bytes no index references: the frames that landed whole
        # are indexed, the torn one is a miss, and the next flush appends
        # after the torn bytes.
        first, torn = sorted(shard_jobs[:2], key=ResultCache(tmp_path).key)  # frame order
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
