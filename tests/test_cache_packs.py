"""Unit tests for the cache's payload records, pack frames and recovery paths.

Every recovery path of a disk lookup is a MISS that the executor
recomputes and re-stores; ``docs/experiments.md`` ("The result cache")
maps each path to the test here (or in ``test_experiments_jobs.py`` /
``test_executor_faults.py``) that reaches it.
"""

import dataclasses
import gc
import json
import math
import multiprocessing
import os
import pathlib
import struct
import tracemalloc

import pytest

from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.cache import MISS, ResultCache, default_salt, parse_all
from repro.experiments.executor import Executor, make_executor
from repro.experiments.jobs import SCENARIOS, job, run_job
from repro.telemetry import Recorder
from tests.helpers import cache_files, cached, retained_bytes

JOBS = lambda: fig20.jobs("fast")  # noqa: E731 - tiny factory

#: An index entry: the key's raw bytes, the frame's offset, the record's length.
ENTRY = struct.Struct("<32sQI")
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
def race_jobs():
    """Sixteen jobs with equal-length records — so an offset off by whole
    frames lands on a parsable record of another job."""
    return [
        job("race", "timeout_models", params={"i": 100_000 + i})
        for i in range(WRITERS * RECORDS_PER_WRITER)
    ]


def read_index(path):
    """The index file at ``path`` as ``{hex key: (offset, length)}``."""
    return {
        raw.hex(): (offset, length)
        for raw, offset, length in ENTRY.iter_unpack(path.read_bytes())
    }


def write_index(path, index):
    """Replace the index file at ``path`` with ``index``'s entries."""
    path.write_bytes(
        b"".join(ENTRY.pack(bytes.fromhex(key), *entry) for key, entry in index.items())
    )


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
    assert cached(fresh, jb) is MISS
    executor = Executor()
    executor.map([jb], fresh)
    assert executor.last_report.computed == 1
    assert cached(ResultCache(root), jb) is not MISS


class TestCacheSplicing:
    def test_store_text_is_byte_identical_to_store(self, tmp_path):
        jb = JOBS()[0]
        value = {"rows": [[0.1, "tcp", 3.5]], "meta": {"n": 2}}
        via_store = ResultCache(tmp_path / "a")
        via_store.store(jb, value)
        via_splice = ResultCache(tmp_path / "b")
        via_splice.store_text(jb, shipped_text(value))
        for file_a, file_b in zip(cache_files(tmp_path / "a"), cache_files(tmp_path / "b")):
            assert file_a.read_bytes() == file_b.read_bytes()

    def test_spliced_record_hits_on_lookup(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = JOBS()[0]
        value = {"x": [1, 2, 3]}
        value_text = shipped_text(value)
        cache.store_text(jb, value_text)
        assert cached(ResultCache(tmp_path), jb) == value

    def test_a_cold_map_returns_the_json_round_trip(self, tmp_path, monkeypatch):
        # Tuples become lists, int keys strings and NaN stays NaN through
        # JSON: the map hands out the parse of the text run_job returned,
        # which is what a warm map reads back.  Mutation that fails it:
        # parse_all handing out its texts unparsed.
        value = {"t": (1, (2.5, "x")), "nan": math.nan, "by_int": {3: [math.inf]}}
        monkeypatch.setitem(SCENARIOS, "cold_and_warm", lambda jb: value)
        jb = job("cold", "cold_and_warm")
        (cold,) = Executor().map([jb], ResultCache(tmp_path))
        (warm,) = Executor().map([jb], ResultCache(tmp_path))
        assert (cold.cached, warm.cached) == (False, True)
        assert cold.value["t"] == [1, [2.5, "x"]] and cold.value["by_int"] == {"3": [math.inf]}
        assert math.isnan(cold.value["nan"]) and math.isnan(warm.value["nan"])
        assert shipped_text(cold.value) == shipped_text(warm.value) == shipped_text(value)

    def test_a_nan_payload_is_the_same_cold_and_warm(self, tmp_path):
        # allow_nan: NaN and the infinities are stored as JSON's
        # NaN/Infinity tokens and parse back to the same floats.
        jb = JOBS()[0]
        value = {"nan": math.nan, "inf": [math.inf, -math.inf], "x": 0.1}
        text = shipped_text(value)
        ResultCache(tmp_path).store_text(jb, text)
        (cold,) = parse_all([text])
        warm = cached(ResultCache(tmp_path), jb)
        assert math.isnan(warm["nan"])
        assert shipped_text(cold) == shipped_text(warm) == shipped_text(value)

    def test_parse_all_is_json_loads_of_each_text(self):
        # Passes of at most 64 KiB: a text longer than that is one of its
        # own, and the chunk boundaries fall between texts.
        texts = [shipped_text([i / 7] * (i % 50)) for i in range(3_000)]
        texts.insert(1_000, shipped_text(["x" * 100_000]))
        assert parse_all(texts) == [json.loads(text) for text in texts]
        assert parse_all([]) == []


class TestBatchedPacks:
    def test_batch_flush_packs_and_reads_back(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = JOBS()[:4]
        cache.begin_batch()
        for i, jb in enumerate(jobs):
            cache.store(jb, {"i": i})
        cache.flush_batch()
        # Entries live in the pack, not one file per result.
        pack, _ = cache_files(tmp_path)
        assert not pack.with_name(jobs[0].content_hash + ".json").exists()
        assert pack.exists()
        fresh = ResultCache(tmp_path)
        for i, jb in enumerate(jobs):
            assert cached(fresh, jb) == {"i": i}
        assert len(fresh) == len(jobs)

    def test_batched_entries_visible_before_flush(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = JOBS()[0]
        cache.begin_batch()
        cache.store(jb, {"ok": 1})
        assert cached(cache, jb) == {"ok": 1}  # buffered, still a hit
        cache.flush_batch()
        assert cached(cache, jb) == {"ok": 1}

    def test_a_frame_is_the_key_then_the_length_then_the_record(self, tmp_path):
        # The record is the payload text run_job returned, byte for byte:
        # the stamp, not an envelope, names the job; the salt is the
        # directory the pack sits in.  Its index entry is the same key,
        # the frame's offset and the record's length.
        jb = JOBS()[0]
        Executor().map([jb], ResultCache(tmp_path))
        pack, index = cache_files(tmp_path)
        frame = pack.read_bytes()
        key = jb.content_hash
        (length,) = struct.unpack_from("<I", frame, 32)
        assert frame[:32] == bytes.fromhex(key) and len(frame) == 36 + length
        assert frame[36:] == run_job(jb)[0].encode("utf-8")
        assert index.read_bytes() == ENTRY.pack(bytes.fromhex(key), 0, length)

    def test_a_cold_map_writes_one_pack_and_one_index(self, tmp_path):
        # However many keys a map stores, the salt holds two files.
        jobs = [job("files", "timeout_models", params={"p": (i + 1) / 301}) for i in range(300)]
        cache = ResultCache(tmp_path)
        Executor().map(jobs, cache)
        salted = tmp_path / cache.salt
        assert sorted(p.relative_to(salted) for p in salted.rglob("*")) == [
            pathlib.Path("results.idx"),
            pathlib.Path("results.pack"),
        ]
        assert len(cache) == len(jobs)


class TestOneName:
    def test_the_run_log_hash_names_the_record_and_the_trace(self, tmp_path):
        # One name per job, end to end: the run log's hash is the job's
        # content hash, its key in the index and its trace's stem.
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
            assert record["hash"] == jb.content_hash
            assert record["hash"] == trace.name.removesuffix(".trace.jsonl")
            assert record["hash"] in read_index(cache_files(root)[1])
            assert trace.is_file() and trace.parent.parent == root / cache.salt


class TestAFrameNamesItsKey:
    @pytest.mark.parametrize("entry", ["another key's frame", "past the end of the pack"])
    def test_a_misdirected_index_entry_is_a_miss(self, tmp_path, race_jobs, entry):
        a, b = race_jobs[:2]
        flushed(tmp_path, [a, b])
        pack, index_path = cache_files(tmp_path)
        index = read_index(index_path)
        end = pack.stat().st_size
        index[a.content_hash] = {
            "another key's frame": index[b.content_hash],
            "past the end of the pack": (end, index[a.content_hash][1]),
        }[entry]
        write_index(index_path, index)
        fresh = ResultCache(tmp_path)
        assert cached(fresh, a) is MISS
        assert cached(fresh, b) == payload(b)


def write_pack(root, records):
    """A pack and index at ``root`` holding ``records``, ``(job, record
    text)`` pairs, as they are: each frame stamped and indexed as its
    job's own."""
    pack, index_path = cache_files(root)
    pack.parent.mkdir(parents=True, exist_ok=True)
    frames, index = bytearray(), {}
    for jb, record in records:
        data = record.encode("utf-8")
        index[jb.content_hash] = (len(frames), len(data))
        frames += bytes.fromhex(jb.content_hash) + struct.pack("<I", len(data)) + data
    pack.write_bytes(bytes(frames))
    write_index(index_path, index)


class TestOneReadPerMap:
    def test_a_warm_map_opens_the_pack_once(self, tmp_path, monkeypatch):
        # Mutation that fails it: an os.open of the pack per hit.
        jobs = JOBS()
        Executor().map(jobs, ResultCache(tmp_path))
        pack = str(cache_files(tmp_path)[0])
        real_open, opened = os.open, []

        def counting_open(path, *args, **kwargs):
            opened.append(os.fspath(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_open)
        executor = Executor()
        executor.map(jobs, ResultCache(tmp_path))
        assert executor.last_report.cache_hits == len(jobs) > 1
        assert opened.count(pack) == 1

    @pytest.mark.parametrize("damage", ["does not parse", "nests too deep", "an adjacent pair"])
    def test_a_damaged_record_is_a_miss_by_itself(self, tmp_path, damage):
        # Each record parses on its own and must end at its own last byte.
        # Mutation that fails all three: one json.loads of "[" + the
        # records joined by "," + "]" — it hands the pair "1,[2" / "3]"
        # out as two values, and takes every neighbour of the other two
        # down with it.
        damaged = {
            "does not parse": ["{ torn"],
            "nests too deep": ["[" * 100_000],  # deeper than the JSON parser recurses
            "an adjacent pair": ["1,[2", "3]"],
        }[damage]
        jobs = JOBS()[:4]
        bad = range(1, 1 + len(damaged))
        records = [shipped_text({"own": i}) for i in range(len(jobs))]
        records[1 : 1 + len(damaged)] = damaged
        write_pack(tmp_path, zip(jobs, records))
        fresh = ResultCache(tmp_path)
        assert [value is MISS for value in fresh.lookup(jobs)] == [
            i in bad for i in range(len(jobs))
        ]
        executor = Executor()
        results = executor.map(jobs, fresh)
        assert executor.last_report.computed == len(damaged)
        for i, (jb, result) in enumerate(zip(jobs, results)):
            if i in bad:  # recomputed
                assert not result.cached and result.value == json.loads(run_job(jb)[0])
            else:  # a hit on its own record, whatever its neighbour holds
                assert result.cached and result.value == {"own": i}
        assert MISS not in ResultCache(tmp_path).lookup(jobs)


class TestRaces:
    """Two instances share one root, and one's whole flush runs parked
    inside the other's ``os.write``, ``os.replace`` or ``os.open``: each
    interleaving a shared cache directory allows, forced rather than
    hoped for."""

    @staticmethod
    def park(monkeypatch, name, other):
        """The next ``os.<name>`` call runs ``other()`` first, once."""
        real = getattr(os, name)

        def parked(*args, **kwargs):
            monkeypatch.setattr(os, name, real)
            other()
            return real(*args, **kwargs)

        monkeypatch.setattr(os, name, parked)

    @staticmethod
    def batch(root, jobs):
        """A cache at ``root`` with ``payload(jb)`` for ``jobs`` buffered."""
        cache = ResultCache(root)
        cache.begin_batch()
        for jb in jobs:
            cache.store(jb, payload(jb))
        return cache

    def test_an_offset_is_where_the_write_landed(self, tmp_path, race_jobs, monkeypatch):
        # The other flush appends between this one's open of the pack and
        # its write.  Mutation that fails it: offsets taken from an
        # os.fstat before the write — this flush's entries then name the
        # other's equal-length frames, and miss.
        mine, theirs = race_jobs[:4], race_jobs[4:8]
        cache = self.batch(tmp_path, mine)
        self.park(monkeypatch, "write", lambda: flushed(tmp_path, theirs))
        cache.flush_batch()
        index = read_index(cache_files(tmp_path)[1])
        assert max(index[jb.content_hash][0] for jb in theirs) < min(
            index[jb.content_hash][0] for jb in mine
        )
        both = mine + theirs
        assert ResultCache(tmp_path).lookup(both) == [payload(jb) for jb in both]

    def test_an_entry_lost_to_an_index_replace_is_a_miss(self, tmp_path, race_jobs, monkeypatch):
        # The other flush appends and replaces the index between this
        # one's merge of the index on disk and its replace: the last
        # replace wins and the other's entries are lost — misses, never
        # another job's payload, and recomputed like any miss.
        mine, theirs = race_jobs[:4], JOBS()[:4]
        cache = self.batch(tmp_path, mine)
        self.park(monkeypatch, "replace", lambda: Executor().map(theirs, ResultCache(tmp_path)))
        cache.flush_batch()
        both = mine + theirs
        lost = [payload(jb) for jb in mine] + [MISS] * len(theirs)
        assert ResultCache(tmp_path).lookup(both) == lost
        executor = Executor()
        results = executor.map(both, ResultCache(tmp_path))
        assert executor.last_report.computed == len(theirs)
        assert [result.value for result in results[len(mine) :]] == [
            json.loads(run_job(jb)[0]) for jb in theirs
        ]
        assert MISS not in ResultCache(tmp_path).lookup(both)

    def test_a_flush_killed_before_its_index_leaves_inert_bytes(
        self, tmp_path, race_jobs, monkeypatch
    ):
        # Killed between its pack append and its index replace: the frames
        # it appended are referenced by no index, and the next flush
        # appends after them.
        mine, theirs = race_jobs[:4], race_jobs[4:8]

        def killed(*args, **kwargs):
            raise OSError("killed before the index replace")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed"):
            flushed(tmp_path, mine)
        monkeypatch.undo()
        pack, index_path = cache_files(tmp_path)
        left = pack.stat().st_size
        assert left > 0 and not index_path.exists()
        assert sorted(path.name for path in pack.parent.iterdir()) == ["results.pack"]
        flushed(tmp_path, theirs)
        assert min(offset for offset, _ in read_index(index_path).values()) == left
        both = mine + theirs
        assert ResultCache(tmp_path).lookup(both) == [MISS] * len(mine) + [
            payload(jb) for jb in theirs
        ]

    def test_a_lookup_answers_from_the_index_it_read(self, tmp_path, race_jobs, monkeypatch):
        # The other flush appends and replaces the index between this
        # lookup's read of the index and its open of the pack: the frames
        # it read are still where its index says (the pack only grows),
        # and the entries it never read are misses.
        old, new = race_jobs[:4], race_jobs[4:8]
        flushed(tmp_path, old)
        reader = ResultCache(tmp_path)
        self.park(monkeypatch, "open", lambda: flushed(tmp_path, new))
        assert reader.lookup(old + new) == [payload(jb) for jb in old] + [MISS] * len(new)
        assert ResultCache(tmp_path).lookup(old + new) == [payload(jb) for jb in old + new]


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

    def test_a_flush_holds_little_besides_its_batch(self, tmp_path):
        # A flush writes the pack in bounded chunks and streams the index
        # out entry by entry: its peak is the index it keeps plus one
        # chunk (1.6 times the record bytes), not a joined copy of every
        # frame and of the whole index (8.5 times).
        jobs = [job("mem", "timeout_models", params={"p": (i + 1) / 5_001}) for i in range(5_000)]
        texts = [shipped_text([40 + i / 7, 1 - i / 9e3, 38 + i / 11]) for i in range(5_000)]
        record_bytes = sum(len(text.encode("utf-8")) for text in texts)
        cache = ResultCache(tmp_path)
        cache.begin_batch()
        for jb, text in zip(jobs, texts):
            cache.store_text(jb, text)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert cache.flush_batch() == len(jobs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 5 * record_bytes


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
def test_concurrent_flushes_never_serve_another_jobs_payload(tmp_path, race_jobs):
    """Four processes wait at a barrier, then each flushes four
    equal-length records into the one pack.  An entry lost to a
    simultaneous index replace is a miss (allowed: it is recomputed); a
    hit is always the job's own payload.

    Whether the flushes meet is up to the scheduler: on a two-core host
    the first few dozen barrier releases wake the writers a millisecond
    apart.  Each interleaving this can reach is forced, one at a time,
    in :class:`TestRaces`; a misdirected entry names another key's frame,
    so its key stamp makes it a miss here, never a wrong payload.
    """
    context = multiprocessing.get_context("fork")
    wrong = hits = 0
    for trial in range(TRIALS):
        root = tmp_path / str(trial)
        barrier = context.Barrier(WRITERS)
        writers = [
            context.Process(
                target=_flush_at_the_barrier,
                args=(root, race_jobs[w::WRITERS], barrier),
            )
            for w in range(WRITERS)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        assert [writer.exitcode for writer in writers] == [0] * WRITERS
        fresh = ResultCache(root)
        for jb in race_jobs:
            value = cached(fresh, jb)
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
        stale = cache_files(tmp_path)[1].with_name("results.idx1234.tmp")
        stale.write_text("{ torn")
        ResultCache(tmp_path).store_trace(orphaned, Recorder().export_text())
        cache = ResultCache(tmp_path)
        assert len(cache) == 1 and cached(cache, kept) is not MISS
        assert cached(cache, orphaned) is MISS
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
            "index length not a whole number of entries",
            "nested trace header",
        ],
    )
    def test_damage_is_a_miss_and_recomputed(self, tmp_path, damage):
        # A traced job, so that a trace header is on disk to damage too.
        jb = dataclasses.replace(JOBS()[0], trace=True)
        Executor().map([jb], ResultCache(tmp_path))
        pack, index_path = cache_files(tmp_path)
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
            write_index(index_path, {jb.content_hash: (0, len(nested))})
        elif damage == "index length not a whole number of entries":
            index_path.write_bytes(index_path.read_bytes()[:-1])
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
        # serve the whole envelope as the payload.  Then version-3 frames
        # of bare payloads: before the salt was a directory in root/ab,
        # and before the one pack in root/<salt>/ab, one pack and JSON
        # index per shard.  Each is keyed by the job's own hash, the worst
        # case, and all but the unsalted one sit in the salt directory.
        olds = JOBS()[:5]
        layouts = ("pack", "blob", "frame", "unsalted", "sharded")
        for jb, where in zip(olds, layouts):
            key = jb.content_hash
            if where in ("unsalted", "sharded"):
                record = "1"
            else:
                record = json.dumps({"job": jb.describe(), "salt": "old", "value": 1})
            salted = tmp_path if where == "unsalted" else tmp_path / default_salt()
            shard = salted / key[:2]
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
        parent_files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert len(ResultCache(tmp_path)) == 0
        for jb in olds:
            assert_recomputed(tmp_path, jb)
        fresh = ResultCache(tmp_path)
        assert [cached(fresh, jb) for jb in olds] == [json.loads(run_job(jb)[0]) for jb in olds]
        # Inert: never read, never counted, never written.
        assert {p: p.read_bytes() for p in parent_files} == parent_files
        assert len(ResultCache(tmp_path)) == len(olds)

    def test_a_torn_tail_is_inert_and_the_next_flush_appends_after_it(
        self, tmp_path, race_jobs, monkeypatch
    ):
        # A flush whose write lands short (or is killed before its index)
        # leaves bytes no index references: the frames that landed whole
        # are indexed, the torn one is a miss, and the next flush appends
        # after the torn bytes.
        first, torn = sorted(race_jobs[:2], key=lambda jb: jb.content_hash)  # frame order
        later = race_jobs[2]
        real_write = os.write
        frame_size = []

        def short_write(fd, data):
            frame_size.append(len(data) // 2)
            return real_write(fd, data[: len(data) // 2 + 10])

        monkeypatch.setattr(os, "write", short_write)
        flushed(tmp_path, [first, torn])
        monkeypatch.undo()
        pack, _ = cache_files(tmp_path)
        assert pack.stat().st_size == frame_size[0] + 10
        flushed(tmp_path, [later])
        fresh = ResultCache(tmp_path)
        first_value, torn_value, later_value = fresh.lookup([first, torn, later])
        assert (first_value, later_value) == (payload(first), payload(later))
        assert torn_value is MISS
        assert pack.stat().st_size == 2 * frame_size[0] + 10
