"""Unit tests for the cache's text splicing and batched pack writes."""

import json

from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.cache import MISS, ResultCache

JOBS = lambda: fig20.jobs("fast")  # noqa: E731 - tiny factory


def shipped_text(value):
    """The canonical-JSON text a pool worker ships (``_pool_run``)."""
    return json.dumps(value, allow_nan=True, sort_keys=True)


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
        key = via_store.key(jb)
        blob_a = (tmp_path / "a" / key[:2] / f"{key}.json").read_bytes()
        blob_b = (tmp_path / "b" / key[:2] / f"{key}.json").read_bytes()
        assert blob_a == blob_b

    def test_spliced_record_hits_on_lookup(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = JOBS()[0]
        value = {"x": [1, 2, 3]}
        value_text = shipped_text(value)
        cache.store_text(jb, value_text)
        assert ResultCache(tmp_path).lookup(jb) == value

    def test_store_text_returns_the_json_round_trip(self):
        # Same contract as store(): callers get what a reader would see.
        cache = ResultCache()
        jb = JOBS()[0]
        value = {"t": (1, 2)}  # tuples become lists through JSON
        value_text = shipped_text(value)
        assert cache.store_text(jb, value_text) == {"t": [1, 2]}


class TestBatchedPacks:
    def test_batch_flush_packs_and_reads_back(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = JOBS()[:4]
        assert cache.begin_batch() is True
        for i, jb in enumerate(jobs):
            cache.store(jb, {"i": i})
        cache.flush_batch()
        # Entries live in per-shard packs, not one blob per result.
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

    def test_clear_removes_packs(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = JOBS()[:3]
        cache.begin_batch()
        for jb in jobs:
            cache.store(jb, {"v": 1})
        cache.flush_batch()
        assert cache.clear() == 3
        assert not list(tmp_path.glob("*/*.pack"))
        assert not list(tmp_path.glob("*/*.pack.idx"))
        assert ResultCache(tmp_path).lookup(jobs[0]) is MISS

    def test_memory_cache_declines_batching(self):
        assert ResultCache().begin_batch() is False
