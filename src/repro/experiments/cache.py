"""Content-addressed on-disk cache for experiment job results.

Every :class:`~repro.experiments.jobs.Job` has a stable content hash over
its full declarative description.  The cache keys JSON result blobs by
``sha256(job_hash : salt)`` where the salt folds in the library version
and the job-schema version, so a code upgrade (or an explicit salt
override) invalidates every stale entry without deleting anything.

With a warm cache, re-running ``python -m repro run all`` performs zero
simulations: every job is answered from disk and only the (cheap) reduce
stage runs.  Hit/miss/store accounting is kept on :attr:`ResultCache.stats`
and surfaced by the CLI.

The cache also runs in memory-only mode (``root=None``) — used by the
benchmark harness to share sweeps between figures within one session.

Two storage layouts coexist under one key space:

* **Blob files** — ``root/ab/abcdef....json``, one atomic file per
  entry.  Written by stores outside a batch and for payloads above
  :data:`PACK_SMALL_LIMIT`.
* **Pack files** — ``root/ab/ab.pack``, an append-only sequence of
  length-prefixed canonical-JSON frames plus an atomically-replaced
  ``ab.pack.idx`` JSON index mapping key to ``[offset, length]``.
  Written by the executor's batched-store path
  (:meth:`begin_batch` / :meth:`flush_batch`): a map's small results
  land in one append + one index write per shard instead of one fsync'd
  file per result.  Frames are appended in sorted-key order, so two runs
  computing the same batch produce byte-identical pack files no matter
  what order the scheduler finished the jobs in.

``lookup`` consults blobs first, then the active batch buffer, then the
shard's pack index, so callers never care which layout holds an entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro import __version__
from repro.experiments.jobs import JOBS_SCHEMA_VERSION, Job
from repro.telemetry.trace import parse_header

__all__ = ["CacheStats", "ResultCache", "default_cache_dir", "default_salt"]

#: Sentinel distinguishing "no entry" from a cached ``None`` payload.
MISS = object()

#: Batched stores at or below this many bytes are packed into the shard's
#: append file; larger payloads always get their own blob file.
PACK_SMALL_LIMIT = 16384

#: Length prefix of one pack frame (little-endian u32 byte count).
_PACK_PREFIX = struct.Struct("<I")

#: Pack index format version.
_PACK_INDEX_VERSION = 1


def default_salt() -> str:
    """Code-version salt: changes whenever results may change meaning."""
    return f"repro-{__version__}-schema{JOBS_SCHEMA_VERSION}"


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.stores)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.stores - earlier.stores,
        )

    def __str__(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.stores} stores"


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` so readers see the old or the new file.

    The text goes to a ``<name>*.tmp`` sibling first and is renamed over
    ``path``; a failed write removes its tmp file before re-raising, and
    a killed process leaves only ``*.tmp`` litter for ``prune()`` and
    ``clear()`` to sweep — never a torn entry.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _is_current_trace(header_line: str) -> bool:
    """True when a trace opening with ``header_line`` can be loaded."""
    try:
        parse_header(header_line)
    except ValueError:
        return False
    return True


class ResultCache:
    """Content-addressed store of JSON job payloads.

    ``root=None`` keeps everything in memory (no files touched); a path
    persists blobs under ``root/ab/abcdef....json`` with atomic writes so
    concurrent runs never observe torn entries.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike, None] = None,
        salt: Optional[str] = None,
    ):
        self.root = pathlib.Path(root) if root is not None else None
        self.salt = salt if salt is not None else default_salt()
        self.stats = CacheStats()
        self._memory: dict[str, str] = {}
        self._memory_traces: dict[str, str] = {}
        #: Active batch buffer (key -> record text), or None outside a batch.
        self._batch: Optional[dict[str, str]] = None
        #: Lazily-loaded pack indexes, one dict (key -> [offset, length])
        #: per shard; ``None`` marks a shard known to have no pack.
        self._pack_indexes: dict[str, Optional[dict[str, list]]] = {}

    # -- keys ---------------------------------------------------------------

    def key(self, jb: Job) -> str:
        """Cache key: job content hash + code-version salt."""
        return hashlib.sha256(
            f"{jb.content_hash}:{self.salt}".encode("utf-8")
        ).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        assert self.root is not None
        return self.root / key[:2] / f"{key}.json"

    def _trace_path(self, key: str) -> pathlib.Path:
        assert self.root is not None
        return self.root / key[:2] / f"{key}.trace.jsonl"

    def _pack_path(self, shard: str) -> pathlib.Path:
        assert self.root is not None
        return self.root / shard / f"{shard}.pack"

    def _pack_index_path(self, shard: str) -> pathlib.Path:
        assert self.root is not None
        return self.root / shard / f"{shard}.pack.idx"

    def trace_path(self, jb: Job) -> Optional[pathlib.Path]:
        """Where ``jb``'s trace artifact lives on disk (None in memory mode)."""
        if self.root is None:
            return None
        return self._trace_path(self.key(jb))

    # -- lookup / store -----------------------------------------------------

    def lookup(self, jb: Job) -> Any:
        """The cached payload for ``jb``, or :data:`MISS`.

        Corrupt or unreadable blobs count as misses (and are recomputed);
        the cache never raises on bad disk state.
        """
        key = self.key(jb)
        text = self._read_text(key)
        if text is not None:
            try:
                record = json.loads(text)
                value = record["value"]
            except (ValueError, KeyError, TypeError):
                value = MISS
            if value is not MISS:
                self.stats.hits += 1
                return value
        self.stats.misses += 1
        return MISS

    def _read_text(self, key: str) -> Optional[str]:
        """The stored record text for ``key`` from any layout, or None."""
        if self.root is None:
            return self._memory.get(key)
        try:
            return self._path(key).read_text()
        except OSError:
            pass
        if self._batch is not None:
            buffered = self._batch.get(key)
            if buffered is not None:
                return buffered
        return self._pack_read(key)

    def store(self, jb: Job, value: Any) -> Any:
        """Persist ``value`` for ``jb``; returns the JSON round-trip of it.

        sort_keys keeps the on-disk byte layout independent of dict
        construction order, so identical payloads are identical blobs.
        """
        return self.store_text(jb, json.dumps(value, allow_nan=True, sort_keys=True))

    def store_text(self, jb: Job, value_text: str) -> Any:
        """Persist a payload already in canonical-JSON text form; returns
        the ``json.loads`` of it.

        ``value_text`` must be ``json.dumps(value, allow_nan=True,
        sort_keys=True)`` output — exactly what
        :func:`~repro.experiments.jobs.run_job` returns.  The record is
        spliced around it without re-serializing the payload, and the
        resulting bytes are what dumping the whole record with
        ``sort_keys`` would write: the record keys ``job`` < ``salt`` <
        ``value`` are already in sorted order, and ``json.dumps`` default
        separators (``", "``/``": "``) match the splice below.  Returning
        the parsed text guarantees cold runs see exactly what warm runs
        will read back, keeping output byte-identical whether or not the
        cache was already populated.
        """
        job_text = json.dumps(jb.describe(), allow_nan=True, sort_keys=True)
        salt_text = json.dumps(self.salt, sort_keys=True)
        text = f'{{"job": {job_text}, "salt": {salt_text}, "value": {value_text}}}'
        self._put_text(self.key(jb), text)
        return json.loads(value_text)

    def _put_text(self, key: str, text: str) -> None:
        """Route one record to memory, the active batch, or a blob file."""
        if self.root is None:
            self._memory[key] = text
        elif self._batch is not None and len(text) <= PACK_SMALL_LIMIT:
            self._batch[key] = text
        else:
            _atomic_write_text(self._path(key), text)
        self.stats.stores += 1

    # -- batched stores and pack files --------------------------------------
    #
    # One executor map produces many small records at once.  Batching
    # buffers them and flushes each shard's records as length-prefixed
    # frames appended to one pack file, with a JSON index replaced
    # atomically afterwards — one append + one replace per shard instead
    # of one fsync'd rename per record.  Readers only trust indexed
    # frames, so a crash mid-append strands unreferenced bytes at the
    # tail of the pack (harmless litter) and never a torn entry.

    def begin_batch(self) -> bool:
        """Start buffering small stores; True when batching is active.

        No-op (returns False) for in-memory caches, where a store is
        already just a dict insert.  Re-entrant calls keep the current
        buffer.
        """
        if self.root is None:
            return False
        if self._batch is None:
            self._batch = {}
        return True

    def flush_batch(self) -> int:
        """Write buffered records to per-shard packs; returns the count.

        Frames are appended in sorted-key order so the pack bytes are a
        pure function of the batch's contents, independent of job
        completion order.
        """
        batch, self._batch = self._batch, None
        if not batch:
            return 0
        assert self.root is not None
        by_shard: dict[str, list[str]] = {}
        for key in sorted(batch):
            by_shard.setdefault(key[:2], []).append(key)
        for shard, keys in sorted(by_shard.items()):
            index = self._load_pack_index(shard)
            if index is None:
                index = {}
            pack_path = self._pack_path(shard)
            pack_path.parent.mkdir(parents=True, exist_ok=True)
            with open(pack_path, "ab") as handle:
                offset = handle.tell()
                for key in keys:
                    payload = batch[key].encode("utf-8")
                    handle.write(_PACK_PREFIX.pack(len(payload)))
                    handle.write(payload)
                    index[key] = [offset + _PACK_PREFIX.size, len(payload)]
                    offset += _PACK_PREFIX.size + len(payload)
            self._write_pack_index(shard, index)
        return len(batch)

    def _load_pack_index(self, shard: str) -> Optional[dict[str, list]]:
        """The shard's pack index (cached), or None when it has no pack."""
        if shard in self._pack_indexes:
            return self._pack_indexes[shard]
        index: Optional[dict[str, list]] = None
        try:
            doc = json.loads(self._pack_index_path(shard).read_text())
            if doc.get("version") == _PACK_INDEX_VERSION:
                index = dict(doc["entries"])
        except (OSError, ValueError, KeyError, TypeError):
            index = None  # unreadable index: treat the shard as packless
        self._pack_indexes[shard] = index
        return index

    def _write_pack_index(self, shard: str, index: dict[str, list]) -> None:
        entries = {key: index[key] for key in sorted(index)}
        text = json.dumps(
            {"version": _PACK_INDEX_VERSION, "entries": entries}, sort_keys=True
        )
        _atomic_write_text(self._pack_index_path(shard), text)
        self._pack_indexes[shard] = entries

    def _pack_read(self, key: str) -> Optional[str]:
        """Read one record from its shard's pack file, or None."""
        index = self._load_pack_index(key[:2])
        if index is None:
            return None
        entry = index.get(key)
        if entry is None:
            return None
        try:
            offset, length = int(entry[0]), int(entry[1])
            with open(self._pack_path(key[:2]), "rb") as handle:
                handle.seek(offset)
                payload = handle.read(length)
            if len(payload) != length:
                return None  # index promises more bytes than the pack holds
            return payload.decode("utf-8")
        except (OSError, ValueError, IndexError, TypeError):
            return None

    # -- trace artifacts ----------------------------------------------------
    #
    # A trace is the raw telemetry (JSONL, see repro.telemetry.trace) the
    # simulation emitted while computing a result.  It is stored *beside*
    # the result blob — same shard, same key, ``.trace.jsonl`` suffix — and
    # never read by lookup(), so trace artifacts cannot perturb results.
    #
    # Only a trace TraceReader can load counts as stored: a file whose
    # header declares another schema (left by an older version under the
    # same salt) is absent to has_trace()/load_trace(), so the next traced
    # run re-records over it and no second reader is kept for it.  The
    # orphan sweeps below still match on the suffix alone.

    def store_trace(self, jb: Job, text: str) -> None:
        """Persist the JSONL trace for ``jb`` next to its result blob."""
        key = self.key(jb)
        if self.root is None:
            self._memory_traces[key] = text
            return
        _atomic_write_text(self._trace_path(key), text)

    def load_trace(self, jb: Job) -> Optional[str]:
        """The stored current-schema JSONL trace for ``jb``, or None."""
        key = self.key(jb)
        if self.root is None:
            text = self._memory_traces.get(key)
        else:
            try:
                text = self._trace_path(key).read_text(encoding="utf-8")
            except (OSError, ValueError):  # unreadable or not text
                text = None
        # The header is the first line; slicing it off copies no samples.
        if text is None or not _is_current_trace(text[: text.find("\n") + 1]):
            return None
        return text

    def has_trace(self, jb: Job) -> bool:
        """True when a current-schema trace artifact exists for ``jb``."""
        if self.root is None:
            return self.load_trace(jb) is not None
        try:
            with open(self.trace_path(jb), encoding="utf-8") as handle:
                return _is_current_trace(handle.readline())
        except (OSError, ValueError):
            return False

    # -- maintenance --------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry; returns how many entries were removed.

        Also sweeps orphaned ``*.tmp`` files (left behind if a write was
        interrupted between ``mkstemp`` and ``os.replace``) and removes
        shard directories once they are empty, so litter never
        accumulates.  Swept tmp files do not count as removed entries.
        """
        if self.root is None:
            count = len(self._memory)
            self._memory.clear()
            self._memory_traces.clear()
            return count
        self._batch = None
        count = 0
        if self.root.exists():
            for blob in self.root.glob("*/*.json"):
                try:
                    blob.unlink()
                    count += 1
                except OSError:
                    pass
            # Packed entries count via their indexes; then pack + index
            # files are removed like any other artifact.
            for index_path in self.root.glob("*/*.pack.idx"):
                index = self._load_pack_index(index_path.parent.name)
                count += len(index) if index else 0
            for pack in self.root.glob("*/*.pack"):
                try:
                    pack.unlink()
                except OSError:
                    pass
            for index_path in self.root.glob("*/*.pack.idx"):
                try:
                    index_path.unlink()
                except OSError:
                    pass
            # Trace artifacts ride along with their result blobs but are
            # not entries themselves, so they are swept without counting.
            for trace in self.root.glob("*/*.trace.jsonl"):
                try:
                    trace.unlink()
                except OSError:
                    pass
            for leftover in self.root.glob("*/*.tmp"):
                try:
                    leftover.unlink()
                except OSError:
                    pass
            self._remove_empty_shards()
        self._pack_indexes = {}
        return count

    def prune(self, max_age_s: float = 86400.0) -> int:
        """Remove stale ``*.tmp`` litter and orphaned trace artifacts.

        Interrupted writes (crashed or killed processes) can strand temp
        files beside the blobs; recent ones may belong to a concurrent
        writer mid-store, so only tmp files older than ``max_age_s``
        seconds are swept.  A ``<key>.trace.jsonl`` whose result entry is
        gone (blob deleted and not packed — e.g. a selective invalidation
        or a crash between the two writes) is an orphan: ``lookup`` will
        recompute the job anyway, re-storing both artifacts, so orphans
        are pure litter and are removed regardless of age.  Empty shard
        directories are removed too.  Returns the number of files
        deleted.  No-op for in-memory caches.
        """
        if self.root is None or not self.root.exists():
            return 0
        cutoff = time.time() - max_age_s  # simlint: disable=D002(tmp-file ages are wall-clock by nature; never feeds a table)
        removed = 0
        for leftover in self.root.glob("*/*.tmp"):
            try:
                if leftover.stat().st_mtime <= cutoff:
                    leftover.unlink()
                    removed += 1
            except OSError:
                pass
        for trace in self.root.glob("*/*.trace.jsonl"):
            key = trace.name[: -len(".trace.jsonl")]
            if self._has_entry(key):
                continue
            try:
                trace.unlink()
                removed += 1
            except OSError:
                pass
        self._remove_empty_shards()
        return removed

    def _has_entry(self, key: str) -> bool:
        """True when a result entry exists for ``key`` in any layout."""
        assert self.root is not None
        if self._path(key).exists():
            return True
        if self._batch is not None and key in self._batch:
            return True
        index = self._load_pack_index(key[:2])
        return index is not None and key in index

    def _remove_empty_shards(self) -> None:
        """Drop shard subdirectories that no longer hold any files."""
        assert self.root is not None
        for shard in self.root.iterdir():
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass

    def __len__(self) -> int:
        """Number of stored entries; tmp litter is never counted."""
        if self.root is None:
            return len(self._memory)
        if not self.root.exists():
            return 0
        keys = {
            blob.name[: -len(".json")]: True
            for blob in self.root.glob("*/*.json")
            if blob.suffix == ".json"
        }
        for index_path in self.root.glob("*/*.pack.idx"):
            index = self._load_pack_index(index_path.parent.name)
            for key in index or ():
                keys[key] = True
        return len(keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.root) if self.root is not None else "memory"
        return f"<ResultCache {where} [{self.stats}]>"
