"""Content-addressed on-disk cache for experiment job results.

Every :class:`~repro.experiments.jobs.Job` has a stable content hash over
its full declarative description, and that hash is the job's one name:
the cache key, the run log's ``hash`` and the stem of its trace file.
The salt folds in the library version and the job-schema version and is
a directory, ``root/<salt>/``, so a code upgrade starts an empty cache
beside the stale one without deleting anything; ``rm -r root/<old salt>``
reclaims an old version's space.

With a warm cache, re-running ``python -m repro run all`` performs zero
simulations: every job is answered from disk and only the (cheap) reduce
stage runs.  Hit/miss/store accounting is kept on :attr:`ResultCache.stats`
and surfaced by the CLI.

There is one layout on disk.  Every record is a *frame* in the salt's one
pack, ``root/<salt>/results.pack``::

    key (32 raw bytes) | record length (<I) | canonical payload (UTF-8 JSON)

The record is :func:`~repro.experiments.jobs.run_job`'s payload text as
it is; the key stamp binds it to its job.  ``results.idx`` beside it is
a run of fixed ``<32sQI`` entries (key, frame offset, record length),
replaced atomically, that says where each frame starts.  A lookup is one
probe of that index (read once per instance) and one ``pread`` of the
frame; a frame that is short, is stamped with another key or holds a
record that does not parse (or nests too deep to) is a miss, recomputed
and re-stored like any other.  An index that is not a whole number of
entries reads as empty, and an entry reaching past the end of the pack
is left out.  An older cache has other file names, so it is one miss
per entry and is never written.

A flush — :meth:`ResultCache.flush_batch`, or a store outside a batch —
appends the frames, sorted by key so the pack bytes do not depend on job
completion order, with ``O_APPEND`` writes of at most :data:`_CHUNK`
bytes (a larger frame is a write of its own).  Each frame's offset is
where its write actually landed, and the new entries are merged into
the index as it is on disk at that moment.  Processes sharing a cache
directory therefore never read each other's payloads; an entry lost to
a simultaneous index replace is a miss.  Bytes no index references (a
flush killed between its write and its index) are inert: the next flush
appends after them.  So is every other file under the salt — ``*.tmp``
left by an interrupted write, an older layout's packs, indexes and
``<key>.json`` blobs — because nothing ever reads it.  A trace sits in a
folder named by its key's first two hex digits,
``root/<salt>/ab/<key>.trace.jsonl``.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import tempfile
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

from repro import __version__
from repro.experiments.jobs import JOBS_SCHEMA_VERSION, Job
from repro.telemetry.trace import parse_header

__all__ = ["CacheStats", "ResultCache", "default_cache_dir", "default_salt"]

#: Sentinel distinguishing "no entry" from a cached ``None`` payload.
MISS = object()

#: A frame's head: the key's 32 raw bytes, then the record's byte count.
_FRAME_HEAD = struct.Struct("<32sI")

#: An index entry: the key's 32 raw bytes, the frame's offset in the
#: pack, the record's byte count.
_ENTRY = struct.Struct("<32sQI")

#: An entry in memory is one int, ``offset * _BASE + length`` (a length
#: is a ``<I``): a third of the bytes of an ``(offset, length)`` tuple.
_BASE = 1 << 32

#: The most bytes a flush hands one ``write``: it bounds what a flush
#: holds besides its batch and its index.
_CHUNK = 1 << 16

_TRACE_SUFFIX = ".trace.jsonl"

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

    def __str__(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.stores} stores"


def _atomic_write(path: str, mode: str, pieces: Iterable[Any]) -> None:
    """Write ``pieces`` (text or bytes, as ``mode`` says) to ``path`` so
    readers see the old or the new file.

    The pieces go to a ``<name>*.tmp`` sibling first and are renamed over
    ``path``; a failed write removes its tmp file before re-raising, and
    a killed process leaves only inert ``*.tmp`` litter — never a torn
    file.  The folder must exist.
    """
    folder, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(dir=folder, prefix=name, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_chunk(
    fd: int,
    chunk: bytearray,
    spans: list[tuple[str, int, int]],
    index: dict[str, int],
) -> None:
    """Append ``chunk`` in one write and put each of its frames that
    landed whole in ``index``."""
    written = os.write(fd, chunk)
    # Where the write landed: another process may have appended since
    # this one opened the pack or wrote its last chunk.
    start = os.lseek(fd, 0, os.SEEK_CUR) - written
    for key, offset, length in spans:
        if offset + _FRAME_HEAD.size + length <= written:
            index[key] = (start + offset) * _BASE + length


def _is_current_trace(header_line: str) -> bool:
    """True when a trace opening with ``header_line`` can be loaded."""
    try:
        parse_header(header_line)
    except (ValueError, RecursionError):
        return False
    return True


class ResultCache:
    """Content-addressed store of JSON job payloads under ``root/<salt>``,
    as frames of one pack (see the module docstring for the layout and
    what concurrent runs may see).
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = pathlib.Path(root)
        self.salt = default_salt()
        #: ``root/<salt>`` as a plain string: the per-job paths are built from it.
        self._dir = f"{self.root}/{self.salt}"
        self._pack = f"{self._dir}/results.pack"
        self._index_file = f"{self._dir}/results.idx"
        self.stats = CacheStats()
        #: Active batch buffer (key -> record text), or None outside a batch.
        self._batch: Optional[dict[str, str]] = None
        #: The index (key -> entry, see :data:`_BASE`), read on the first
        #: lookup; None until then.
        self._index: Optional[dict[str, int]] = None

    # -- paths --------------------------------------------------------------

    def _trace_file(self, key: str) -> str:
        return f"{self._dir}/{key[:2]}/{key}{_TRACE_SUFFIX}"

    def trace_path(self, jb: Job) -> pathlib.Path:
        """Where ``jb``'s trace artifact lives on disk."""
        return pathlib.Path(self._trace_file(jb.content_hash))

    # -- lookup / store -----------------------------------------------------

    def lookup(self, jb: Job) -> Any:
        """The cached payload for ``jb``, or :data:`MISS`.

        Corrupt or unreadable entries count as misses (and are
        recomputed); the cache never raises on bad disk state.
        """
        record = self._record(jb.content_hash)
        if record is not None:
            try:
                value = json.loads(record)
            except (ValueError, RecursionError):
                pass
            else:
                self.stats.hits += 1
                return value
        self.stats.misses += 1
        return MISS

    def _record(self, key: str) -> Optional[str]:
        """The stored record text for ``key``, or None."""
        if self._batch:
            text = self._batch.get(key)
            if text is not None:
                return text
        index = self._index
        if index is None:
            index = self._index = self._merge_on_disk({})
        entry = index.get(key)
        if entry is None:
            return None
        offset, length = divmod(entry, _BASE)
        try:
            fd = os.open(self._pack, os.O_RDONLY)
            try:
                frame = os.pread(fd, _FRAME_HEAD.size + length, offset)
            finally:
                os.close(fd)
        except OSError:
            return None  # no pack
        head = _FRAME_HEAD.pack(bytes.fromhex(key), length)
        if len(frame) != _FRAME_HEAD.size + length or not frame.startswith(head):
            return None  # short, or another key's frame
        try:
            return frame[_FRAME_HEAD.size :].decode("utf-8")
        except UnicodeDecodeError:
            return None

    def store(self, jb: Job, value: Any) -> Any:
        """Persist ``value`` for ``jb``; returns the JSON round-trip of it.

        sort_keys keeps the on-disk byte layout independent of dict
        construction order, so identical payloads are identical records.
        """
        return self.store_text(jb, json.dumps(value, allow_nan=True, sort_keys=True))

    def store_text(self, jb: Job, value_text: str) -> Any:
        """Persist a payload already in canonical-JSON text form; returns
        the ``json.loads`` of it.

        ``value_text`` must be ``json.dumps(value, allow_nan=True,
        sort_keys=True)`` output — exactly what
        :func:`~repro.experiments.jobs.run_job` returns — and becomes the
        record as it is: the frame's key stamp names the job, so nothing
        is wrapped around the payload.  Returning the parsed text
        guarantees cold runs see exactly what warm runs will read back,
        keeping output byte-identical whether or not the cache was
        already populated.
        """
        key = jb.content_hash
        if self._batch is not None:
            self._batch[key] = value_text
        else:
            self._append({key: value_text})
        self.stats.stores += 1
        return json.loads(value_text)

    # -- batched stores and the pack ----------------------------------------
    #
    # One executor map produces many small records at once.  Batching
    # buffers them and flushes them as appends to the pack plus one index
    # replace, instead of one write and one replace per record.

    def begin_batch(self) -> None:
        """Start buffering stores; a re-entrant call keeps the buffer."""
        if self._batch is None:
            self._batch = {}

    def flush_batch(self) -> int:
        """Write buffered records to the pack; returns the count."""
        batch, self._batch = self._batch, None
        if not batch:
            return 0
        self._append(batch)
        return len(batch)

    def _append(self, records: dict[str, str]) -> None:
        """Append ``records`` (key -> record text) to the pack, sorted by
        key, in ``O_APPEND`` writes of at most :data:`_CHUNK` bytes; index
        the frames that landed whole, and replace the index with that
        merged into the one on disk."""
        index = {} if self._index is None else self._index
        os.makedirs(self._dir, exist_ok=True)
        fd = os.open(self._pack, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            chunk = bytearray()
            spans: list[tuple[str, int, int]] = []  # key, offset in the chunk, length
            for key in sorted(records):
                record = records[key].encode("utf-8")
                if spans and len(chunk) + _FRAME_HEAD.size + len(record) > _CHUNK:
                    _write_chunk(fd, chunk, spans, index)
                    chunk, spans = bytearray(), []
                spans.append((key, len(chunk), len(record)))
                chunk += _FRAME_HEAD.pack(bytes.fromhex(key), len(record))
                chunk += record
            if spans:
                _write_chunk(fd, chunk, spans, index)
        finally:
            os.close(fd)
        self._index = self._merge_on_disk(index)
        entries = (
            _ENTRY.pack(bytes.fromhex(key), *divmod(entry, _BASE)) for key, entry in index.items()
        )
        _atomic_write(self._index_file, "wb", entries)

    def _merge_on_disk(self, index: dict[str, int]) -> dict[str, int]:
        """Add to ``index`` every entry of the index on disk now that it
        lacks, and return it.  An index that is missing, unreadable or not
        a whole number of entries adds nothing; nor does an entry reaching
        past the end of the pack (a miss, like any damaged entry)."""
        try:
            with open(self._index_file, "rb") as handle:
                data = handle.read()
            # The pack only grows, and an entry is written after its frame.
            end = os.stat(self._pack).st_size if data else 0
        except OSError:
            return index
        if len(data) % _ENTRY.size:
            return index
        for raw, offset, length in _ENTRY.iter_unpack(data):
            if offset + _FRAME_HEAD.size + length <= end:
                index.setdefault(raw.hex(), offset * _BASE + length)
        return index

    # -- trace artifacts ----------------------------------------------------
    #
    # A trace is the raw telemetry (JSONL, see repro.telemetry.trace) the
    # simulation emitted while computing a result.  It is stored under the
    # salt in a folder named by the key's first two hex digits, as the
    # job's hash plus ``.trace.jsonl``, and never read by lookup(), so
    # trace artifacts cannot perturb results.
    #
    # Only a trace TraceReader can load counts as stored: a file whose
    # header declares another schema (left by an older version under the
    # same salt) is absent to has_trace()/load_trace(), so the next traced
    # run re-records over it and no second reader is kept for it.

    def store_trace(self, jb: Job, text: str) -> None:
        """Persist the JSONL trace for ``jb`` next to its result record."""
        key = jb.content_hash
        os.makedirs(f"{self._dir}/{key[:2]}", exist_ok=True)
        _atomic_write(self._trace_file(key), "w", [text])

    def load_trace(self, jb: Job) -> Optional[str]:
        """The stored current-schema JSONL trace for ``jb``, or None."""
        try:
            with open(self._trace_file(jb.content_hash), encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, ValueError):  # unreadable or not text
            return None
        # The header is the first line; slicing it off copies no samples.
        return text if _is_current_trace(text[: text.find("\n") + 1]) else None

    def has_trace(self, jb: Job) -> bool:
        """True when a current-schema trace artifact exists for ``jb``."""
        try:
            with open(self._trace_file(jb.content_hash), encoding="utf-8") as handle:
                return _is_current_trace(handle.readline())
        except (OSError, ValueError):
            return False

    # -- counting -----------------------------------------------------------

    def __len__(self) -> int:
        """Number of indexed entries under this salt, as the index on disk
        says now; litter and other salts' entries are never counted."""
        return len(self._merge_on_disk({}))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultCache {self._dir} [{self.stats}]>"
