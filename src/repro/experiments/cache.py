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
replaced atomically, that says where each frame starts.  A lookup takes
a whole map's jobs: one probe of that index (read once per instance) per
job, one descriptor of the pack for the call, one ``pread`` per hit's
frame, and one validated pass that parses each hit's record on its own.
A frame that is short or is stamped with another key, and a record that
does not parse, does not end at its own last byte or nests too deep, is
a miss by itself — whatever its neighbours hold — recomputed and
re-stored like any other.  An index that is not a whole number of
entries reads as empty, and an entry reaching past the end of the pack
is left out.  An older cache has other file names, so it is one miss
per entry and is never written.  A store parses nothing: the executor
parses a map's computed texts once, together (:func:`parse_all`).

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
from typing import Any, Iterable, Optional, Sequence, Union

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

#: Parses one JSON value at the start of a text: ``(value, end)``.
_RAW_DECODE = json.JSONDecoder().raw_decode

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


def _read_record(fd: int, key: str, entry: int) -> Optional[str]:
    """The record of ``key``'s frame at ``entry`` in the pack open on
    ``fd``, or None when the frame is unreadable or short, is stamped with
    another key or is not UTF-8."""
    offset, length = divmod(entry, _BASE)
    try:
        frame = os.pread(fd, _FRAME_HEAD.size + length, offset)
    except OSError:
        return None
    head = _FRAME_HEAD.pack(bytes.fromhex(key), length)
    if len(frame) != _FRAME_HEAD.size + length or not frame.startswith(head):
        return None  # short, or another key's frame
    try:
        return frame[_FRAME_HEAD.size :].decode("utf-8")
    except UnicodeDecodeError:
        return None


def parse_all(texts: Sequence[str]) -> list[Any]:
    """The ``json.loads`` of each of ``texts``, which must each be one
    whole JSON value (``run_job``'s payload texts are), parsed as JSON
    arrays of at most :data:`_CHUNK` characters — bytes, for ASCII
    canonical JSON — and a longer text as a pass of its own."""
    values: list[Any] = []
    chunk: list[str] = []
    size = 0
    for text in texts:
        if chunk and size + len(text) > _CHUNK:
            values += json.loads(f"[{','.join(chunk)}]")
            chunk, size = [], 0
        chunk.append(text)
        size += len(text) + 1
    if chunk:
        values += json.loads(f"[{','.join(chunk)}]")
    return values


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

    def lookup(self, jobs: Sequence[Job]) -> list[Any]:
        """The cached payload of each of ``jobs``, in order, with
        :data:`MISS` where there is none.

        Each job is one probe of the index (or of the open batch).  The
        hits are read and parsed in one pass: each frame is one ``pread``
        on a descriptor of the pack opened once per call, at the first
        indexed key, and each record must parse on its own and end at its
        own last byte.  Corrupt or unreadable records count as misses (and
        are recomputed); the cache never raises on bad disk state.
        """
        batch = self._batch or {}
        index = self._index
        if index is None:
            index = self._index = self._merge_on_disk({})
        values: list[Any] = [MISS] * len(jobs)
        hits = 0
        fd: Optional[int] = None
        try:
            for i, jb in enumerate(jobs):
                key = jb.content_hash
                record = batch.get(key)
                if record is None:
                    entry = index.get(key)
                    if entry is None:
                        continue
                    if fd is None:
                        try:
                            fd = os.open(self._pack, os.O_RDONLY)
                        except OSError:
                            fd = -1  # no pack: every pread fails, every key misses
                    record = _read_record(fd, key, entry)
                    if record is None:
                        continue
                try:
                    value, end = _RAW_DECODE(record)
                except (ValueError, RecursionError):
                    continue
                if end == len(record):  # a whole record, nothing after it
                    values[i] = value
                    hits += 1
        finally:
            if fd is not None and fd >= 0:
                os.close(fd)
        self.stats.hits += hits
        self.stats.misses += len(jobs) - hits
        return values

    def store(self, jb: Job, value: Any) -> Any:
        """Persist ``value`` for ``jb``; returns the JSON round-trip of it.

        sort_keys keeps the on-disk byte layout independent of dict
        construction order, so identical payloads are identical records.
        """
        text = json.dumps(value, allow_nan=True, sort_keys=True)
        self.store_text(jb, text)
        return json.loads(text)

    def store_text(self, jb: Job, value_text: str) -> None:
        """Persist a payload already in canonical-JSON text form.

        ``value_text`` must be ``json.dumps(value, allow_nan=True,
        sort_keys=True)`` output — exactly what
        :func:`~repro.experiments.jobs.run_job` returns — and becomes the
        record as it is: the frame's key stamp names the job, so nothing
        is wrapped around the payload.  Nothing is parsed here: the
        executor parses a map's computed texts once, together
        (:func:`parse_all`), so cold runs see exactly the ``json.loads``
        of the record a warm run reads back.
        """
        key = jb.content_hash
        if self._batch is not None:
            self._batch[key] = value_text
        else:
            self._append({key: value_text})
        self.stats.stores += 1

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
