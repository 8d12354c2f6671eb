"""Content-addressed on-disk cache for experiment job results.

Every :class:`~repro.experiments.jobs.Job` has a stable content hash over
its full declarative description.  The cache keys canonical-JSON result
records by ``sha256(job_hash : salt)`` where the salt folds in the
library version and the job-schema version, so a code upgrade (or an
explicit salt override) invalidates every stale entry without deleting
anything.

With a warm cache, re-running ``python -m repro run all`` performs zero
simulations: every job is answered from disk and only the (cheap) reduce
stage runs.  Hit/miss/store accounting is kept on :attr:`ResultCache.stats`
and surfaced by the CLI.

There is one layout on disk.  Key ``ab…`` belongs to shard ``ab``, and
every record of a shard is a *frame* in the shard's pack
``root/ab/ab.pack``::

    key (32 raw bytes) | record length (<I) | canonical record (UTF-8 JSON)

``root/ab/ab.pack.idx`` — ``{"entries": {key: [frame offset, record
length]}, "version": 2}``, replaced atomically — says where each frame
starts.  A lookup is one probe of that index (read once per shard per
instance) and one ``pread`` of the frame; a frame that is short, is
stamped with another key or holds a record that does not parse is a
miss, recomputed and re-stored like any other.  An index of another
version reads as empty, so an older cache is one miss per entry.

A flush — :meth:`ResultCache.flush_batch`, or a store outside a batch —
is one ``O_APPEND`` write per shard, frames sorted by key so the pack
bytes do not depend on job completion order.  Each frame's offset is
where that write actually landed, and the new entries are merged into
the index as it is on disk at that moment.  Processes sharing a cache
directory therefore never read each other's payloads; an entry lost to a
simultaneous index replace is a miss.  Bytes no index references (a
flush killed between its write and its index) are inert: the next flush
appends after them.  So is every other file in a shard — ``*.tmp`` left
by an interrupted write, a ``<key>.json`` of an older layout — because
nothing ever reads it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
import tempfile
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro import __version__
from repro.experiments.jobs import JOBS_SCHEMA_VERSION, Job
from repro.telemetry.trace import parse_header

__all__ = ["CacheStats", "ResultCache", "default_cache_dir", "default_salt"]

#: Sentinel distinguishing "no entry" from a cached ``None`` payload.
MISS = object()

#: A frame's head: the key's 32 raw bytes, then the record's byte count.
_FRAME_HEAD = struct.Struct("<32sI")

#: Pack index format version.
_INDEX_VERSION = 2

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


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so readers see the old or the new file.

    The text goes to a ``<name>*.tmp`` sibling first and is renamed over
    ``path``; a failed write removes its tmp file before re-raising, and
    a killed process leaves only inert ``*.tmp`` litter — never a torn
    file.  The folder must exist.
    """
    folder, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(dir=folder, prefix=name, suffix=".tmp")
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
    """Content-addressed store of JSON job payloads under ``root``, as
    frames of per-shard packs (see the module docstring for the layout
    and what concurrent runs may see).
    """

    def __init__(self, root: Union[str, os.PathLike], salt: Optional[str] = None):
        self.root = pathlib.Path(root)
        #: ``root`` as a plain string: the per-job paths are built from it.
        self._dir = str(self.root)
        self.salt = salt if salt is not None else default_salt()
        self.stats = CacheStats()
        #: Active batch buffer (key -> record text), or None outside a batch.
        self._batch: Optional[dict[str, str]] = None
        #: Pack indexes read so far, one dict (key -> [frame offset,
        #: record length]) per shard; ``{}`` for a shard with no index.
        self._indexes: dict[str, dict[str, list]] = {}

    # -- keys and paths -----------------------------------------------------

    def key(self, jb: Job) -> str:
        """Cache key: job content hash + code-version salt."""
        return hashlib.sha256(
            f"{jb.content_hash}:{self.salt}".encode("utf-8")
        ).hexdigest()

    def _file(self, shard: str, name: str) -> str:
        return f"{self._dir}/{shard}/{name}"

    def _trace_file(self, key: str) -> str:
        return self._file(key[:2], key + _TRACE_SUFFIX)

    def trace_path(self, jb: Job) -> pathlib.Path:
        """Where ``jb``'s trace artifact lives on disk."""
        return pathlib.Path(self._trace_file(self.key(jb)))

    # -- lookup / store -----------------------------------------------------

    def lookup(self, jb: Job) -> Any:
        """The cached payload for ``jb``, or :data:`MISS`.

        Corrupt or unreadable entries count as misses (and are
        recomputed); the cache never raises on bad disk state.
        """
        record = self._record(self.key(jb))
        if record is not None:
            try:
                value = json.loads(record)["value"]
            except (ValueError, KeyError, TypeError):
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
        shard = key[:2]
        index = self._indexes.get(shard)
        if index is None:
            index = self._indexes[shard] = self._read_index(shard)
        entry = index.get(key)
        if entry is None:
            return None
        try:
            offset, length = entry
            head = _FRAME_HEAD.pack(bytes.fromhex(key), length)
            fd = os.open(self._file(shard, shard + ".pack"), os.O_RDONLY)
            try:
                frame = os.pread(fd, _FRAME_HEAD.size + length, offset)
            finally:
                os.close(fd)
        except (OSError, ValueError, TypeError, struct.error):
            return None  # no pack, or an entry that is not [offset, length]
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
        key = self.key(jb)
        if self._batch is not None:
            self._batch[key] = text
        else:
            self._append(key[:2], [(key, text)])
        self.stats.stores += 1
        return json.loads(value_text)

    # -- batched stores and the pack files ----------------------------------
    #
    # One executor map produces many small records at once.  Batching
    # buffers them and flushes each shard's records as one append to its
    # pack plus one index replace, instead of one write per record.

    def begin_batch(self) -> None:
        """Start buffering stores; a re-entrant call keeps the buffer."""
        if self._batch is None:
            self._batch = {}

    def flush_batch(self) -> int:
        """Write buffered records to their shards' packs; returns the count."""
        batch, self._batch = self._batch, None
        if not batch:
            return 0
        by_shard: dict[str, list[tuple[str, str]]] = {}
        for key in sorted(batch):
            by_shard.setdefault(key[:2], []).append((key, batch[key]))
        for shard, records in by_shard.items():
            self._append(shard, records)
        return len(batch)

    def _append(self, shard: str, records: list[tuple[str, str]]) -> None:
        """Append key-sorted ``records`` to the shard's pack in one
        ``O_APPEND`` write, then index the frames that landed whole."""
        frames: list[bytes] = []
        spans: list[tuple[str, int, int]] = []  # key, offset in the write, length
        size = 0
        for key, text in records:
            record = text.encode("utf-8")
            frames += (_FRAME_HEAD.pack(bytes.fromhex(key), len(record)), record)
            spans.append((key, size, len(record)))
            size += _FRAME_HEAD.size + len(record)
        os.makedirs(f"{self._dir}/{shard}", exist_ok=True)
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        fd = os.open(self._file(shard, shard + ".pack"), flags, 0o666)
        try:
            written = os.write(fd, b"".join(frames))
            # Where the write landed: another process may have appended
            # between this one's open and its write.
            start = os.lseek(fd, 0, os.SEEK_CUR) - written
        finally:
            os.close(fd)
        index = self._read_index(shard)
        for key, offset, length in spans:
            if offset + _FRAME_HEAD.size + length <= written:
                index[key] = [start + offset, length]
        text = json.dumps({"version": _INDEX_VERSION, "entries": index}, sort_keys=True)
        _atomic_write_text(self._file(shard, shard + ".pack.idx"), text)
        self._indexes[shard] = index

    def _read_index(self, shard: str) -> dict[str, list]:
        """The shard's index as it is on disk now: ``{}`` when it is
        missing, unreadable or of another version."""
        try:
            with open(self._file(shard, shard + ".pack.idx"), "rb") as handle:
                doc = json.loads(handle.read())
            if doc["version"] == _INDEX_VERSION:
                return dict(doc["entries"])
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return {}

    # -- trace artifacts ----------------------------------------------------
    #
    # A trace is the raw telemetry (JSONL, see repro.telemetry.trace) the
    # simulation emitted while computing a result.  It is stored *beside*
    # the shard's pack — same shard, the key plus ``.trace.jsonl`` — and
    # never read by lookup(), so trace artifacts cannot perturb results.
    #
    # Only a trace TraceReader can load counts as stored: a file whose
    # header declares another schema (left by an older version under the
    # same salt) is absent to has_trace()/load_trace(), so the next traced
    # run re-records over it and no second reader is kept for it.

    def store_trace(self, jb: Job, text: str) -> None:
        """Persist the JSONL trace for ``jb`` next to its result record."""
        key = self.key(jb)
        os.makedirs(f"{self._dir}/{key[:2]}", exist_ok=True)
        _atomic_write_text(self._trace_file(key), text)

    def load_trace(self, jb: Job) -> Optional[str]:
        """The stored current-schema JSONL trace for ``jb``, or None."""
        try:
            with open(self._trace_file(self.key(jb)), encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, ValueError):  # unreadable or not text
            return None
        # The header is the first line; slicing it off copies no samples.
        return text if _is_current_trace(text[: text.find("\n") + 1]) else None

    def has_trace(self, jb: Job) -> bool:
        """True when a current-schema trace artifact exists for ``jb``."""
        try:
            with open(self._trace_file(self.key(jb)), encoding="utf-8") as handle:
                return _is_current_trace(handle.readline())
        except (OSError, ValueError):
            return False

    # -- counting -----------------------------------------------------------

    def __len__(self) -> int:
        """Number of indexed entries; litter is never counted."""
        try:
            with os.scandir(self._dir) as entries:
                shards = [e.name for e in entries if len(e.name) == 2 and e.is_dir()]
        except OSError:  # no root yet
            return 0
        return sum(len(self._read_index(shard)) for shard in shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultCache {self._dir} [{self.stats}]>"
