"""The fault-tolerant, throughput-oriented job executor.

:class:`Executor` takes a list of :class:`~repro.experiments.jobs.Job` and
returns :class:`JobResult` objects **in job order**, regardless of
completion order, so a parallel run's tables are byte-identical to a
serial run's.  ``Executor(0)`` runs every job in this process;
``Executor(n)`` has ``n`` worker processes.

The execution pipeline:

1. answer what it can from the (optional) content-addressed cache;
2. deduplicate the remaining jobs by content hash (two figures asking for
   the same simulation point compute it once);
3. run the unique misses — in this process, or across isolated worker
   processes — storing each result into the cache *the moment it
   completes*;
4. fan results out to every position that asked for them.

Because every job is a pure, seeded description, workers need no shared
state: determinism is preserved by construction, and results are keyed by
submission position rather than completion time.  That same purity makes
retries safe — re-running a job can only reproduce the identical payload.

Throughput (one configuration, no modes; jobs execute in submission
order — see ``docs/performance.md`` for the ablation that left these):

* **one in-process loop** — :meth:`Executor._run_here` runs every job
  the coordinator runs itself: all of them with zero workers, the jobs a
  worker would buy nothing for (the inline fast path, which asks a
  :class:`~repro.experiments.costmodel.CostModel`) and a degraded pool's.
* **a worker is a fork of the coordinator and a pipe** — a slot is one
  ``multiprocessing.Process`` in :func:`_worker_main` plus this end of
  one duplex pipe.  A fork has ``repro`` and the scenario registry
  imported already, so a slot (or a crash respawn) costs milliseconds,
  and the coordinator starts no thread: it waits on the busy slots'
  pipes and sentinels.  Slots persist across ``map`` calls until
  :meth:`Executor.close` kills *and joins* them.  Platforms
  without fork run the same code on ``spawn``.
* **a result is text** — :func:`~repro.experiments.jobs.run_job` dumps a
  payload once, to the *canonical JSON text* the cache stores, in a
  worker (which returns ``(value_text, trace_text, pid)``) and in-process
  alike, so the coordinator splices the text into the cache record
  instead of re-serializing a dict, and every ``reduce`` reads a
  ``json.loads`` of that text; with a disk cache the map's records
  flush as batched per-shard pack appends
  (:meth:`~repro.experiments.cache.ResultCache.flush_batch`).

Fault tolerance:

* each slot has **one** job in flight, so one crashed worker (EOF on
  its pipe, or its sentinel, before a reply) takes down exactly that
  job — the worker is respawned (with backoff) and the job retried
  while every other worker keeps computing, and the run log keeps the
  lost worker's exit status (``worker_exit``);
* ordinary exceptions and per-job timeouts (``job_timeout``) are retried
  with exponential backoff while a job's attempt number is at most
  ``max_retries``, in a worker and in this process alike; a stuck worker
  is killed, joined and its slot respawned;
* when the pool is irrecoverable (its rebuild budget, ``workers + 2``
  per map, is spent), the executor **degrades to in-process execution**
  for the remaining jobs rather than failing the run;
* completed results always flow into the cache *before* any failure
  propagates, so no simulation is ever computed twice — a rerun after a
  hard failure answers the salvaged jobs from the cache.  Batched pack
  writes flush before any failure propagates for the same reason.

Observability: :attr:`Executor.last_report` carries full accounting for
the last ``map`` call (retries, failures, timeouts, salvaged results,
pool rebuilds, degradation, per-stage wall-clock, inline count,
load-balance efficiency), and an optional
:class:`~repro.experiments.runlog.RunLog` records one JSONL event per
job (content hash, status, attempts, worker pid, wall time, the exit
status of a worker lost on it) plus a summary per batch.  Deterministic
fault injection for all of the above lives in
:mod:`repro.experiments.faults`.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import sys
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Optional, Sequence, Union

from repro.experiments.cache import MISS, ResultCache
from repro.experiments.costmodel import CostModel
from repro.experiments.faults import FaultSpec
from repro.experiments.jobs import Job, run_job
from repro.experiments.runlog import RunLog

__all__ = [
    "ExecutionError",
    "ExecutionReport",
    "Executor",
    "JobResult",
    "make_executor",
]

#: Default bounded-retry budget for failing (not crashing-pool) jobs.
DEFAULT_MAX_RETRIES = 2
#: Base of the exponential retry backoff, in seconds.
DEFAULT_BACKOFF_S = 0.05
#: Jobs predicted at or under this many wall seconds run inline in the
#: coordinator instead of paying a pool round-trip (~ms each).
INLINE_THRESHOLD_S = 0.01


def _context() -> multiprocessing.context.BaseContext:
    """How a worker starts: ``fork`` where the platform has it — the
    worker is a copy of the coordinator, ``repro`` and the scenario
    registry already imported — else ``spawn``.  Chosen by the platform;
    deliberately not an argument, environment variable or flag."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class JobResult:
    """One job's outcome: the job, its JSON-native payload, provenance."""

    job: Job
    value: Any
    cached: bool = False


@dataclass
class ExecutionReport:
    """Accounting for one ``map`` call (surfaced by the CLI and run log)."""

    jobs: int = 0
    computed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    # -- scheduling ---------------------------------------------------------
    inlined: int = 0  # jobs run on the coordinator's inline fast path
    load_balance: float = 1.0  # max slot busy time / mean (1.0 = perfect)
    # -- fault tolerance ----------------------------------------------------
    retries: int = 0  # re-executions after an error/crash/timeout
    failures: int = 0  # jobs that exhausted their retry budget
    timeouts: int = 0  # per-job timeouts that fired
    salvaged: int = 0  # results completed+cached before a failure/degrade
    pool_rebuilds: int = 0  # worker pools rebuilt after a crash/stall
    degraded: bool = False  # fell back to in-process serial execution
    # -- per-stage wall-clock, seconds --------------------------------------
    lookup_s: float = 0.0  # stage 1: cache lookups
    execute_s: float = 0.0  # stage 2/3: compute + store
    store_s: float = 0.0  # portion of execute_s spent persisting results
    startup_s: float = 0.0  # building / reviving worker pools
    dispatch_s: float = 0.0  # cost prediction + inline/pool partition
    transport_s: float = 0.0  # decoding result text when no cache does it
    compute_s: float = 0.0  # sum of successful attempts' wall seconds

    def as_dict(self) -> dict:
        """Every field, in declaration order; seconds and ratios rounded."""
        return {
            name: round(value, 6) if isinstance(value, float) else value
            for name, value in dataclasses.asdict(self).items()
        }


class ExecutionError(RuntimeError):
    """A job exhausted its retry budget; completed results were salvaged.

    By the time this propagates, every result that *did* complete has
    already been stored into the cache (see ``ExecutionReport.salvaged``),
    so a rerun never recomputes them.
    """

    def __init__(self, message: str, *, job: Optional[Job] = None, attempts: int = 0):
        super().__init__(message)
        self.job = job
        self.attempts = attempts


def _pool_run(
    jb: Job, position: int, attempt: int, fault_text: Optional[str]
) -> tuple[str, Optional[str], int]:
    """Worker-side entry point: ``run_job``'s pair plus the worker pid.

    Fault injection (:mod:`repro.experiments.faults`) is bound here —
    inside the worker process — so a ``crash`` fault can only ever kill a
    worker, never the coordinating process.
    """
    spec = FaultSpec.parse(fault_text)
    fault = spec.bind(position, attempt) if spec is not None else None
    return (*run_job(jb, fault), os.getpid())


def _worker_main(conn: Connection, inherited: Sequence[Connection]) -> None:
    """A worker's whole life: answer ``(job, position, attempt,
    fault_text)`` requests with ``(ok, reply)`` until ``conn`` closes.

    ``inherited`` is what a fork copied that is not this worker's — the
    coordinator's ends of the slots' pipes, its own included — closed
    first, so EOF on a pipe means its other end is gone and a coordinator
    that dies takes its workers with it.  A fork also copies the cache
    batch and the run-log handle: a worker touches neither, and leaves
    through ``Process``'s own exit, which runs no inherited ``atexit``.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return  # the coordinator closed its end, or is gone
        try:
            reply = (True, _pool_run(*request))
        except Exception as exc:  # simlint: disable=E001(the coordinator receives the exception and retries within its budget)
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:
            return  # nobody is listening any more
        except Exception:  # simlint: disable=E001(an exception that does not pickle travels as its repr and stays an ordinary retry, not a crash)
            conn.send((False, RuntimeError(repr(reply[1]))))


class _Slot:
    """One isolated worker: a process, the coordinator's end of its pipe
    and the one job it has in flight.

    One job per worker is what makes failure attribution exact: a dead
    process loses exactly the job it was running, and every other worker
    keeps its work.  Slots outlive individual ``map`` calls; ``busy_s``
    accumulates the wall time this slot spent on successful harvests
    within the current map, feeding the load-balance efficiency metric.
    """

    __slots__ = ("proc", "conn", "item", "started", "busy_s")

    def __init__(self) -> None:
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[Connection] = None
        self.item: Optional[tuple[int, Job, int]] = None  # (pos, job, attempt)
        self.started = 0.0
        self.busy_s = 0.0

    @property
    def alive(self) -> bool:
        return self.proc is not None


class Executor:
    """Caching, dedup, ordering, retries and telemetry around ``run_job``.

    ``workers=0`` runs every job in this process; ``workers >= 1`` keeps
    that many isolated worker processes, one job each at a time.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        job_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        backoff_s: Optional[float] = None,
        run_log: Union[RunLog, str, os.PathLike, None] = None,
        fault: Optional[str] = None,
        cost_model: Optional[CostModel] = None,
    ):
        self._slots: list[_Slot] = []
        self._owned_log: Optional[RunLog] = None
        if workers < 0:
            raise ValueError(f"need zero or more workers, got {workers}")
        self.workers = workers
        # ``not > 0`` rather than ``<= 0``: NaN would never fire, and a
        # zero or negative timeout expires every job as it is submitted.
        if job_timeout is not None and not job_timeout > 0:
            raise ValueError(f"job_timeout must be > 0 seconds, got {job_timeout}")
        self.job_timeout = job_timeout
        self.max_retries = max_retries if max_retries is not None else DEFAULT_MAX_RETRIES
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        self.backoff_s = backoff_s if backoff_s is not None else DEFAULT_BACKOFF_S
        fault_text = fault if fault is not None else os.environ.get("REPRO_FAULT_SPEC")
        FaultSpec.parse(fault_text)  # validate eagerly: fail fast on typos
        self._fault_text = (fault_text or "").strip() or None
        self.cost_model = cost_model if cost_model is not None else CostModel()
        if run_log is None:
            run_log = os.environ.get("REPRO_RUN_LOG", "").strip() or None
        if run_log is not None and not isinstance(run_log, RunLog):
            # Built here from a path, so closed here too: see close().
            run_log = self._owned_log = RunLog(run_log)
        self.run_log = run_log
        #: Accounting for the last ``map``; readable before the first one.
        self.last_report = ExecutionReport()
        # Per-map scratch: results so far (read by degrade/salvage) and,
        # by position, the exit status of the last worker lost on a job.
        self._completed_count = 0
        self._worker_exits: dict[int, Optional[int]] = {}
        self._rebuilds_used = 0

    # -- the pipeline -------------------------------------------------------

    def map(
        self, jobs: Sequence[Job], cache: Optional[ResultCache] = None
    ) -> list[JobResult]:
        """Execute ``jobs``; results come back in submission order."""
        jobs = list(jobs)
        report = self.last_report = ExecutionReport(jobs=len(jobs))
        self._completed_count = 0
        self._worker_exits = {}
        values: list[Any] = [MISS] * len(jobs)
        cached = [False] * len(jobs)

        # Stage 1: cache lookups, in submission order.  A traced job only
        # accepts a hit when its trace artifact exists too — a cached
        # result without a trace is recomputed (and re-stored, this time
        # with the trace beside it).
        lookup_started = time.monotonic()
        pending: dict[str, list[int]] = {}
        for i, jb in enumerate(jobs):
            if cache is not None and (not jb.trace or cache.has_trace(jb)):
                hit = cache.lookup(jb)
                if hit is not MISS:
                    values[i] = hit
                    cached[i] = True
                    report.cache_hits += 1
                    self._log_job(jb, status="cached", attempts=0)
                    continue
            pending.setdefault(jb.content_hash, []).append(i)
        report.lookup_s = time.monotonic() - lookup_started

        # Stage 2: dedup identical misses, run each unique job once.
        unique = [(digest, jobs[where[0]]) for digest, where in pending.items()]
        report.deduplicated = sum(len(where) - 1 for where in pending.values())
        report.computed = len(unique)
        outcomes: dict[int, Any] = {}

        def complete(
            pos: int,
            value_text: str,
            trace_text: Optional[str],
            *,
            attempts: int,
            worker_pid: Optional[int],
            wall_s: float,
            degraded: bool = False,
        ) -> None:
            # ``run_job``'s pair, from a worker or from this process.
            # Store immediately — salvage: a later failure cannot discard
            # this result, and a rerun will answer it from the cache.  The
            # value text is spliced straight into the cache record.
            _, jb = unique[pos]
            trace_path: Optional[str] = None
            if cache is not None:
                store_started = time.monotonic()
                value = cache.store_text(jb, value_text)
                if trace_text is not None:
                    cache.store_trace(jb, trace_text)
                    trace_path = str(cache.trace_path(jb))
                report.store_s += time.monotonic() - store_started
            else:
                transport_started = time.monotonic()
                value = json.loads(value_text)
                report.transport_s += time.monotonic() - transport_started
            outcomes[pos] = value
            self._completed_count = len(outcomes)
            report.compute_s += wall_s
            self.cost_model.observe(jb, wall_s)
            self._log_job(
                jb,
                status="computed",
                attempts=attempts,
                worker_pid=worker_pid,
                wall_s=wall_s,
                retried=attempts > 1,
                degraded=degraded,
                trace_path=trace_path,
                worker_exit=self._worker_exits.get(pos),
            )

        if cache is not None:
            cache.begin_batch()
        execute_started = time.monotonic()
        try:
            self._execute([jb for _, jb in unique], complete)
        except Exception:  # simlint: disable=E001(salvage accounting only; the failure is re-raised untouched)
            report.salvaged = len(outcomes)
            raise
        finally:
            if cache is not None:
                # Flush *before* any failure propagates: salvage means the
                # packed records of everything that completed are durable.
                flush_started = time.monotonic()
                try:
                    cache.flush_batch()
                except OSError as exc:
                    print(
                        f"repro: batched cache flush failed: {exc!r}",
                        file=sys.stderr,
                    )
                report.store_s += time.monotonic() - flush_started
            report.execute_s = time.monotonic() - execute_started
            self._log_map(report)

        # Stage 3: fan out, preserving submission order.
        for pos, (digest, jb) in enumerate(unique):
            value = outcomes[pos]
            where = pending[digest]
            for i in where:
                values[i] = value
            for i in where[1:]:
                self._log_job(jobs[i], status="deduplicated", attempts=0)
        return [
            JobResult(job=jb, value=value, cached=was_cached)
            for jb, value, was_cached in zip(jobs, values, cached)
        ]

    def _execute(self, jobs: Sequence[Job], complete: Callable) -> None:
        """Run the deduplicated batch, calling ``complete(pos, value_text,
        trace_text, ...)`` for each job as it finishes.

        A job runs here when there are no workers, or when nothing needs
        a worker's isolation (no fault to inject, no timeout to enforce —
        an injected crash must kill a worker, never the coordinator) and
        a worker would buy nothing: one worker, one job, or a job the cost
        model predicts cheaper than a pool round-trip (the inline path).
        """
        report = self.last_report
        plain = self._fault_text is None and self.job_timeout is None
        dispatch_started = time.monotonic()
        every = self.workers == 0 or plain and (self.workers == 1 or len(jobs) == 1)
        here: deque[tuple[int, Job, int]] = deque()
        pooled: deque[tuple[int, Job, int]] = deque()
        for pos, jb in enumerate(jobs):
            inline = every or plain and self.cost_model.predict(jb) <= INLINE_THRESHOLD_S
            (here if inline else pooled).append((pos, jb, 1))
        if self.workers:
            report.dispatch_s += time.monotonic() - dispatch_started
            report.inlined += len(here)
        self._run_here(here, complete)
        if pooled:
            self._run_pool(pooled, complete)

    def _run_here(
        self, queue: deque, complete: Callable, *, degraded: bool = False
    ) -> None:
        """The one in-process loop: run ``(pos, job, attempt)`` items from
        ``queue`` until it is empty, retrying through :meth:`_retry_or_fail`.

        Fault injection never applies here (a ``crash`` fault must not be
        able to kill the coordinating process), so this is also where the
        jobs of an irrecoverable pool finish.
        """
        while queue:
            pos, jb, attempt = queue.popleft()
            started = time.monotonic()
            try:
                value_text, trace_text = run_job(jb)
            except Exception as exc:  # simlint: disable=E001(bounded retry; exhausting the budget raises ExecutionError from exc)
                self._retry_or_fail(queue, pos, jb, attempt, exc, degraded=degraded)
                continue
            complete(
                pos,
                value_text,
                trace_text,
                attempts=attempt,
                worker_pid=os.getpid(),
                wall_s=time.monotonic() - started,
                degraded=degraded,
            )

    def _retry_or_fail(
        self, queue: deque, pos: int, jb: Job, attempt: int, exc: BaseException, **flags
    ) -> None:
        """Requeue a failed attempt while ``attempt <= max_retries``, after
        exponential backoff; past that, fail the job."""
        if attempt <= self.max_retries:
            self.last_report.retries += 1
            time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            queue.append((pos, jb, attempt + 1))
            return
        self._fail(pos, jb, attempt, exc, **flags)

    def _fail(
        self, pos: int, jb: Job, attempt: int, exc: BaseException, **flags: bool
    ) -> None:
        """A job is out of retries: count it, log it (``flags`` are
        ``degraded`` / ``timed_out``) and raise, naming a lost worker."""
        worker_exit = self._worker_exits.get(pos)
        self.last_report.failures += 1
        self._log_job(
            jb,
            status="failed",
            attempts=attempt,
            error=repr(exc),
            worker_exit=worker_exit,
            **flags,
        )
        lost = "" if worker_exit is None else f" (lost a worker, exit {worker_exit})"
        raise ExecutionError(
            f"job {jb!r} failed after {attempt} attempt(s){lost}: {exc!r}",
            job=jb,
            attempts=attempt,
        ) from exc

    def _degrade(self, queue: deque, complete: Callable) -> None:
        """Pool irrecoverable: finish the remaining jobs in-process, each
        keeping the attempt count the pool gave it.

        Results completed by the pool before degradation are counted as
        salvaged — they are already in the cache and are not recomputed.
        """
        self.last_report.degraded = True
        self.last_report.salvaged = self._completed_count
        self._run_here(queue, complete, degraded=True)

    # -- pool plumbing ------------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        """Start ``slot``'s worker.  Where the host refuses (no pids, no
        descriptors) the slot stays dead and the scheduler degrades."""
        ctx = _context()
        try:
            ours, theirs = ctx.Pipe()
            # What a fork copies and the worker must close: see _worker_main.
            forked = ctx.get_start_method() == "fork"
            inherited = [s.conn for s in self._slots if s.alive] + [ours]
            proc = ctx.Process(
                target=_worker_main,
                args=(theirs, inherited if forked else []),
                daemon=True,
            )
            proc.start()
        except OSError:
            return
        theirs.close()
        slot.proc, slot.conn = proc, ours

    def _reap(self, slot: _Slot, *, kill: bool) -> Optional[int]:
        """Close ``slot``'s pipe and collect its worker (a kill is always
        followed by a join: nothing stays unreaped); returns its exit
        status.  ``kill=False``: it is dying already, let its status stand."""
        proc, conn = slot.proc, slot.conn
        slot.proc = slot.conn = None
        conn.close()
        if not kill:
            proc.join(1.0)
        if proc.exitcode is None:
            proc.kill()
        proc.join()
        return proc.exitcode

    def _ensure_slots(self, count: int) -> list[_Slot]:
        """The first ``count`` slots, started or revived, reset for one map.

        Live workers are reused across maps; dead or missing ones are
        started (a fork: milliseconds) without charging the per-map
        rebuild budget — that budget meters *crash* recovery, not startup.
        """
        while len(self._slots) < count:
            self._slots.append(_Slot())
        slots = self._slots[:count]
        for slot in slots:
            slot.busy_s = 0.0
            if not slot.alive:
                self._spawn(slot)
        return slots

    def _respawn_or_retire(self, slot: _Slot, *, kill: bool) -> Optional[int]:
        """Collect a slot's dead or stuck worker and, within the map's
        budget of ``workers + 2`` rebuilds, start another; returns the old
        worker's exit status."""
        worker_exit = self._reap(slot, kill=kill)
        if self._rebuilds_used < self.workers + 2:
            self._rebuilds_used += 1
            self.last_report.pool_rebuilds += 1
            time.sleep(self.backoff_s)
            self._spawn(slot)
        return worker_exit

    def close(self) -> None:
        """Kill and join every held worker, and close a run log this
        executor opened from a path (idempotent).  A :class:`RunLog`
        passed in stays open for its owner."""
        slots, self._slots = self._slots, []
        for slot in slots:
            if slot.alive:
                self._reap(slot, kill=True)
        if self._owned_log is not None:
            self._owned_log.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        # Workers outlive maps by design; don't leak them (or an opened
        # run log) when the executor itself is garbage-collected.
        self.close()

    # -- the scheduler loop -------------------------------------------------

    def _run_pool(self, queue: deque, complete: Callable) -> None:
        report = self.last_report
        self._rebuilds_used = 0
        startup_started = time.monotonic()
        slots = self._ensure_slots(min(self.workers, len(queue)))
        report.startup_s += time.monotonic() - startup_started
        try:
            while queue or any(slot.item is not None for slot in slots):
                for slot in slots:
                    if slot.alive and slot.item is None and queue:
                        self._submit(slot, queue)
                busy = [slot for slot in slots if slot.item is not None]
                if not busy:
                    if queue and not any(slot.alive for slot in slots):
                        # Pool irrecoverable: degrade to in-process.
                        self._degrade(queue, complete)
                        return
                    continue  # a submit just failed; loop re-fills
                timeout = None
                if self.job_timeout is not None:
                    deadline = min(slot.started for slot in busy) + self.job_timeout
                    timeout = max(0.0, deadline - time.monotonic())
                # A reply makes a pipe readable; so does EOF, which — like
                # a fired sentinel — before a reply *is* the crash.
                ready = wait(
                    [w for slot in busy for w in (slot.conn, slot.proc.sentinel)],
                    timeout,
                )
                now = time.monotonic()
                # Harvest in slot order (not set order), and harvest the
                # *whole* done batch before letting a terminal failure
                # propagate: results that completed alongside the failure
                # are salvaged into the cache, not dropped.
                error: Optional[ExecutionError] = None
                for slot in busy:
                    if slot.conn not in ready and slot.proc.sentinel not in ready:
                        continue
                    try:
                        self._harvest(slot, queue, complete, now)
                    except ExecutionError as exc:
                        if error is None:
                            error = exc
                if error is not None:
                    self._drain(slots, complete)
                    raise error
                if self.job_timeout is not None:
                    for slot in busy:
                        if (
                            slot.item is not None
                            and now - slot.started >= self.job_timeout
                            and not slot.conn.poll()
                        ):
                            self._expire(slot, queue)
        finally:
            for slot in slots:
                if slot.item is not None:
                    # Left mid-job by a failure or an interrupt: its late
                    # reply must not answer a later map's request.
                    slot.item = None
                    self._reap(slot, kill=True)
            busy_times = [slot.busy_s for slot in slots]
            if any(busy_times):
                mean = sum(busy_times) / len(busy_times)
                report.load_balance = max(busy_times) / mean

    def _submit(self, slot: _Slot, queue: deque) -> None:
        pos, jb, attempt = queue.popleft()
        try:
            slot.conn.send((jb, pos, attempt, self._fault_text))
        except OSError:
            # The worker died idle, between harvest and submit: put the
            # job back untouched (it never ran) and respawn or retire.
            queue.appendleft((pos, jb, attempt))
            self._respawn_or_retire(slot, kill=False)
            return
        slot.item = (pos, jb, attempt)
        slot.started = time.monotonic()

    def _receive(self, slot: _Slot) -> Optional[tuple[bool, Any]]:
        """The ``(ok, reply)`` waiting on ``slot``'s pipe, or ``None`` when
        there is nothing to read but EOF: the worker died under its job."""
        try:
            if slot.conn.poll():
                return slot.conn.recv()
        except (EOFError, OSError):
            pass
        except Exception as exc:  # simlint: disable=E001(a reply that does not unpickle enters the bounded retry path like any worker exception)
            return False, exc
        return None

    def _harvest(
        self, slot: _Slot, queue: deque, complete: Callable, now: float
    ) -> None:
        pos, jb, attempt = slot.item
        answer = self._receive(slot)
        if answer is not None and answer[0]:
            self._deliver(slot, answer[1], now, complete)
            return
        slot.item = None
        if answer is None:
            # Exactly this slot's job was lost; respawn the worker (within
            # budget) and retry the job.  Crash retries are bounded by the
            # rebuild budget, not max_retries: when the budget runs out
            # every slot dies and the scheduler degrades to serial.
            self.last_report.retries += 1
            queue.appendleft((pos, jb, attempt + 1))
            self._worker_exits[pos] = self._respawn_or_retire(slot, kill=False)
        else:
            self._retry_or_fail(queue, pos, jb, attempt, answer[1])

    def _deliver(
        self, slot: _Slot, reply: tuple, now: float, complete: Callable
    ) -> None:
        """``slot``'s job succeeded: free the slot, complete the job."""
        pos, _, attempt = slot.item
        slot.item = None
        value_text, trace_text, worker_pid = reply
        wall_s = now - slot.started
        slot.busy_s += wall_s
        complete(
            pos,
            value_text,
            trace_text,
            attempts=attempt,
            worker_pid=worker_pid,
            wall_s=wall_s,
        )

    def _drain(self, slots: Sequence[_Slot], complete: Callable) -> None:
        """A terminal failure is about to propagate: give in-flight
        workers a bounded moment to finish, and salvage what they return.

        Without this, a job that completed (or was about to) on another
        slot in the same scheduler tick as the fatal failure would be
        discarded — and recomputed on the next run — purely by race.
        Worker errors here are ignored: the primary failure already owns
        the traceback (``_execute`` kills whatever is still busy after).
        """
        busy = [slot for slot in slots if slot.item is not None]
        waiting = [slot.conn for slot in busy]
        deadline = time.monotonic() + (
            self.job_timeout if self.job_timeout is not None else 5.0
        )
        while waiting:
            ready = wait(waiting, max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            waiting = [conn for conn in waiting if conn not in ready]
        now = time.monotonic()
        for slot in busy:
            answer = None if slot.conn in waiting else self._receive(slot)
            if answer is not None and answer[0]:
                self._deliver(slot, answer[1], now, complete)

    def _expire(self, slot: _Slot, queue: deque) -> None:
        """A job outlived ``job_timeout``: kill its worker, retry or fail."""
        pos, jb, attempt = slot.item
        slot.item = None
        self.last_report.timeouts += 1
        self._worker_exits[pos] = self._respawn_or_retire(slot, kill=True)
        exc = TimeoutError(f"job exceeded --job-timeout={self.job_timeout}s")
        self._retry_or_fail(queue, pos, jb, attempt, exc, timed_out=True)

    # -- telemetry ----------------------------------------------------------

    def _log_job(
        self,
        jb: Job,
        *,
        status: str,
        attempts: int,
        worker_pid: Optional[int] = None,
        wall_s: float = 0.0,
        retried: bool = False,
        degraded: bool = False,
        timed_out: bool = False,
        **optional: Any,
    ) -> None:
        """One ``job`` record; an ``optional`` field (``error``,
        ``trace_path``, ``worker_exit``) is written only when it is set."""
        if self.run_log is None:
            return
        record = {
            "event": "job",
            "figure": jb.figure,
            "index": jb.index,
            "hash": jb.content_hash,
            "status": status,
            "attempts": attempts,
            "retried": retried,
            "timed_out": timed_out,
            "degraded": degraded,
            "worker_pid": worker_pid,
            "wall_s": round(wall_s, 6),
        }
        record.update((k, v) for k, v in optional.items() if v is not None)
        self.run_log.record(**record)

    def _log_map(self, report: ExecutionReport) -> None:
        if self.run_log is not None:
            self.run_log.record(event="map", workers=self.workers, **report.as_dict())


def make_executor(
    parallel: int = 0,
    *,
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    backoff_s: Optional[float] = None,
    run_log: Union[RunLog, str, os.PathLike, None] = None,
    fault: Optional[str] = None,
    cost_model: Optional[CostModel] = None,
) -> Executor:
    """``parallel`` 0 or 1 runs in this process, more across that many workers.

    ``run_log`` and ``fault`` default from the environment
    (``REPRO_RUN_LOG``, ``REPRO_FAULT_SPEC``) so the benchmark harness and
    CI smoke jobs can configure telemetry and fault injection without
    touching call sites.
    """
    if parallel < 0:
        raise ValueError(f"parallel must be >= 0 workers, got {parallel}")
    return Executor(
        parallel if parallel > 1 else 0,
        job_timeout=job_timeout,
        max_retries=max_retries,
        backoff_s=backoff_s,
        run_log=run_log,
        fault=fault,
        cost_model=cost_model,
    )
