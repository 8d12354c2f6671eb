"""Command-line interface: regenerate paper figures from the shell.

Usage::

    python -m repro list
    python -m repro run fig05                 # fast scale, print the table
    python -m repro run fig05 --scale paper   # the paper's parameters
    python -m repro run all --out results/    # everything, as results/<module>.txt
    python -m repro run fig04 --chart         # ASCII rendering of the shape
    python -m repro run all --parallel 4      # fan jobs out over 4 processes
    python -m repro run all --no-cache        # force fresh simulations
    python -m repro run all --cache-dir /tmp/repro-cache
    python -m repro run all --run-log run.jsonl --job-timeout 600
    python -m repro run fig04 --trace         # also record telemetry traces
    python -m repro trace fig04               # stored traces: channels, samples, bytes
    python -m repro trace fig04 --job 0       # channels of one job's trace
    python -m repro trace fig04 --replay      # recompute the table from traces
    python -m repro profile fig04 --top 15    # cProfile hot-function report

``run --trace`` records every probe channel (queue arrivals/drops/marks,
per-flow delivered bytes, cwnd, sending rates...) while simulating and
stores the JSONL trace beside each cached result.  ``trace --replay``
then rebuilds the figure's table from those traces alone — no
simulation — and prints it byte-identically, which is how CI proves the
telemetry stream carries everything the figures need
(see ``docs/telemetry.md``).

Results are cached on disk (``~/.cache/repro`` by default, see
``--cache-dir``) keyed by the content hash of each job plus a
code-version salt, so a warm second run replays from the cache without
simulating anything.  Parallel runs produce byte-identical tables to
serial runs: every job carries its own seed and results are re-ordered
by job index before reduction.

Parallel runs are fault-tolerant: a crashed worker loses only the job it
was running (retried on a respawned worker), stuck jobs can be bounded
with ``--job-timeout``, failing jobs retry up to ``--max-retries`` times,
and completed results always reach the cache before any failure
propagates.  ``--run-log PATH`` appends one JSONL provenance record per
job (content hash, attempts, worker pid, wall time, ``worker_exit`` — the
exit status of a worker lost on it) plus a summary per figure — see
``docs/experiments.md``.

Jobs run in submission order; on a parallel run those cheaper than a
pool round-trip run inline in the coordinator, each worker is a fork of
the coordinator at the end of a pipe, and results travel as
canonical-JSON text.  None of this can change a table — only how fast
it appears; see ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Optional, Sequence

from repro.experiments import ALL_FIGURES, EXTENSIONS, TRACE_NEEDS_CACHE
from repro.experiments import run_figure, table_filename
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.executor import JobResult, make_executor
from repro.experiments.runner import Table
from repro.viz import line_chart

__all__ = ["main"]


def _figure_chart(name: str, table: Table) -> Optional[str]:
    """Best-effort ASCII chart for a figure's table, if it is chartable."""
    columns = table.columns
    # Tables shaped (group, x, y): one series per group.
    if len(columns) == 3:
        group_col, x_col, y_col = columns
        series: dict[str, list[tuple[float, float]]] = {}
        for group, x, y in table.rows:
            try:
                series.setdefault(str(group), []).append((float(x), float(y)))
            except (TypeError, ValueError):
                return None
        try:
            return line_chart(series, title=table.title, log_x=all(
                x > 0 for pts in series.values() for x, _ in pts
            ))
        except ValueError:
            return None
    # Tables shaped (x, y...): one series per y column.
    try:
        xs = [float(x) for x in table.column(columns[0])]
    except (TypeError, ValueError):
        return None
    series = {}
    for y_col in columns[1:]:
        pts = []
        for x, y in zip(xs, table.column(y_col)):
            try:
                pts.append((x, float(y)))
            except (TypeError, ValueError):
                return None
        series[y_col] = pts
    try:
        return line_chart(series, title=table.title)
    except ValueError:
        return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Dynamic Behavior of "
        "Slowly-Responsive Congestion Control Algorithms' (SIGCOMM 2001).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the available figures")
    run_parser = sub.add_parser("run", help="run one figure (or 'all')")
    run_parser.add_argument("figure", help="figure name (e.g. fig05) or 'all'")
    run_parser.add_argument(
        "--scale",
        choices=("fast", "paper"),
        default="fast",
        help="scenario scale (default: fast)",
    )
    run_parser.add_argument(
        "--out", type=pathlib.Path, help="directory to persist tables into, as <module>.txt"
    )
    run_parser.add_argument(
        "--chart", action="store_true", help="also render an ASCII chart"
    )
    run_parser.add_argument(
        "--parallel",
        type=int,
        default=0,
        metavar="N",
        help="run jobs across N worker processes (default: serial)",
    )
    run_parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached job results (default: on; --no-cache disables)",
    )
    run_parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    run_parser.add_argument(
        "--run-log",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="append one JSONL provenance record per job (plus a summary "
        "per figure) to PATH; also honors REPRO_RUN_LOG",
    )
    run_parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout for parallel runs; a stuck worker "
        "is killed and the job retried",
    )
    run_parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="bounded retry budget for failing jobs (default: 2)",
    )
    run_parser.add_argument(
        "--trace",
        action="store_true",
        help="record a telemetry trace per job, stored beside the cached "
        "result (requires the cache; inspect with 'repro trace')",
    )
    profile_parser = sub.add_parser(
        "profile", help="cProfile a figure's jobs and print hot functions"
    )
    profile_parser.add_argument("figure", help="figure name (e.g. fig04)")
    profile_parser.add_argument(
        "--scale",
        choices=("fast", "paper"),
        default="fast",
        help="scenario scale (default: fast)",
    )
    profile_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="profile the figure's first N jobs (default: 1)",
    )
    profile_parser.add_argument(
        "--top",
        type=int,
        default=25,
        metavar="N",
        help="functions to show (default: 25)",
    )
    profile_parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "calls"),
        default="cumulative",
        help="pstats sort key (default: cumulative)",
    )
    trace_parser = sub.add_parser(
        "trace", help="inspect or replay stored telemetry traces"
    )
    trace_parser.add_argument("figure", help="figure name (e.g. fig04)")
    trace_parser.add_argument(
        "--scale",
        choices=("fast", "paper"),
        default="fast",
        help="scenario scale the traces were recorded at (default: fast)",
    )
    trace_parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    trace_parser.add_argument(
        "--job",
        type=int,
        default=None,
        metavar="N",
        help="show the channels of job N's trace instead of the summary",
    )
    trace_parser.add_argument(
        "--channel",
        default=None,
        metavar="NAME",
        help="with --job: dump one channel's samples as 'time value' lines",
    )
    trace_parser.add_argument(
        "--replay",
        action="store_true",
        help="recompute the figure's table from the stored traces alone "
        "(no simulation) and print it",
    )
    trace_parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="with --replay: directory to persist the replayed table into",
    )
    args = parser.parse_args(argv)

    runnable = {**ALL_FIGURES, **EXTENSIONS}
    if args.command == "list":
        for name, module in runnable.items():
            doc = (module.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{name}: {summary}")
        return 0

    if args.command != "run" and args.figure == "all":
        print(f"{args.command} works on one figure at a time", file=sys.stderr)
        return 2
    names = list(runnable) if args.figure == "all" else [args.figure]
    unknown = [n for n in names if n not in runnable]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(runnable)}", file=sys.stderr)
        return 2

    if args.command == "profile":
        return _profile_command(args, runnable)

    if args.command == "trace":
        return _trace_command(args, runnable)

    if args.trace and not args.cache:
        print(TRACE_NEEDS_CACHE, file=sys.stderr)
        return 2

    cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    cache = ResultCache(cache_dir) if args.cache else None
    try:
        executor = make_executor(
            args.parallel,
            job_timeout=args.job_timeout,
            max_retries=args.max_retries,
            run_log=args.run_log,
        )
    except ValueError as exc:  # a flag out of range, or a malformed REPRO_FAULT_SPEC
        print(exc, file=sys.stderr)
        return 2

    total_jobs = total_computed = total_hits = total_dedup = 0
    total_retries = total_timeouts = total_rebuilds = 0
    any_degraded = False
    try:
        for name in names:
            started = time.time()
            table = run_figure(
                name, args.scale, executor=executor, cache=cache, trace=args.trace
            )
            elapsed = time.time() - started
            report = executor.last_report
            total_jobs += report.jobs
            total_computed += report.computed
            total_hits += report.cache_hits
            total_dedup += report.deduplicated
            total_retries += report.retries
            total_timeouts += report.timeouts
            total_rebuilds += report.pool_rebuilds
            any_degraded = any_degraded or report.degraded
            print(table.format())
            print(
                f"[{name} completed in {elapsed:.1f}s at scale={args.scale}: "
                f"{report.jobs} jobs, {report.computed} computed, "
                f"{report.cache_hits} cache hits, "
                f"{report.deduplicated} deduplicated{_report_extras(report)}]"
            )
            if args.chart:
                chart = _figure_chart(name, table)
                if chart:
                    print()
                    print(chart)
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / table_filename(name)).write_text(table.format() + "\n")
            print()
    finally:
        executor.close()  # kill and join the workers
    if len(names) > 1:
        where = "off" if cache is None else str(cache.root)
        extras = ""
        if total_retries:
            extras += f", {total_retries} retried"
        if total_timeouts:
            extras += f", {total_timeouts} timed out"
        if total_rebuilds:
            extras += f", {total_rebuilds} pool rebuilds"
        if any_degraded:
            extras += ", degraded to serial"
        print(
            f"[total: {total_jobs} jobs, {total_computed} computed, "
            f"{total_hits} cache hits, {total_dedup} deduplicated{extras}; "
            f"cache={where}, workers={executor.workers}]"
        )
    return 0


def _profile_command(args, runnable) -> int:
    """``repro profile``: cProfile a figure's jobs and print hot functions.

    The jobs run in-process (no cache, no worker pool — a profile of a
    subprocess would be empty).
    """
    import cProfile
    import io
    import pstats

    from repro.experiments.jobs import execute_job

    job_list = runnable[args.figure].jobs(args.scale)[: max(1, args.jobs)]

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for jb in job_list:
            execute_job(jb)
    finally:
        profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(
        f"profile: {args.figure} scale={args.scale} jobs={len(job_list)} "
        f"sort={args.sort}"
    )
    print(buffer.getvalue().rstrip())
    return 0


def _trace_command(args, runnable) -> int:
    """``repro trace``: inspect or replay the stored telemetry traces."""
    from repro.experiments.replay import replay_job
    from repro.telemetry.trace import TraceReader

    if args.channel is not None and args.job is None:
        print("trace: --channel needs --job", file=sys.stderr)
        return 2
    if args.out is not None and not args.replay:
        print("trace: --out needs --replay", file=sys.stderr)
        return 2
    module = runnable[args.figure]
    cache = ResultCache(args.cache_dir if args.cache_dir else default_cache_dir())
    jobs = module.jobs(args.scale)

    def missing(jb) -> int:
        print(
            f"no trace for {args.figure} job {jb.index} "
            f"(key {cache.key(jb)[:12]}...); record one with "
            f"'repro run {args.figure} --trace --scale {args.scale}'",
            file=sys.stderr,
        )
        return 1

    if args.replay:
        results = []
        for jb in jobs:
            text = cache.load_trace(jb)
            if text is None:
                return missing(jb)
            try:
                payload = replay_job(jb, TraceReader.loads(text))
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 1
            results.append(JobResult(job=jb, value=payload, cached=False))
        table = module.reduce(results)
        # Exactly the table, nothing else: CI diffs this against `repro
        # run`'s persisted table to prove replay is byte-identical.
        print(table.format())
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / table_filename(args.figure)).write_text(table.format() + "\n")
        return 0

    if args.job is not None:
        matching = [jb for jb in jobs if jb.index == args.job]
        if not matching:
            print(
                f"{args.figure} has no job {args.job} "
                f"(valid: 0..{len(jobs) - 1})",
                file=sys.stderr,
            )
            return 2
        jb = matching[0]
        text = cache.load_trace(jb)
        if text is None:
            return missing(jb)
        reader = TraceReader.loads(text)
        if args.channel is not None:
            try:
                probe = reader.channel(args.channel)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
            for t, v in zip(probe.times, probe.values):
                print(f"{t!r} {v!r}")
            return 0
        print(f"{args.figure} job {jb.index}: {cache.trace_path(jb)}")
        for key in sorted(reader.meta):
            print(f"  meta {key} = {reader.meta[key]!r}")
        for name in sorted(reader.channels):
            probe = reader.channels[name]
            print(f"  {probe.kind:7s} {name}  ({len(probe.times)} samples)")
        return 0

    stored = 0
    for jb in jobs:
        text = cache.load_trace(jb)
        if text is None:
            print(f"job {jb.index}: no trace")
            continue
        stored += 1
        reader = TraceReader.loads(text)
        samples = sum(len(probe) for probe in reader.channels.values())
        path = cache.trace_path(jb)
        print(
            f"job {jb.index}: {len(reader.channels)} channels  "
            f"{samples} samples  {path.stat().st_size} bytes  {path}"
        )
    if stored == 0:
        print(
            f"(no traces stored; record them with "
            f"'repro run {args.figure} --trace --scale {args.scale}')"
        )
    return 0


def _report_extras(report) -> str:
    """Fault-tolerance accounting, shown only when something happened."""
    extras = ""
    if report.retries:
        extras += f", {report.retries} retried"
    if report.timeouts:
        extras += f", {report.timeouts} timed out"
    if report.pool_rebuilds:
        extras += f", {report.pool_rebuilds} pool rebuilds"
    if report.degraded:
        extras += ", degraded to serial"
    if report.failures:
        extras += f", {report.failures} failed"
    return extras
