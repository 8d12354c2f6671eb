"""What was deleted stays deleted.

Each entry names machinery a PR removed after measuring that nothing
justified it, and the trees where its names must not reappear — so a
revert, a stale doc or a half-rebased branch fails here, locally, instead
of in a CI ``git grep``.  History lives in ``CHANGES.md``, ``ROADMAP.md``
and git; the two files are deliberately in no entry's roots.
"""

import os
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
THIS_FILE = pathlib.Path(__file__).resolve().relative_to(REPO).as_posix()

#: Git-ignored build and run outputs (see ``.gitignore``).
SKIP_DIRS = {"__pycache__", ".pytest_cache", ".hypothesis", "out"}

EVERYWHERE = ("src", "tests", "docs", "README.md", ".github")

#: (pattern, roots, exempt files, reason)
STAY_DELETED = [
    (
        r"unitcheck|DataflowWalker|analyze_units|--(write-)?baseline",
        EVERYWHERE,
        (),
        "the second U/I walker stack and the finding-baseline layer (PR 11)",
    ),
    (
        r"table_from_sweep|fairness_table|sweep_cache|DropObserver"
        r"|interval_average|_ready\b",
        ("src", "benchmarks", "examples", "README.md"),
        (),
        "the second road to a table and the unread per-packet paths (PR 15)",
    ),
    (
        r"def run\(",
        ("src/repro/experiments", "benchmarks"),
        (),
        "per-figure run(): run_figure is the one-name form of run_figures, "
        "the one road to a table (PR 15)",
    ),
    (
        r"\brun_figure\b|\btotal_\w+|any_degraded|for name in names",
        ("src/repro/cli.py",),
        (),
        "the CLI's per-figure run_figure loop and its eight total_* counters; "
        "repro run is one run_figures map with one accounting line",
    ),
    (
        r"_start_transmission|_transmission_done|COMPACT_MIN_CANCELLED|_note_cancelled",
        ("src", "benchmarks", "examples", "bench", "tests", "README.md"),
        # The frozen oracles keep the old names on purpose.
        ("tests/reference_link.py", "tests/reference_kernel.py"),
        "the event-per-serialization link and the tombstone sweep (PR 16)",
    ),
    (
        r"analyze_purity|validate_sarif|to_sarif|PackedResult|ParkingLot|--explain",
        EVERYWHERE,
        (),
        "the purity call graph, SARIF, the rule explainer, the RPK1 frame and "
        "the parking lot (PR 17); purity is tests/test_job_purity.py",
    ),
    (
        r"ProtocolSpec|spec_of|run_simulated|run_aggressiveness|_run_with_droptail"
        r"|measure_tcp_rate_per_rtt|\.rate_based|\.self_clocked",
        ("src", "benchmarks", "examples", "tests", "docs", "README.md"),
        (),
        "the second protocol description and the side road to eight tables (PR 18)",
    ),
    (
        r"_totals: array",
        ("src/repro/telemetry",),
        (),
        "the counter's second column: the total after times[i] is i + 1 (PR 20)",
    ),
    (
        r"totals must be 1\.\.n|\"values\": list\(",
        ("src",),
        (),
        "the schema-1 trace: printed float lists and a counter's exported "
        "1..n column (PR 22); a column is packed float64",
    ),
    (
        r"DivisionByZero|ContractDriftRule|WIDEN_THRESHOLDS|_check_division"
        r"|interval_of|I00[1-4]",
        EVERYWHERE,
        (),
        "simlint's I-rules and the interval domain (PR 21); ranges are "
        "enforced at run time by @checked",
    ),
    (
        r"lint[/.]analysis|contract_events|LintContext|SUFFIX_UNITS|bytes_to_bits"
        r"|UnitArithmeticRule",
        EVERYWHERE,
        (),
        "simlint's U-rules, their whole-program analysis and the unit algebra "
        "only they read (PR 26); units are checked on the wire by TestPacing",
    ),
    (
        r"(CbrRestart|FlashCrowd|Oscillation|Doubling|LossPattern)Result"
        r"|run_(cbr_restart|flash_crowd|oscillation|convergence|doubling|loss_pattern)"
        r"|cbr_restart_payload|oscillation_payload|_split_trace|__trace__|shipped=",
        ("src", "examples"),
        (),
        "the *Result classes, run_*, the jobs.py adapters and the traced-result "
        "wrapper (PR 23); a @scenario returns the payload and run_job its text",
    ),
    (
        r"^\s+from repro\.experiments",
        (
            "src/repro/experiments/jobs.py",
            "src/repro/experiments/replay.py",
            *sorted(
                path.relative_to(REPO).as_posix()
                for path in (REPO / "src/repro/experiments").glob("ext_*.py")
            ),
        ),
        (),
        "function-level imports dodging the jobs <-> scenarios cycle (PR 23); "
        "jobs.py imports no scenario module, so there is no cycle",
    ),
    (
        r"forkserver|set_forkserver_preload|ProcessPoolExecutor|BrokenProcessPool"
        r"|_WARM_PRELOAD|_warm_context|_kill_pool",
        ("src",),
        (),
        "the fork server, the per-slot pool object and their threads (PR 24); "
        "a worker is a fork of the coordinator and a pipe",
    ),
    (
        r"PACK_SMALL_LIMIT|def _path\(|_has_entry|_pack_read|\{key\}\.json",
        ("src",),
        (),
        "the per-record blob layout, its size threshold and path helper; "
        "every record is a key-stamped frame in the one pack",
    ),
    (
        r"REPRO_JOB_TIMEOUT|REPRO_MAX_RETRIES|_env_number",
        ("src", "benchmarks", "examples", "bench", "tests", "docs", "README.md", ".github"),
        (),
        "the environment twins of --job-timeout / --max-retries (PR 23); "
        "the flags and the constructor arguments are the two ways in",
    ),
    (
        r"SerialExecutor|ParallelExecutor|\bexecute\(|max_pool_rebuilds|\b_run_in_process"
        r"|def prune|def clear|\.prune\(|cache\.clear\(|\._memory",
        ("src", "tests", "examples", "benchmarks", "docs/experiments.md", "README.md"),
        (),
        "the executor subclasses, execute(), the settable rebuild budget, the "
        "second in-process loop and the memory cache with prune/clear; one "
        "Executor(workers) and one on-disk ResultCache(root)",
    ),
    (
        r"repro\.lint|simlint:|python -m repro\.lint",
        ("src", "tests", "README.md", "DESIGN.md", ".github", "pyproject.toml", ".claude"),
        (),
        "simlint: its engine, CLI, rule registry, suppression comments and "
        "eight rules; D001 and D003 are tests/test_source_rules.py",
    ),
    (
        r"delayed_acks|PeriodicTask|sim\.process|sawtooth_rate|\.spawn\(|relation=|max_cwnd",
        ("src", "tests", "examples", "docs", "README.md"),
        (),
        "simulator options nothing set, and what only they selected: delayed "
        "ACKs, PeriodicTask, the sawtooth CBR rates, RngRegistry.spawn, the "
        "second a(b) rule and the window cap; the options rule keeps them out",
    ),
    (
        r"\bEvent\b|\bcall_(in|at)\b|Simulator\.(schedule|stop|pending)|\bsim\.schedule\("
        r"|\bsim\.stop\(\)|\bsim\.pending\b|\b_cancelled\b",
        ("src", "tests", "examples", "benchmarks", "docs", "README.md", "DESIGN.md", ".github"),
        # The frozen oracle keeps the old kernel.
        ("tests/reference_kernel.py",),
        "the cancellable Event, schedule / call_in / call_at, stop, pending and "
        "the tombstone count; Simulator.at is the one scheduling call and a "
        "Timer retires its own entries",
    ),
    (
        r"cost_model\.observe|\bobservations\(|\b_estimates\b",
        ("src", "tests", "docs", "README.md"),
        (),
        "the cost model's learned tier: a map is split before any of its jobs "
        "completes, so predict is the static seed times the scale factor",
    ),
    (
        r"\badd_tap\b|\b_tapped\b",
        ("src", "docs", "examples", "README.md"),
        (),
        "the link's departure taps and the calendar entries they cost; a "
        "recorded link writes each serialization when it starts",
    ),
    (
        r"TimeSeries\.extend|def extend\(",
        ("src/repro/telemetry", "docs/telemetry.md"),
        (),
        "TimeSeries.extend and its two copies of every loaded column; a "
        "loaded series keeps the arrays the trace decoded",
    ),
    (
        r"\b_keys\b|def key\(|\bhashlib\b",
        ("src/repro/experiments/cache.py",),
        (),
        "the cache's salted re-hash of every job and its per-instance memo; "
        "the key is the job's content hash and the salt is a directory",
    ),
    (
        r"cached_property",
        ("src/repro/experiments/jobs.py",),
        (),
        "the content hash memo in an instance dict; a job keeps its hash in "
        "the _hash slot",
    ),
    (
        r"\.expiry\b|def expiry|\bbytes_sent\b|\.bdp_packets\b",
        ("src", "tests", "examples", "benchmarks", "docs/simulator.md", "README.md"),
        # The frozen oracles keep the old kernel and link.
        ("tests/reference_kernel.py", "tests/reference_link.py"),
        "Timer.expiry, Link.bytes_sent and Dumbbell.bdp_packets, read only by "
        "tests; the one BDP formula is net.red.bdp_packets",
    ),
    (
        r"\b(cwnd|rate)_trace\b|\._samples\(",
        ("src", "tests", "examples", "benchmarks", "docs/telemetry.md", "README.md"),
        (),
        "the senders' cwnd_trace / rate_trace accessors; a series is read "
        "off the recorder's flow.<id>.cwnd / rate channel",
    ),
    (
        r"\.export\(|\bfrom_file\b|_file_lines",
        ("src", "tests", "examples", "benchmarks", "docs/telemetry.md", "README.md"),
        (),
        "the file twins of the trace I/O; a trace reaches the disk through "
        "export_text and ResultCache, and comes back through loads",
    ),
    (
        r"invert_simple_response|\bnormalized_shares\b|\bresample\b|\bmax_ratio\b",
        ("src", "tests", "examples", "benchmarks", "docs/telemetry.md", "README.md", "DESIGN.md"),
        (),
        "closed forms and metrics read only by tests: the square-root "
        "model's inverse, normalized_shares, TimeSeries.resample, max_ratio",
    ),
    (
        r"CutoffDropper",
        ("src", "examples", "benchmarks", "README.md"),
        (),
        "CutoffDropper, a test fixture: it lives in tests/helpers.py",
    ),
    (
        r"\bdefault_(protocols|gammas|bs|ks|phases|drop_rates|on_times|periods)\b"
        r"|\bp_values=|\bobserve_rtts=|\bsimulated_acks_to_fairness\b",
        ("src", "tests", "examples", "benchmarks", "docs/experiments.md", "README.md"),
        (),
        "the figure knobs and the default_*() helpers that filled them; a "
        "figure's sweep axes are its module's constants, and a test cuts the "
        "job list",
    ),
    (
        r"\bsparkline\b|\blog_y\b|\bbackoff_s=|\bsalt=|\bExecutor\([^)]*\bfault=",
        ("src", "tests", "examples", "benchmarks", "docs", "README.md", "DESIGN.md"),
        # The record of the deletion.
        ("docs/linting.md",),
        "viz.sparkline and the chart size knobs, the executor's backoff and "
        "fault arguments (REPRO_FAULT_SPEC is the one route) and "
        "ResultCache's salt argument",
    ),
    (
        r"\bscale=scale\b|\b(jb|job|self)\.(scale|seed)\b|_SCALE_FACTOR",
        ("src", "tests", "examples", "benchmarks", "docs", "README.md", "DESIGN.md"),
        (),
        "Job.scale, Job.seed and the cost model's per-scale factor: a job "
        "hashes only what it computes from, and a seed is a config field",
    ),
    (
        r"\.seeds\b|\bseeds=\(|\bseeds: tuple",
        ("src", "tests", "examples", "benchmarks", "docs", "README.md", "DESIGN.md"),
        (),
        "ConvergenceConfig.seeds and the loop over it; a convergence config "
        "has one seed and Figures 10 and 12 fan CONVERGENCE_SEEDS out",
    ),
    (
        r"\bTimeSeries\b|telemetry[./]series\b",
        ("src", "tests", "examples", "benchmarks", "docs/telemetry.md", "README.md", "DESIGN.md"),
        (),
        "TimeSeries and telemetry/series.py, the storage under SeriesProbe; "
        "a series probe holds its own times and values",
    ),
    (
        r"\bGaugeProbe\b|\.queue_depth\b|\bmonitor\.stop\(|_queue_sampler",
        ("src", "tests", "examples", "benchmarks", "docs", "README.md", "DESIGN.md"),
        # The record of the deletion.
        ("docs/linting.md",),
        "GaugeProbe, the probe that polled a callable, LinkMetrics.queue_depth "
        "and LinkMonitor.stop; sample_queue records into a SeriesProbe, once",
    ),
    (
        r"\.snapshot\(\)|def snapshot\(self|\breader\.(counter|series)\("
        r"|def (counter|series)\(self",
        ("src", "tests", "examples", "benchmarks", "docs/telemetry.md", "README.md"),
        (),
        "Probe.snapshot and TraceReader.counter / series, read only by "
        "tests; a channel is read with reader.channel or off export_text",
    ),
    (
        r"_INDEX_VERSION|\bby_shard\b|\bshard_file\b|\.pack\.idx",
        ("src", "tests", "docs/experiments.md", "README.md", ".github"),
        # Writes the older layouts on purpose, to show they are never read.
        ("tests/test_cache_packs.py",),
        "the 256 shard packs and their versioned JSON indexes; a cache is "
        "one pack and one binary index under its salt",
    ),
    (
        r"_free_simulation",
        ("src", "tests", "docs", "README.md"),
        (),
        "the traced job's second collection path; execute_job collects "
        "traced or not, since a recorder holds no network",
    ),
]


def files_under(root: str):
    """Repo-relative posix paths of the files under ``root`` (or ``root``
    itself), skipping git-ignored outputs."""
    top = REPO / root
    if top.is_file():
        yield root
        return
    for folder, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(
            d for d in dirnames if d not in SKIP_DIRS and not d.endswith(".egg-info")
        )
        for name in sorted(filenames):
            yield (pathlib.Path(folder) / name).relative_to(REPO).as_posix()


@pytest.mark.parametrize(
    "pattern, roots, exempt, reason",
    STAY_DELETED,
    ids=[reason.split(" (PR")[0][:50] for *_, reason in STAY_DELETED],
)
def test_deleted_names_do_not_come_back(pattern, roots, exempt, reason):
    regex = re.compile(pattern)
    hits = []
    for root in roots:
        assert (REPO / root).exists(), f"{root} is gone: drop it from the entry"
        for path in files_under(root):
            if path == THIS_FILE or path in exempt:
                continue
            text = (REPO / path).read_text(encoding="utf-8", errors="ignore")
            for number, line in enumerate(text.splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{path}:{number}: {line.strip()}")
    assert not hits, f"stays deleted — {reason}:\n" + "\n".join(hits)
