"""What was deleted stays deleted.

Each entry names machinery a PR removed after measuring that nothing
justified it, and the trees where its names must not reappear — so a
revert, a stale doc or a half-rebased branch fails here, locally, instead
of in a CI ``git grep``.  History lives in ``CHANGES.md``, ``ROADMAP.md``
and ``docs/performance.md``, which are deliberately in no entry's roots.
"""

import os
import pathlib
import re

import pytest

from repro.lint import main

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
        "per-figure run(): run_figure is the one road to a table (PR 15)",
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
        "every record is a key-stamped frame in its shard's pack",
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


def test_a_deleted_rule_code_is_an_unknown_code(capsys):
    for code in ("I001", "U001"):
        assert main(["--select", code, "src"]) == 2
        assert "unknown rule code" in capsys.readouterr().err
