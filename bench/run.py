"""The repository benchmark: five workloads, end-to-end metrics, a layer ledger.

Driver protocol (see BENCHMARK.json at the repository root)::

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Without ``--workload`` all five workloads run, their
timed rounds interleaved round-robin, and every metric is printed by
name with its unit; ``bench/out/results.json`` keeps the raw rounds.

The parent process runs no workload itself: every round runs in a fresh
child process (``--child``), so set-up time and peak memory are per round
and cannot leak between workloads, and the parent just waits.  All code
sits behind the ``__main__`` check because the executor's fork-server
workers re-import this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

from probes import (
    REFERENCE_TICK_S,
    SimCensus,
    SpeedSampler,
    group_is_live,
    scrub_environment,
    usage,
)

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Timed rounds per run: at least this many even when one round outlasts
#: ``--seconds`` (a median needs three), at most this many however fast
#: the rounds get.
MIN_ROUNDS = 3
MAX_ROUNDS = 40
#: A child that has not finished by then is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0


# ---------------------------------------------------------------------------
# The parent: spawn rounds, wait, aggregate
# ---------------------------------------------------------------------------


def child_environment() -> tuple[dict, list[str]]:
    """The environment every round runs in: no ``REPRO_*`` variable, and
    ``src`` importable in the round and in every worker it starts."""
    env = dict(os.environ)
    scrubbed = scrub_environment(env)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env, scrubbed


def wait_for_group(pgid: int, grace_s: float = 10.0) -> None:
    """Block until every process of the round's group has ended; kill
    stragglers.  The round closes its executor, but the fork server and
    resource tracker only exit once they see the round's pipes close."""
    deadline = time.monotonic() + grace_s
    while group_is_live(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                return
            deadline = time.monotonic() + grace_s
        time.sleep(0.01)


def run_child(mode: str, workload: str, args, env: dict) -> dict | None:
    """One round in a fresh process group; its report, or None if it died."""
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    command = [
        sys.executable,
        str(BENCH / "run.py"),
        "--child",
        mode,
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--scratch",
        scratch,
        "--spawned-at",
        repr(time.time()),
    ] + (["--smoke"] if args.smoke else [])
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, _ = process.communicate()
    finally:
        wait_for_group(process.pid)
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        print(f"bench: {workload} {mode} round failed (exit {process.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    ordered = sorted(values)
    q1, _, q3 = (
        statistics.quantiles(ordered, n=4) if len(ordered) > 1 else (ordered[0],) * 3
    )
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "n": len(ordered),
    }


def digest_of(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def measure_end_to_end(names: list[str], args, env: dict) -> dict[str, dict]:
    """Round 0 of every workload, then timed rounds interleaved round-robin
    so slow drift of the shared machine hits all workloads alike."""
    minimum = 1 if args.smoke else MIN_ROUNDS
    reference = {name: run_child("reference", name, args, env) for name in names}
    rounds: dict[str, list[dict | None]] = {name: [] for name in names}

    def wants_more(name: str) -> bool:
        done = [r for r in rounds[name] if r is not None]
        if reference[name] is None or len(rounds[name]) >= MAX_ROUNDS:
            return False
        if len(rounds[name]) - len(done) >= minimum:  # keeps dying: give up
            return False
        return len(done) < minimum or sum(r["wall_s"] for r in done) < args.seconds

    while any(wants_more(name) for name in names):
        for name in names:
            if wants_more(name):
                rounds[name].append(run_child("timed", name, args, env))
    return {name: summarize(name, reference[name], rounds[name]) for name in names}


def summarize(name: str, reference: dict | None, rounds: list[dict | None]) -> dict:
    done = [r for r in rounds if r is not None]
    crashed = (reference is None) + len(rounds) - len(done)
    if reference is None or not done:
        return {"workload": name, "attempted": max(1, crashed), "failed": max(1, crashed)}
    checks = [(f"round 0: {text}", ok) for text, ok in reference["checks"]]
    for index, report in enumerate(done, start=1):
        checks += [(f"round {index}: {text}", ok) for text, ok in report["checks"]]
        checks.append(
            (f"round {index} reproduces round 0's digests", report["digests"] == reference["digests"])
        )
    jobs = sum(r["jobs"] + r["failed_jobs"] for r in done)
    failed = sum(r["failed_jobs"] for r in done) + sum(not ok for _, ok in checks) + crashed
    pkts = reference["sim_counts"]["pkts_sent"]

    def scaled(report: dict, key: str) -> float:
        """Seconds at the reference machine speed: the round's own time
        times (reference tick / the ticks sampled while it ran)."""
        return report[key] * REFERENCE_TICK_S / report["tick_s"]

    samples = {
        "wall_s": [scaled(r, "wall_s") for r in done],
        "cpu_s": [scaled(r, "cpu_s") for r in done],
        "pkts_per_s": [pkts / scaled(r, "wall_s") for r in done],
        "jobs_per_s": [r["jobs"] / scaled(r, "wall_s") for r in done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
        # Round 0 sets up exactly like a timed round, so it is a sample too.
        "setup_s": [scaled(r, "setup_s") for r in [reference] + done],
    }
    unscaled = {
        key: spread([r[key] for r in done]) for key in ("wall_s", "cpu_s", "tick_s")
    }
    return {
        "workload": name,
        "attempted": jobs + len(checks) + crashed,
        "failed": failed,
        "failed_checks": [text for text, ok in checks if not ok],
        "metrics": {metric: spread(values) for metric, values in samples.items()},
        "unscaled": unscaled,
        "rounds": len(done),
        "jobs_per_round": done[0]["jobs"],
        "workers": done[0]["workers"],
        "tables_sha256": digest_of(reference["digests"]),
        "sim_counts": reference["sim_counts"],
    }


def measure_layers(names: list[str], args, env: dict) -> dict[str, dict]:
    """The traced pass: one fixed-size round per workload, so every count
    in it repeats exactly (``--seconds`` does not apply)."""
    (OUT / "trace.jsonl").unlink(missing_ok=True)
    results = {}
    for name in names:
        report = run_child("traced", name, args, env)
        if report is None:
            results[name] = {"workload": name, "attempted": 1, "failed": 1}
            continue
        checks = report["checks"]
        results[name] = {
            "workload": name,
            "attempted": report["jobs"] + report["failed_jobs"] + len(checks),
            "failed": report["failed_jobs"] + sum(not ok for _, ok in checks),
            "failed_checks": [text for text, ok in checks if not ok],
            "metrics": report["layers"],
            "workers": report["workers"],
        }
    return results


def host_record(scrubbed: list[str]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": commit or "unknown",
        "scrubbed_env": scrubbed,
    }


def print_report(result: dict, units: dict[str, str], traced: bool) -> None:
    name = result["workload"]
    if "metrics" not in result:
        print(f"{name}: no round completed")
        return
    print(f"{name} (workers={result['workers']})")
    for metric, value in result["metrics"].items():
        if traced:
            print(f"  {metric:<28} {value:>16.6g} {units[metric]}")
        else:
            print(
                f"  {metric:<12} {value['median']:>14.6g} {units[metric]:<10}"
                f" q1={value['q1']:.6g} q3={value['q3']:.6g}"
                f" min={value['min']:.6g} n={value['n']}"
            )
    if not traced:
        raw = result["unscaled"]
        print(
            f"  unscaled: wall_s={raw['wall_s']['median']:.6g} cpu_s={raw['cpu_s']['median']:.6g}"
            f" tick_s={raw['tick_s']['median']:.6g} (reference {REFERENCE_TICK_S})"
        )
        print(f"  rounds={result['rounds']} jobs_per_round={result['jobs_per_round']}")
        print(f"  tables_sha256={result['tables_sha256']}")
        print(f"  sim_counts={json.dumps(result['sim_counts'], sort_keys=True)}")
    failed_share = result["failed"] / result["attempted"]
    print(f"  failed_share={failed_share:.6g} ({result['failed']} of {result['attempted']})")
    for text in result["failed_checks"]:
        print(f"  FAILED: {text}")


def result_line(result: dict, units: dict[str, str], traced: bool) -> str:
    metrics = {
        metric: {"value": value if traced else value["median"], "unit": units[metric]}
        for metric, value in result["metrics"].items()
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def parent_main(args) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None and args.workload not in known:
        print(f"bench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"bench: the product is not in this checkout ({SRC}/repro)", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0 if args.smoke else contract["run_seconds"]
    traced = bool(args.trace)
    units = {
        metric["name"]: metric["unit"]
        for metric in contract["per_layer" if traced else "end_to_end"]
    }
    names = [args.workload] if args.workload is not None else known
    env, scrubbed = child_environment()
    measure = measure_layers if traced else measure_end_to_end
    results = measure(names, args, env)

    for name in names:
        print_report(results[name], units, traced)
    document = {
        "host": host_record(scrubbed),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "comparable": not args.smoke,  # smoke runs are a tenth the size
        "workloads": results,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"host={json.dumps(document['host'], sort_keys=True)}")

    if any("metrics" not in results[name] for name in names):
        return 1  # nothing measured: no result line
    if args.workload is not None:
        print(result_line(results[args.workload], units, traced))
    return 0 if all(results[name]["failed"] == 0 for name in names) else 1


# ---------------------------------------------------------------------------
# The child: one round of one workload
# ---------------------------------------------------------------------------


def digests(outputs: dict[str, str]) -> dict[str, str]:
    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in sorted(outputs.items())
    }


def child_main(args) -> int:
    from workloads import WORKLOADS, RoundContext, make_plan

    workload = WORKLOADS[args.workload]
    scratch = pathlib.Path(args.scratch)
    # Round 0 runs everything in this process so the census can see it.
    pooled = workload.parallel and args.child != "reference"
    workers = min(2, os.cpu_count() or 1) if pooled else 1
    report = {"workload": workload.name, "mode": args.child, "workers": workers}

    if args.child == "traced":
        report.update(traced_round(workload, args, scratch, workers))
    else:
        plan = make_plan(workload, args.seed, args.smoke)
        ctx = RoundContext(workers=workers, scratch=scratch)
        census = SimCensus() if args.child == "reference" else None
        sampler = SpeedSampler()
        with census or nullcontext():
            setup_s = time.time() - args.spawned_at
            before = usage()
            started = time.perf_counter()
            with sampler:
                outcome = workload.run(plan, ctx)
            wall_s = time.perf_counter() - started
            after = usage()
        if census is not None:
            report["sim_counts"] = census.counts()
        report.update(
            setup_s=setup_s,
            tick_s=sampler.tick_s,
            # The sampler's own ticks are not the workload's time.
            wall_s=wall_s - sampler.wall_s,
            cpu_s=after.cpu_since(before) - sampler.cpu_s,
            peak_rss_mb=after.peak_rss_mb,
            jobs=outcome.jobs,
            failed_jobs=outcome.failed_jobs,
            checks=outcome.checks,
            digests=digests(outcome.outputs),
        )
    print(json.dumps(report))
    return 0


def traced_round(workload, args, scratch: pathlib.Path, workers: int) -> dict:
    from ledger import CACHE_LAYER, LAYERS, Tracer, profile_jobs
    from workloads import RoundContext, make_plan

    tracer = Tracer(workload.name)
    plan = make_plan(workload, args.seed, args.smoke, tracer.span)
    ctx = RoundContext(workers=workers, scratch=scratch, tracer=tracer)
    outcome = workload.run(plan, ctx)
    fold = profile_jobs(workload.fold_jobs(plan))
    tracer.append_to(OUT / "trace.jsonl")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def reported(key: str) -> float:
        return sum(report[key] for report in ctx.reports)

    job_walls = []
    if ctx.run_log is not None and ctx.run_log.exists():
        for line in ctx.run_log.read_text().splitlines():
            record = json.loads(line)
            if record["event"] == "job" and record["status"] == "computed":
                job_walls.append(record["wall_s"])
    if not job_walls:  # no executor in this workload: the harness's own spans
        job_walls = [
            (span["end_ns"] - span["start_ns"]) / 1e9
            for span in tracer.spans
            if span["name"] == "execute_job"
        ]
    cache_files = [
        path
        for cache in ctx.caches
        for path in cache.root.rglob("*")
        if path.is_file()
    ]
    counts, calls = fold.sim_counts, fold.boundary_calls
    pkts = counts["pkts_sent"]
    map_s = tracer.total_s("experiments.executor")
    layers = {}
    for layer in LAYERS:
        layers[f"{layer}.self_s"] = fold.self_s[layer]
    for layer in ("sim", "net", "cc", "traffic", "telemetry", "metrics"):
        layers[f"{layer}.calls"] = fold.calls[layer]
    queue_drops = calls["net.link_sends"] - pkts - counts["pkts_resident"]
    layers.update(
        {
            "sim.events_fired": counts["events_fired"],
            "sim.events_scheduled": calls["sim.events_scheduled"],
            "sim.events_cancelled": calls["sim.events_cancelled"],
            "sim.cancel_share": ratio(
                calls["sim.events_cancelled"], calls["sim.events_scheduled"]
            ),
            "sim.self_ns_per_event": ratio(fold.self_s["sim"] * 1e9, counts["events_fired"]),
            "net.pkts_sent": pkts,
            "net.link_sends": calls["net.link_sends"],
            "net.enqueues": calls["net.enqueues"],
            "net.drops": queue_drops + counts["dropper_drops"],
            "net.bypass_share": 1.0 - ratio(calls["net.enqueues"], calls["net.link_sends"])
            if calls["net.link_sends"]
            else 0.0,
            "net.self_ns_per_pkt": ratio(fold.self_s["net"] * 1e9, pkts),
            "cc.receives": calls["cc.receives"],
            "cc.timeouts": calls["cc.timeouts"],
            "cc.self_ns_per_pkt": ratio(fold.self_s["cc"] * 1e9, pkts),
            "telemetry.probe_writes": calls["telemetry.probe_writes"],
            "telemetry.export_s": fold.export_s,
            "telemetry.trace_bytes": ctx.trace_bytes,
            "telemetry.load_s": tracer.total_s("telemetry")
            + tracer.total_s(CACHE_LAYER, "load_trace"),
            "jobs.build_s": tracer.total_s("experiments.jobs", "jobs.build"),
            "jobs.hash_s": tracer.total_s("experiments.jobs", "jobs.hash"),
            "jobs.count": len(plan.hashes),
            "jobs.unique": len(set(plan.hashes)),
            "executor.map_s": map_s,
            "executor.compute_s": reported("compute_s"),
            "executor.overhead_share": 1.0 - ratio(reported("compute_s"), workers * map_s)
            if map_s
            else 0.0,
            "executor.startup_s": reported("startup_s"),
            "executor.dispatch_s": reported("dispatch_s"),
            "executor.transport_s": reported("transport_s"),
            "executor.inlined": reported("inlined"),
            "executor.load_balance": max(
                (report["load_balance"] for report in ctx.reports), default=1.0
            ),
            "executor.retries": reported("retries"),
            "executor.job_wall_s_p50": statistics.median(job_walls) if job_walls else 0.0,
            "executor.job_wall_s_max": max(job_walls, default=0.0),
            "cache.lookup_s": tracer.total_s(CACHE_LAYER, "lookup"),
            "cache.store_s": sum(
                tracer.total_s(CACHE_LAYER, name)
                for name in ("store", "store_text", "flush_batch", "store_trace")
            ),
            "cache.hits": sum(cache.stats.hits for cache in ctx.caches),
            "cache.misses": sum(cache.stats.misses for cache in ctx.caches),
            "cache.files": len(cache_files),
            "cache.bytes": sum(path.stat().st_size for path in cache_files),
            "replay.self_s": tracer.self_s("experiments.replay"),
            "reduce.self_s": tracer.self_s("reduce"),
            "trace.overhead_ratio": ratio(fold.traced_wall_s, fold.untraced_wall_s),
            "trace.attributed_share": fold.attributed_share,
            "trace.pycalls_per_pkt": ratio(fold.total_calls, pkts),
        }
    )
    return {
        "layers": layers,
        "jobs": outcome.jobs,
        "failed_jobs": outcome.failed_jobs,
        "checks": outcome.checks,
    }


def parse_arguments(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1, help="generates every input")
    parser.add_argument("--seconds", type=float, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics) instead of the timed rounds")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the size, one round: not comparable, for the self-tests")
    parser.add_argument("--child", choices=("reference", "timed", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_arguments(sys.argv[1:])
    sys.exit(child_main(arguments) if arguments.child else parent_main(arguments))
