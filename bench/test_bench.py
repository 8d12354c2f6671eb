"""Self-tests of the benchmark harness (``python -m pytest bench -q``).

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/``
only): they start real worker pools and take about a minute.  Every run
here is a ``--smoke`` run — each workload at about a tenth of its size,
one timed round — so the numbers it writes are marked non-comparable.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Counts the traced pass must reproduce exactly from run to run.
EXACT = re.compile(
    r"\.calls$|^sim\.events_|^net\.(pkts_sent|link_sends|enqueues|drops)$"
    r"|^cc\.(receives|timeouts)$|^telemetry\.(probe_writes|trace_bytes)$"
    r"|^jobs\.(count|unique)$|^cache\.(hits|misses)$|^trace\.pycalls_per_pkt$"
)


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


def results() -> dict:
    return json.loads((BENCH / "out" / "results.json").read_text())


def test_contract_names_units_and_bounds():
    doc = contract()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["bench"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_contract_lists_exactly_the_workloads_the_harness_has():
    from workloads import WORKLOADS

    assert [w["name"] for w in contract()["workloads"]] == list(WORKLOADS)


def test_seed_drives_every_generated_input():
    from workloads import WORKLOADS, make_plan

    def hashes(name: str, seed: int) -> list[str]:
        return make_plan(WORKLOADS[name], seed, True).hashes

    for name in ("single_path_cc", "dispatch_smalljobs"):
        assert hashes(name, 7) == hashes(name, 7)
        assert hashes(name, 7) != hashes(name, 8)
    for name in ("sweep_serial", "sweep_parallel2", "trace_roundtrip"):
        assert hashes(name, 7) == hashes(name, 8)  # figure jobs are the product's


def test_entry_point_prints_exactly_one_result_document():
    """An unguarded script is re-executed inside every fork-server worker;
    the workload here is the one that really starts a pool."""
    done = run_bench("--workload", "dispatch_smalljobs", "--seed", "3", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    documents = []
    for line in done.stdout.splitlines():
        if line.startswith("{"):
            documents.append(json.loads(line))
    assert len(documents) == 1
    (document,) = documents
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True and document["failed"] == 0
    assert done.stdout.rstrip().endswith(json.dumps(document))
    assert set(document["metrics"]) == {m["name"] for m in contract()["end_to_end"]}
    assert all(entry["value"] > 0 for entry in document["metrics"].values())


def test_smoke_run_of_every_workload_is_correct():
    done = run_bench("--seed", "1", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    document = results()
    assert document["comparable"] is False and document["traced"] is False
    expected = {m["name"] for m in contract()["end_to_end"]}
    for workload in contract()["workloads"]:
        result = document["workloads"][workload["name"]]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == expected
        assert result["sim_counts"]["pkts_sent"] > 0
        assert all(f"{name} " in done.stdout for name in expected)
    serial, parallel = (
        document["workloads"][name] for name in ("sweep_serial", "sweep_parallel2")
    )
    assert serial["tables_sha256"] == parallel["tables_sha256"]
    assert serial["sim_counts"] == parallel["sim_counts"]


@pytest.fixture(scope="module")
def two_traced_smoke_runs() -> list[dict]:
    documents = []
    for _ in range(2):
        done = run_bench("--seed", "1", "--smoke", "--trace", "1")
        assert done.returncode == 0, done.stdout + done.stderr
        documents.append(results())
    return documents


def test_the_fold_accounts_for_the_traced_wall(two_traced_smoke_runs):
    expected = {m["name"] for m in contract()["per_layer"]}
    for document in two_traced_smoke_runs:
        assert document["traced"] is True
        for name, result in document["workloads"].items():
            assert result["failed"] == 0
            assert set(result["metrics"]) == expected
            assert result["metrics"]["trace.attributed_share"] >= 0.98, name


def test_exact_counts_repeat_across_runs(two_traced_smoke_runs):
    first, second = two_traced_smoke_runs
    for name, result in first["workloads"].items():
        again = second["workloads"][name]["metrics"]
        for metric, value in result["metrics"].items():
            if EXACT.search(metric):
                assert value == again[metric], (name, metric)
        assert result["metrics"]["net.pkts_sent"] > 0


def test_spans_name_their_cause(two_traced_smoke_runs):
    lines = (BENCH / "out" / "trace.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans
    keys = {"id", "parent", "workload", "job", "layer", "name", "start_ns", "end_ns"}
    assert all(set(span) == keys for span in spans)
    assert {span["workload"] for span in spans} == {
        w["name"] for w in contract()["workloads"]
    }
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
    # A cache lookup happens inside the executor.map that asked for it.
    by_key = {(span["workload"], span["id"]): span for span in spans}
    lookups = [span for span in spans if span["name"] == "lookup"]
    assert lookups
    for span in lookups:
        assert by_key[span["workload"], span["parent"]]["name"] == "executor.map"
