"""The declarative job layer: hashing, executors, caching, parallelism.

The refactor's contract: every figure is ``jobs(scale)`` (pure, picklable
descriptions) -> executor (serial or process pool, optionally cached) ->
``reduce(results)`` (pure formatting).  These tests pin the properties
that make that split safe:

* content hashes are stable across processes and ignore display-only
  fields, so Figures 4/5 (and 14/15) share cache entries;
* parallel execution produces byte-identical tables to serial execution;
* the cache hits on identical work, misses when the config *or* the
  code-version salt changes, and survives corrupt entries.
"""

from __future__ import annotations

import hashlib
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import ALL_FIGURES, EXTENSIONS
from repro.experiments import fig04_stabilization_time as fig04
from repro.experiments import fig05_stabilization_cost as fig05
from repro.experiments import fig14_oscillation_utilization as fig14
from repro.experiments import fig15_oscillation_droprate as fig15
from repro.experiments import fig19_iiad_sqrt as fig19
from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.cache import MISS, ResultCache, default_salt
from repro.experiments.executor import Executor, make_executor
from repro.experiments.jobs import DropperSpec, canonical, content_hash, job
from repro.experiments.protocols import tcp, tfrc
from repro.sim.rng import RngRegistry

SRC = Path(__file__).resolve().parent.parent / "src"

# Miniature sweeps: enough to exercise every path, cheap enough for CI.
TINY_CBR = dict(
    bandwidth_bps=1e6, n_flows=2, warmup_s=2.0, cbr_stop=8.0,
    cbr_restart=10.0, end=14.0,
)
TINY_OSC = dict(
    bandwidth_bps=1.5e6, min_duration_s=10.0, periods_to_run=3,
    max_duration_s=12.0, warmup_s=2.0,
)
TINY_LOSS = dict(bandwidth_bps=3e6, duration_s=10.0, warmup_s=2.0)


def tiny_fig04_jobs():
    return fig04.jobs(
        "fast", gammas=[2], families={"TCP(1/g)": lambda g: tcp(g)}, **TINY_CBR
    )


def tiny_fig14_jobs():
    return fig14.jobs(
        "fast", on_times=[0.5], protocols=[tcp(2)], n_flows=2, **TINY_OSC
    )


def tiny_fig19_jobs():
    return fig19.jobs("fast", **TINY_LOSS)


def _count_hashes(monkeypatch):
    """Record every run of the canonical() -> dumps -> SHA-256 pipeline."""
    import repro.experiments.jobs as jobs_module

    hashed = []

    def counting(description):
        hashed.append(description)
        return content_hash(description)

    monkeypatch.setattr(jobs_module, "content_hash", counting)
    return hashed


class TestContentHash:
    def test_stable_within_process(self):
        a = fig20.jobs("fast")
        b = fig20.jobs("fast")
        assert [j.content_hash for j in a] == [j.content_hash for j in b]

    def test_stable_across_processes(self):
        """The hash must not depend on interpreter state (PYTHONHASHSEED)."""
        expected = fig20.jobs("fast")[0].content_hash
        script = (
            "from repro.experiments import fig20_timeout_models as m;"
            "print(m.jobs('fast')[0].content_hash)"
        )
        import os

        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            assert out.stdout.strip() == expected

    @pytest.mark.parametrize(
        "scale, n_jobs, digest",
        [
            ("fast", 168, "d44d69d8b70620223d731d7026e4a35d134b7e9fefd1c27a033bd734e4a8b285"),
            ("paper", 298, "85e08c73b4fde83b528d61efbbf77d39ccf8a1bd3fc0c163659b83d8fbb403b3"),
        ],
    )
    def test_the_twenty_original_tables_keep_their_job_hashes(self, scale, n_jobs, digest):
        """Values from the commit before ``Protocol`` became the job field:
        every cache key and trace header of the 18 figures and the first
        two extensions is what it was."""
        original = [*ALL_FIGURES, "responsiveness", "queue_dynamics"]
        lines = [
            f"{name}#{jb.index} {jb.content_hash}"
            for name in original
            for jb in {**ALL_FIGURES, **EXTENSIONS}[name].jobs(scale)
        ]
        assert len(lines) == n_jobs
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_display_fields_do_not_affect_hash(self):
        jb = tiny_fig04_jobs()[0]
        relabelled = replace(jb, figure="zzz", index=99, tags=(("other", 1),))
        assert relabelled.content_hash == jb.content_hash

    def test_inputs_do_affect_hash(self):
        jb = tiny_fig04_jobs()[0]
        assert replace(jb, seed=77).content_hash != jb.content_hash
        assert replace(jb, scale="paper").content_hash != jb.content_hash
        assert (
            replace(jb, config=replace(jb.config, bandwidth_bps=2e6)).content_hash
            != jb.content_hash
        )
        assert (
            replace(jb, protocol=tfrc(6)).content_hash != jb.content_hash
        )

    def test_the_hash_is_computed_once_and_travels_with_a_pickled_job(self, monkeypatch):
        hashed = _count_hashes(monkeypatch)
        jb = tiny_fig04_jobs()[0]
        digest = jb.content_hash
        assert jb.content_hash == digest and len(hashed) == 1
        clone = pickle.loads(pickle.dumps(jb))  # what a pool worker receives
        assert clone == jb and clone.content_hash == digest
        assert len(hashed) == 1
        assert digest == content_hash(jb.describe())  # a fresh computation
        # replace() builds a new object, so a new identity is a new hash
        assert replace(jb, seed=77).content_hash != digest
        assert replace(jb, trace=True).content_hash == digest
        assert replace(jb, tags=(("other", 1),)).content_hash == digest
        assert len(hashed) == 4

    def test_two_maps_hash_each_job_once(self, tmp_path, monkeypatch):
        hashed = _count_hashes(monkeypatch)
        jobs = fig20.jobs("fast")
        jobs.append(replace(jobs[0], index=len(jobs)))  # a duplicate to dedup
        cache = ResultCache(tmp_path / "cache")
        with make_executor(0, run_log=tmp_path / "run.jsonl") as ex:
            ex.map(jobs, cache)  # key, dedup, store and run log all ask
            assert ex.last_report.deduplicated == 1
            ex.map(jobs, cache)
            assert ex.last_report.cache_hits == len(jobs)
        assert len(hashed) == len(jobs)

    def test_fig04_and_fig05_share_the_sweep(self):
        h4 = [j.content_hash for j in fig04.jobs("fast")]
        h5 = [j.content_hash for j in fig05.jobs("fast")]
        assert h4 == h5

    def test_fig14_and_fig15_share_the_sweep(self):
        h14 = [j.content_hash for j in fig14.jobs("fast")]
        h15 = [j.content_hash for j in fig15.jobs("fast")]
        assert h14 == h15

    def test_canonical_rejects_foreign_objects(self):
        with pytest.raises(TypeError, match="canonicalize"):
            content_hash({"bad": object()})

    def test_canonical_encodes_specs_and_configs(self):
        desc = canonical(
            {
                "proto": tcp(8),
                "dropper": DropperSpec.count([50, 400]),
                "seq": (1, 2.5, None, True),
            }
        )
        assert desc["proto"]["__protocol__"]
        assert desc["dropper"]["__dropper__"] == "count"
        assert desc["seq"] == [1, 2.5, None, True]


class TestJobsContract:
    @pytest.mark.parametrize(
        "name,module", sorted({**ALL_FIGURES, **EXTENSIONS}.items())
    )
    def test_every_module_defines_the_pipeline(self, name, module):
        assert callable(module.jobs), name
        assert callable(module.reduce), name

    def test_every_figure_has_one_cost_class(self):
        # The executor runs jobs in submission order because every map is
        # one figure and every figure's jobs share one (scenario, scale):
        # any cost-ordered dispatch would be the identity.  A figure that
        # breaks this is the moment to re-propose cost-ordered dispatch,
        # measured against the sweep_parallel2 workload in bench/.
        for name, module in {**ALL_FIGURES, **EXTENSIONS}.items():
            for scale in ("fast", "paper"):
                classes = {(jb.scenario, jb.scale) for jb in module.jobs(scale)}
                assert len(classes) == 1, (name, scale, classes)

    def test_jobs_are_indexed_in_order(self):
        js = fig20.jobs("fast")
        assert [j.index for j in js] == list(range(len(js)))

    def test_jobs_are_picklable(self):
        for jb in tiny_fig04_jobs() + tiny_fig14_jobs() + tiny_fig19_jobs():
            clone = pickle.loads(pickle.dumps(jb))
            assert clone == jb
            assert clone.content_hash == jb.content_hash

    def test_unknown_scenario_named_in_error(self):
        bad = job("figXX", "not_a_scenario")
        from repro.experiments.jobs import execute_job

        with pytest.raises(KeyError, match="available"):
            execute_job(bad)


class TestParallelMatchesSerial:
    """Acceptance: distributing work may not change a single byte."""

    @pytest.mark.parametrize(
        "label,make_jobs,module",
        [
            ("fig04", tiny_fig04_jobs, fig04),
            ("fig14", tiny_fig14_jobs, fig14),
            ("fig19", tiny_fig19_jobs, fig19),
        ],
    )
    def test_tables_byte_identical(self, label, make_jobs, module):
        serial = module.reduce(Executor().map(make_jobs()))
        parallel = module.reduce(Executor(2).map(make_jobs()))
        assert parallel.format() == serial.format()
        assert parallel.rows == serial.rows  # exact floats, not just text

    def test_results_come_back_in_submission_order(self):
        js = fig20.jobs("fast")
        results = Executor(3).map(js)
        assert [r.job.index for r in results] == [j.index for j in js]

    def test_make_executor(self):
        assert make_executor(0).workers == 0
        assert make_executor(1).workers == 0
        assert make_executor(3).workers == 3
        with pytest.raises(ValueError):
            make_executor(-1)

    def test_identical_jobs_deduplicated(self):
        js = fig20.jobs("fast", p_values=[0.1, 0.1, 0.3])
        executor = Executor()
        results = executor.map(js)
        report = executor.last_report
        assert report.jobs == 3
        assert report.computed == 2
        assert report.deduplicated == 1
        assert results[0].value == results[1].value


class TestResultCache:
    def test_miss_then_hit_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        js = fig20.jobs("fast")
        executor = Executor()

        executor.map(js, cache)
        cold = executor.last_report
        assert cold.cache_hits == 0 and cold.computed == len(js)

        executor.map(js, cache)
        warm = executor.last_report
        assert warm.cache_hits == len(js) and warm.computed == 0
        assert cache.stats.hits == len(js)

    def test_warm_cache_reproduces_table_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = Executor()
        cold = fig19.reduce(executor.map(tiny_fig19_jobs(), cache))
        warm = fig19.reduce(executor.map(tiny_fig19_jobs(), cache))
        assert executor.last_report.computed == 0
        assert warm.format() == cold.format()
        assert warm.rows == cold.rows

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = Executor()
        executor.map(fig20.jobs("fast", p_values=[0.1]), cache)
        executor.map(fig20.jobs("fast", p_values=[0.2]), cache)
        assert executor.last_report.cache_hits == 0
        assert executor.last_report.computed == 1

    def test_salt_change_invalidates(self, tmp_path):
        js = fig20.jobs("fast", p_values=[0.1])
        old = ResultCache(tmp_path)  # default code-version salt
        Executor().map(js, old)
        assert old.lookup(js[0]) is not MISS

        upgraded = ResultCache(tmp_path, salt=default_salt() + "-next")
        assert upgraded.lookup(js[0]) is MISS
        assert upgraded.stats.misses == 1

    def test_corrupt_blob_is_a_miss_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        js = fig20.jobs("fast", p_values=[0.1])
        cache.store(js[0], {"ok": True})
        shard = cache.key(js[0])[:2]
        pack = tmp_path / shard / f"{shard}.pack"
        frame = pack.read_bytes()
        # Same length, same key stamp (32 bytes + u32 length): only the
        # record's bytes are garbage.
        pack.write_bytes(frame[:36] + b"{ not json !".ljust(len(frame) - 36))
        assert cache.lookup(js[0]) is MISS
        executor = Executor()
        executor.map(js, cache)
        assert executor.last_report.computed == 1

    def test_corrupt_pack_is_a_miss_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        js = fig20.jobs("fast", p_values=[0.1])
        Executor().map(js, cache)
        shard = cache.key(js[0])[:2]
        pack = tmp_path / shard / f"{shard}.pack"
        assert pack.exists()
        pack.write_bytes(b"\x00" * 4)  # truncate: index offsets now dangle
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(js[0]) is MISS
        executor = Executor()
        executor.map(js, fresh)
        assert executor.last_report.computed == 1

    def test_a_fresh_root_holds_what_a_map_stores(self, tmp_path):
        cache = ResultCache(tmp_path / "fresh")
        assert cache.root == tmp_path / "fresh" and len(cache) == 0
        js = fig20.jobs("fast", p_values=[0.3])
        Executor().map(js, cache)
        assert cache.lookup(js[0]) is not MISS
        assert len(cache) == 1

    def test_store_returns_json_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = fig20.jobs("fast", p_values=[0.1])[0]
        value = {"xs": [1, 2.5], "label": "ok", "none": None}
        assert cache.store(jb, value) == value


class TestExecuteHelper:
    def test_execute_defaults_to_serial(self):
        executor = Executor()
        results = executor.map(fig20.jobs("fast", p_values=[0.1]))
        assert executor.workers == 0 and not executor._slots
        assert len(results) == 1 and not results[0].cached

    def test_execute_with_cache_marks_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        js = fig20.jobs("fast", p_values=[0.1])
        Executor().map(js, cache)
        results = Executor().map(js, cache)
        assert results[0].cached


class TestCliParallelAndCache:
    def test_run_parallel_with_cache_dir(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["run", "fig20", "--parallel", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "12 computed, 0 cache hits" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 computed, 12 cache hits" in out

    def test_run_no_cache(self, capsys):
        from repro.cli import main

        assert main(["run", "fig20", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "12 computed, 0 cache hits" in out


class TestRngRegistryPickling:
    def test_round_trip_preserves_mid_sequence_state(self):
        registry = RngRegistry(42)
        stream = registry.stream("red")
        [stream.random() for _ in range(10)]

        clone = pickle.loads(pickle.dumps(registry))
        assert clone == registry
        assert clone.master_seed == 42
        assert clone.stream("red").random() == registry.stream("red").random()
        # Streams first opened after unpickling also agree.
        assert clone.stream("new").random() == registry.stream("new").random()


