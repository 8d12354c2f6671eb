"""Where and when a job runs is a throughput matter, never a correctness one.

The executor's machinery (inline fast path, warm pools, packed
transport, batched pack writes) must be invisible in every output byte:
these tests drive *arbitrary* execution orders and both execution
places — the coordinating process and a real two-worker pool — through
the pipeline and assert byte-identical reduced tables and identical
on-disk cache contents.  The cache comparison is deliberately a
whole-tree byte fingerprint — batched pack files are sorted on flush, so
even *file* bytes must not depend on completion order.

Jobs execute in submission order, so an execution order is forced by
permuting the submitted list and un-permuting the results.  The pool is
forced with ``job_timeout=``: a timeout needs the worker-isolation
boundary, so the executor itself switches the inline fast path off.
"""

import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import fig11_convergence_analysis as fig11
from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.cache import ResultCache
from repro.experiments.costmodel import CostModel
from repro.experiments.executor import Executor

N_JOBS = len(fig20.jobs("fast"))
#: Generous: it only has to be set, never to fire.
POOL_FORCING_TIMEOUT_S = 120.0


def _run_with_order(order, tmp_root, executor=None):
    """One map of fig20 (serial by default) executed in ``order``."""
    jobs = fig20.jobs("fast")
    cache = ResultCache(tmp_root)
    permuted = (executor or Executor()).map([jobs[i] for i in order], cache)
    results = [None] * len(jobs)
    for rank, i in enumerate(order):
        results[i] = permuted[rank]
    return fig20.reduce(results).format(), _fingerprint(tmp_root)


def _fingerprint(root) -> dict[str, bytes]:
    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestPermutationProperty:
    @given(order=st.permutations(range(N_JOBS)))
    @settings(max_examples=25, deadline=None)
    def test_any_dispatch_permutation_is_byte_identical(self, order):
        with tempfile.TemporaryDirectory() as canonical_dir:
            with tempfile.TemporaryDirectory() as permuted_dir:
                reference = _run_with_order(range(N_JOBS), canonical_dir)
                permuted = _run_with_order(order, permuted_dir)
                assert permuted[0] == reference[0]  # table bytes
                assert permuted[1] == reference[1]  # cache tree bytes

    @pytest.mark.parametrize(
        "order",
        [
            list(reversed(range(N_JOBS))),
            list(range(1, N_JOBS)) + [0],
            sorted(range(N_JOBS), key=lambda i: i % 3),
        ],
    )
    def test_pooled_permutations_are_byte_identical(self, order, tmp_path):
        # Same property through real worker pools: every job takes the
        # pool round-trip, submitted in the permuted order.
        reference = _run_with_order(range(N_JOBS), tmp_path / "ref")
        executor = Executor(2, job_timeout=POOL_FORCING_TIMEOUT_S)
        try:
            pooled = _run_with_order(order, tmp_path / "pooled", executor)
            assert executor.last_report.inlined == 0
        finally:
            executor.close()
        assert pooled == reference


class TestConfigurationMatrix:
    """The matrix has one cell left — the places a job can run in it."""

    def test_two_worker_pooled_map_matches_serial(self, tmp_path):
        jobs = fig11.jobs("fast")
        serial_cache = ResultCache(tmp_path / "serial")
        serial = fig11.reduce(Executor().map(jobs, serial_cache)).format()
        executor = Executor(2, job_timeout=POOL_FORCING_TIMEOUT_S)
        try:
            parallel_cache = ResultCache(tmp_path / "parallel")
            parallel = fig11.reduce(executor.map(jobs, parallel_cache)).format()
            assert executor.last_report.inlined == 0
        finally:
            executor.close()
        assert parallel == serial
        assert _fingerprint(tmp_path / "parallel") == _fingerprint(
            tmp_path / "serial"
        )

    def test_inline_fast_path_matches_pooled(self, tmp_path):
        jobs = fig20.jobs("fast")
        inline_exec = Executor(2)  # analysis jobs inline
        pooled_exec = Executor(
            workers=2, job_timeout=POOL_FORCING_TIMEOUT_S
        )
        try:
            inline_cache = ResultCache(tmp_path / "inline")
            inline = fig20.reduce(inline_exec.map(jobs, inline_cache)).format()
            assert inline_exec.last_report.inlined == len(jobs)
            pooled_cache = ResultCache(tmp_path / "pooled")
            pooled = fig20.reduce(pooled_exec.map(jobs, pooled_cache)).format()
            assert pooled_exec.last_report.inlined == 0
        finally:
            inline_exec.close()
            pooled_exec.close()
        assert inline == pooled
        assert _fingerprint(tmp_path / "inline") == _fingerprint(tmp_path / "pooled")

    def test_inline_decision_uses_learned_costs(self):
        # The cost model's one reader: after a scenario has been observed
        # slow, its jobs stop taking the inline path.
        model = CostModel()
        jobs = fig20.jobs("fast") + fig11.jobs("fast")[:1]
        model.observe(jobs[-1], 100.0)  # fig11's scenario measured huge
        executor = Executor(2, cost_model=model)
        try:
            executor.map(jobs)
            assert executor.last_report.inlined == len(jobs) - 1
        finally:
            executor.close()
