"""repro.perf — benchmarking and profiling for the simulation kernel.

This package is the measurement side of the fast-path overhaul:

* :mod:`repro.perf.timing` — min-of-k monotonic timing primitives;
* :mod:`repro.perf.micro` — kernel microbenchmarks (event churn, probe
  emission, series bulk loads, windowed averages);
* :mod:`repro.perf.macro` — the packet-forwarding macrobenchmark on a
  fig04-style dumbbell, plus end-to-end figure-job timings;
* :mod:`repro.perf.reference` — the frozen pre-overhaul kernel and
  forwarding stack every benchmark is measured against;
* :mod:`repro.perf.schema` — the deterministic ``BENCH_*.json`` shape;
* :mod:`repro.perf.compare` — ``bench --compare`` regression deltas;
* :mod:`repro.perf.profiling` — the ``repro profile`` cProfile wrapper.

Determinism note: this package is on the simlint D002 allowlist — it is
the *one* place in the tree allowed to read wall-clock time
(``time.perf_counter``), because measuring wall time is its entire
purpose.  Nothing here feeds simulation results; BENCH documents carry
measurements, never figure data.
"""

from __future__ import annotations

from repro.perf.compare import (
    compare_documents,
    gate_failures,
    load_bench,
    render_comparison,
)
from repro.perf.macro import figure_benchmarks, packet_forwarding_benchmark
from repro.perf.micro import kernel_microbenchmarks
from repro.perf.profiling import profile_figure
from repro.perf.schema import (
    BENCH_SCHEMA,
    BenchSchemaError,
    dump_document,
    new_document,
    validate_bench,
)
from repro.perf.timing import TimingResult, min_of_k

__all__ = [
    "BENCH_SCHEMA",
    "BenchSchemaError",
    "TimingResult",
    "compare_documents",
    "dump_document",
    "figure_benchmarks",
    "gate_failures",
    "kernel_microbenchmarks",
    "load_bench",
    "min_of_k",
    "new_document",
    "packet_forwarding_benchmark",
    "profile_figure",
    "render_comparison",
    "validate_bench",
]
