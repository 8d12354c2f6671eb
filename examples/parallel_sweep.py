#!/usr/bin/env python3
"""Parallel, cached figure regeneration through ``run_figure``.

``run_figures(names, scale, executor=..., cache=...)`` is the one road
from figure names to their tables, and ``run_figure(name, ...)`` is its
one-name form: the figure module describes its work as
``jobs(scale)`` — pure, picklable simulation points — and formats results
with ``reduce(results)``; the executor fans the work out over a process
pool and the content-addressed cache replays previous results, without
changing a single number in the output table.

This example regenerates Figure 10 (convergence time for two TCP(b)
flows) three ways — ten jobs, five decrease factors b times two seeds —
and shows they agree exactly:

1. in this process, cold;
2. in parallel across worker processes, cold (byte-identical table);
3. in this process again against the warm cache (zero simulations run).

Runs in under a minute at the fast scale (about 40 s on two cores).
"""

import tempfile

from repro.experiments import Executor, ResultCache, run_figure


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        cache = ResultCache(cache_dir)

        serial = Executor()  # zero workers: every job runs here
        table_serial = run_figure("fig10", executor=serial)
        print(f"Figure 10 sweep: {serial.last_report.jobs} jobs "
              f"(one per (b, seed) pair, each with a stable content hash)")
        print("\n--- serial, no cache ---")
        print(table_serial.format())

        with Executor(2) as parallel:
            table_parallel = run_figure("fig10", executor=parallel, cache=cache)
        report = parallel.last_report
        print("\n--- parallel (2 workers), populating the cache ---")
        print(f"computed {report.computed} of {report.jobs} jobs in parallel")

        warm = run_figure("fig10", executor=serial, cache=cache)
        report = serial.last_report
        print("\n--- serial again, warm cache ---")
        print(f"cache hits: {report.cache_hits}/{report.jobs} "
              f"(computed {report.computed})")

        assert table_parallel.format() == table_serial.format()
        assert warm.format() == table_serial.format()
        assert report.computed == 0
        print("\nparallel and cached tables are byte-identical to serial")


if __name__ == "__main__":
    main()
