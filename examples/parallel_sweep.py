#!/usr/bin/env python3
"""Parallel, cached figure regeneration through ``run_figure``.

``run_figure(name, scale, executor=..., cache=...)`` is the one road from
a figure name to its table: the figure module describes its work as
``jobs(scale)`` — pure, picklable simulation points — and formats results
with ``reduce(results)``; the executor fans the work out over a process
pool and the content-addressed cache replays previous results, without
changing a single number in the output table.

This example regenerates Figure 10 (convergence time for two TCP(b)
flows) three ways and shows they agree exactly:

1. in this process, cold;
2. in parallel across worker processes, cold (byte-identical table);
3. in this process again against the warm cache (zero simulations run).

Runs in well under a minute at the fast scale.
"""

import tempfile

from repro.experiments import Executor, ResultCache, run_figure

OVERRIDES = dict(bs=[0.5, 0.25, 0.125])


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        cache = ResultCache(cache_dir)

        serial = Executor()  # zero workers: every job runs here
        table_serial = run_figure("fig10", executor=serial, **OVERRIDES)
        print(f"Figure 10 sweep: {serial.last_report.jobs} jobs "
              f"(one per (b, seed) pair, each with a stable content hash)")
        print("\n--- serial, no cache ---")
        print(table_serial.format())

        with Executor(2) as parallel:
            table_parallel = run_figure(
                "fig10", executor=parallel, cache=cache, **OVERRIDES
            )
        report = parallel.last_report
        print("\n--- parallel (2 workers), populating the cache ---")
        print(f"computed {report.computed} of {report.jobs} jobs in parallel")

        warm = run_figure("fig10", executor=serial, cache=cache, **OVERRIDES)
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
