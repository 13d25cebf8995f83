"""Bench: serial vs parallel Monte-Carlo characterization (smoke).

Records serial and parallel wall time (and their ratio) into the bench
JSON via ``benchmark.extra_info``, and asserts the fan-out stays
bit-identical to the serial path.  On single-core runners the parallel
path cannot win; the benchmark documents the overhead instead of
asserting a speedup.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cells.catalog import build_catalog
from repro.characterization.characterize import Characterizer

#: Worker count for the parallel leg (capped: this is a smoke bench).
JOBS = min(4, os.cpu_count() or 1) if (os.cpu_count() or 1) > 1 else 2


def _characterize(characterizer, specs, n_workers):
    return characterizer.statistical_library(
        specs, n_samples=30, seed=7, n_workers=n_workers
    )


def test_parallel_speedup(benchmark):
    specs = build_catalog()[:120]
    characterizer = Characterizer()

    start = time.perf_counter()
    serial = _characterize(characterizer, specs, n_workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = _characterize(characterizer, specs, n_workers=JOBS)
    parallel_s = time.perf_counter() - start

    benchmark.extra_info["n_cells"] = len(specs)
    benchmark.extra_info["n_workers"] = JOBS
    benchmark.extra_info["cpu_count"] = os.cpu_count() or 1
    benchmark.extra_info["serial_s"] = round(serial_s, 4)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 4)
    benchmark.extra_info["speedup"] = round(serial_s / parallel_s, 3)
    print(
        f"\nserial {serial_s:.2f}s  parallel({JOBS}) {parallel_s:.2f}s  "
        f"speedup {serial_s / parallel_s:.2f}x on {os.cpu_count()} CPUs"
    )

    # correctness smoke: the fan-out must be bit-identical
    for name in (specs[0].name, specs[-1].name):
        arc_serial = serial.cell(name).output_pins()[0].timing[0]
        arc_parallel = parallel.cell(name).output_pins()[0].timing[0]
        assert np.array_equal(arc_serial.cell_rise.values, arc_parallel.cell_rise.values)
        assert np.array_equal(arc_serial.sigma_fall.values, arc_parallel.sigma_fall.values)

    # timed leg for the bench JSON: one parallel characterization
    benchmark.pedantic(
        _characterize, args=(characterizer, specs, JOBS), rounds=1, iterations=1
    )
