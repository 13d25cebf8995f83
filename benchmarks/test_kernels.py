"""Bench: scalar reference vs vectorized kernel, cold fig10-style slice.

One cold pass per kernel through the pipeline the Fig. 10 experiment
exercises — Monte-Carlo statistical characterization, synthesis-side
STA, worst-path extraction and design statistics — with no cache in
play.  The two legs must be bit-identical (that is the whole contract
of :mod:`repro.kernels`), and the vectorized leg must be at least
``MIN_SPEEDUP`` x faster; both land in ``BENCH_<runid>.json``.
"""

from __future__ import annotations

import time

from conftest import show

from repro.cells.catalog import build_catalog, family_strengths
from repro.cells.naming import format_cell_name, parse_cell_name
from repro.characterization.characterize import Characterizer
from repro.experiments.base import ExperimentResult
from repro.kernels.dispatch import use_kernel
from repro.netlist.builder import NetlistBuilder
from repro.sta.paths import extract_worst_paths
from repro.sta.statistics import design_statistics
from repro.synth.constraints import SynthesisConstraints
from repro.synth.synthesizer import synthesize

#: Acceptance floor for the vectorized kernel on the cold slice.
MIN_SPEEDUP = 5.0

#: A catalog slice with every topology class the bench design binds.
FAMILIES = ["INV", "BUF", "ND2", "NR2", "ADDF", "DFF"]


def _bind(netlist, specs, strength=2.0):
    cache = {}
    for instance in netlist:
        if instance.family not in cache:
            strengths = family_strengths(specs, instance.family)
            chosen = min(strengths, key=lambda s: abs(s - strength))
            parsed = parse_cell_name(f"{instance.family}_1")
            cache[instance.family] = format_cell_name(
                parsed.function, chosen, n_inputs=parsed.n_inputs,
                ability=parsed.ability,
            )
        instance.cell = cache[instance.family]
    return netlist


def _design(specs):
    """Registered 8-bit ripple adder — deep carry chain, wide levels."""
    builder = NetlistBuilder("kernelbench")
    builder.clock()
    a = builder.register(builder.input_bus("a", 8))
    b = builder.register(builder.input_bus("b", 8))
    total, carry = builder.ripple_adder(a, b)
    builder.register(total + [carry])
    builder.output("co", carry)
    netlist = builder.netlist
    netlist.validate()
    return _bind(netlist, specs)


def _cold_slice(kernel, specs):
    """Cold characterize + synthesize + statistics under one kernel."""
    with use_kernel(kernel):
        library = Characterizer(kernel=kernel).statistical_library(
            specs, n_samples=10, seed=3
        )
        synthesis = synthesize(
            _design(specs), library, SynthesisConstraints(clock_period=2.4)
        )
        paths = extract_worst_paths(synthesis.timing)
        return design_statistics(paths, library, kernel=kernel)


def test_kernel_speedup(benchmark):
    specs = build_catalog(families=FAMILIES)

    start = time.perf_counter()
    scalar_stats = _cold_slice("scalar", specs)
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    vectorized_stats = _cold_slice("vectorized", specs)
    vectorized_s = time.perf_counter() - start

    # the contract first: identical science, or the speedup is moot
    assert scalar_stats == vectorized_stats

    speedup = scalar_s / vectorized_s
    benchmark.extra_info["n_cells"] = len(specs)
    benchmark.extra_info["scalar_s"] = round(scalar_s, 4)
    benchmark.extra_info["vectorized_s"] = round(vectorized_s, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)

    show(ExperimentResult(
        experiment_id="kernels",
        title="Cold fig10-style slice: scalar reference vs vectorized kernel",
        rows=[
            {
                "leg": "scalar",
                "wall_s": round(scalar_s, 4),
                "speedup": 1.0,
                "design_sigma": round(scalar_stats.sigma, 6),
            },
            {
                "leg": "vectorized",
                "wall_s": round(vectorized_s, 4),
                "speedup": round(speedup, 3),
                "design_sigma": round(vectorized_stats.sigma, 6),
            },
        ],
        notes=f"bit-identical legs; floor {MIN_SPEEDUP:.0f}x",
    ))
    print(
        f"\nscalar {scalar_s:.2f}s  vectorized {vectorized_s:.2f}s  "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized kernel only {speedup:.1f}x faster than scalar "
        f"(floor {MIN_SPEEDUP}x)"
    )

    # timed leg for the bench JSON: one cold vectorized slice
    benchmark.pedantic(
        _cold_slice, args=("vectorized", specs), rounds=1, iterations=1
    )
