"""Paper-scale timing: the costs that the tiny and quick scales hide.

    PYTHONPATH=src python benchmarks/paper_scale_timing.py [--check]

Builds the paper-scale evaluation design (~18k gates), compiles it once
(the flow's shared :class:`~repro.sta.graph.CompiledDesign`), binds one
timing graph on it, and runs one relaxed baseline point (a 4.0 ns
clock: synthesis, worst paths and design statistics; the compile is
already paid) against the tiny flow's 10-sample statistical library,
with no artifact store.  It then runs one more
full STA pass over the point's timing graph, extracts the point's worst
paths once more and writes the whole run (summary, worst paths, step
sigmas) as its ``synth`` artifact to a temporary store.  It prints each
wall time and the point's deterministic work counters.

This is a script, not a benchmark workload: wall times are printed,
never gated.  ``--check`` compares the deterministic counts (design
instances, instances removed as dangling, synthesized instances, sizing
iterations, full STA passes, worst paths and their steps) with
:data:`EXPECTED` and exits 1 when one differs.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.flow.experiment import FlowConfig, TuningFlow
from repro.netlist.generators.microcontroller import MicrocontrollerParams
from repro.netlist.model import Netlist
from repro.observe import Tracer, set_tracer
from repro.parallel.artifacts import ArtifactStore
from repro.sta.engine import analyze
from repro.sta.graph import TimingGraph, cell_tables
from repro.sta.paths import extract_worst_paths
from repro.synth.mapping import VariantTables, initial_mapping
from repro.synth.constraints import SynthesisConstraints

#: Clock period of the relaxed baseline point (ns).
PERIOD = 4.0

#: The deterministic counts ``--check`` asserts exactly.
EXPECTED = {
    "design.instances": 18067,
    "design.pruned": 7296,
    "synth.instances": 18148,
    "synth.sizing_iterations": 10,
    "sta.analyze_calls": 12,
    "paths.count": 3547,
    "paths.steps": 67674,
}


def measure() -> dict:
    """Time each stage once; returns the counts and the wall times."""
    flow = TuningFlow(
        replace(FlowConfig.tiny(), design=MicrocontrollerParams(), cache=False)
    )
    library = flow.statistical_library

    pruned = []
    prune = Netlist.prune_dangling

    def counting_prune(netlist: Netlist) -> int:
        pruned.append(prune(netlist))
        return pruned[-1]

    Netlist.prune_dangling = counting_prune  # type: ignore[method-assign]
    try:
        start = time.perf_counter()
        design = flow.build_design()
        build_s = time.perf_counter() - start
    finally:
        Netlist.prune_dangling = prune  # type: ignore[method-assign]

    start = time.perf_counter()
    compiled = flow.compiled_design
    compile_s = time.perf_counter() - start
    cell_ids = initial_mapping(
        compiled.design,
        VariantTables(cell_tables(library), SynthesisConstraints(PERIOD)),
    )
    start = time.perf_counter()
    TimingGraph(compiled, library, cell_ids=cell_ids)
    bind_s = time.perf_counter() - start

    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        start = time.perf_counter()
        run = flow.baseline(PERIOD)
        point_s = time.perf_counter() - start
    finally:
        set_tracer(previous)
    counters = tracer.counters()

    start = time.perf_counter()
    analyze(run.timing.graph, PERIOD)
    analyze_s = time.perf_counter() - start

    start = time.perf_counter()
    paths = extract_worst_paths(run.timing)
    extract_s = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as directory:
        start = time.perf_counter()
        ArtifactStore(Path(directory)).store("synth", "0" * 64, run.to_arrays())
        write_s = time.perf_counter() - start
    return {
        "counts": {
            "design.instances": len(design),
            "design.pruned": sum(pruned),
            "synth.instances": run.n_instances,
            "synth.sizing_iterations": int(counters.get("synth.sizing_iterations", 0)),
            "sta.analyze_calls": int(counters.get("sta.analyze_calls", 0)),
            "paths.count": len(run.paths),
            "paths.steps": int(run.paths.depths.sum()),
        },
        "seconds": {
            "design build": build_s,
            "design compile": compile_s,
            "timing graph bind": bind_s,
            f"relaxed {PERIOD} ns point": point_s,
            "one full STA pass": analyze_s,
            "worst-path extraction": extract_s,
            "run artifact write": write_s,
        },
        "met": run.met,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every deterministic count equals EXPECTED",
    )
    args = parser.parse_args(argv)
    report = measure()
    for name, seconds in report["seconds"].items():
        print(f"{name:<24} {seconds:8.3f} s")
    print(f"{'point met':<24} {report['met']}")
    for name, value in report["counts"].items():
        print(f"{name:<24} {value:8d}")
    if args.check:
        wrong = {
            name: (value, EXPECTED[name])
            for name, value in report["counts"].items()
            if value != EXPECTED[name]
        }
        for name, (value, expected) in wrong.items():
            print(f"FAIL: {name} is {value}, expected {expected}", file=sys.stderr)
        return 1 if wrong else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
