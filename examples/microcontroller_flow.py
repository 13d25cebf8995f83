"""The paper's evaluation flow on the microcontroller design.

Synthesizes the gate-level microcontroller baseline and under the
sigma-ceiling tuning at a tight and a relaxed clock, and prints the
Fig. 10/11-style comparison: sigma reduction vs area increase.

Scale: defaults to the quick flow (a few seconds per synthesis); set
REPRO_SCALE=paper for the full ~18k-gate design.

Run:  python examples/microcontroller_flow.py
"""

from __future__ import annotations

from repro.experiments.base import ExperimentContext
from repro.sta.report import timing_summary, variation_summary


def main() -> None:
    context = ExperimentContext()
    flow = context.flow
    design = flow.build_design()
    stats = design.stats()
    print(
        f"design: {design.name}, {stats['instances']} instances "
        f"({stats['sequential']} flip-flops), "
        f"{max(design.levelize().values())} logic levels"
    )

    minimum = context.minimum_period()
    periods = context.standard_periods()
    print(f"minimum clock period (failing-slack search): {minimum:g} ns")
    print(f"operating points (paper-ratio derived): {periods}")

    # the first call of a point returns its live run (with the timing
    # graph, when it synthesized); the flow memoizes runs without it
    baselines = {}
    for point in ("high", "medium"):
        period = periods[point]
        print(f"\n--- {point} performance: {period:g} ns ---")
        baseline = baselines[point] = flow.baseline(period)
        print(
            f"baseline: area {baseline.area:.0f} um^2, "
            f"design sigma {baseline.design_sigma:.4f} ns, met={baseline.met}"
        )
        for ceiling in (0.04, 0.03):
            comparison = flow.compare(period, "sigma_ceiling", ceiling)
            print(f"  {comparison.summary()}")

    print("\nworst path of the high-performance baseline:")
    run = baselines["high"]
    if run.result is not None:
        print(timing_summary(run.timing))
        print()
        print(
            variation_summary(run.timing, flow.statistical_library, paths=run.paths)
        )
    else:
        # served from the artifact store: no live timing graph, but the
        # measurements are all there
        worst = max(run.paths, key=lambda p: p.arrival)
        print(
            f"(warm artifact store; run `python -m repro store clear` for a "
            f"live timing graph)\n"
            f"worst arrival {worst.arrival:.4f} ns over {len(run.paths)} "
            f"endpoint paths, design sigma {run.design_sigma:.4f} ns"
        )


if __name__ == "__main__":
    main()
