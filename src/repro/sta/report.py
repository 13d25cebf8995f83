"""Human-readable timing/variation reports (tool-style text output)."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.liberty.model import Library
from repro.sta.engine import TimingResult
from repro.sta.paths import TimingPath, WorstPaths, extract_worst_paths, worst_path
from repro.sta.statistics import design_statistics, path_statistics


def format_path(path: TimingPath) -> str:
    """One path in the classic report_timing layout."""
    lines = [
        f"Path to {path.endpoint.name} ({path.endpoint.kind})",
        f"{'cell':<24} {'arc':<10} {'delay':>8} {'slew':>8} {'load':>9}  arrival",
    ]
    arrival = 0.0
    for step in path.steps:
        arrival += step.delay
        arc = f"{step.related_pin}->{step.out_pin}"
        lines.append(
            f"{step.cell_name:<24} {arc:<10} {step.delay:8.4f} {step.slew:8.4f} "
            f"{step.load:9.5f}  {arrival:8.4f}"
        )
    lines.append(
        f"depth {path.depth} cells; arrival {path.arrival:.4f} ns, "
        f"required {path.required:.4f} ns, slack {path.slack:+.4f} ns"
    )
    return "\n".join(lines)


def timing_summary(result: TimingResult) -> str:
    """WNS/TNS one-liner plus the most critical path."""
    lines = [
        f"clock {result.clock_period:.3f} ns (effective "
        f"{result.effective_period:.3f} ns after {result.guard_band:.3f} ns guard band)",
        f"endpoints {len(result.graph.endpoints)}, WNS {result.wns:+.4f} ns, "
        f"TNS {result.tns:+.3f} ns, timing {'MET' if result.met else 'VIOLATED'}",
        "",
        format_path(worst_path(result)),
    ]
    return "\n".join(lines)


def variation_summary(
    result: TimingResult,
    statistical_library: Library,
    rho: float = 0.0,
    paths: Optional[WorstPaths] = None,
) -> str:
    """Design-level sigma report (eq. 11 roll-up)."""
    chosen = paths if paths is not None else extract_worst_paths(result)
    design = design_statistics(chosen, statistical_library, rho=rho)
    worst = max(design.path_stats, key=lambda p: p.three_sigma)
    lines = [
        f"design sigma {design.sigma:.4f} ns over {design.n_paths} endpoint paths "
        f"(rho={rho:g})",
        f"worst path mu+3sigma {worst.three_sigma:.4f} ns "
        f"(mu {worst.mean:.4f}, sigma {worst.sigma:.4f}, depth {worst.depth})",
    ]
    return "\n".join(lines)


def path_table(
    paths: Iterable[TimingPath], library: Library, rho: float = 0.0
) -> str:
    """Depth/mean/sigma table over paths (Figs. 13-14 data)."""
    lines = [f"{'endpoint':<40} {'depth':>5} {'mean':>9} {'sigma':>9} {'mu+3s':>9}"]
    for path in paths:
        stats = path_statistics(path, library, rho=rho)
        lines.append(
            f"{path.endpoint.name:<40} {stats.depth:>5} {stats.mean:9.4f} "
            f"{stats.sigma:9.4f} {stats.three_sigma:9.4f}"
        )
    return "\n".join(lines)
