"""The markdown grid report, rendered from hand-built sweep results
(no flows, no store — pure formatting)."""

from __future__ import annotations

from repro.flow.metrics import TuningComparison
from repro.sweep import (
    GridPoint,
    PointResult,
    SweepGrid,
    SweepResult,
    render_sweep_report,
)


def _comparison(point: GridPoint, met: bool = True) -> TuningComparison:
    return TuningComparison(
        method=point.method,
        parameter=point.parameter,
        clock_period=point.clock_period,
        baseline_sigma=0.10,
        tuned_sigma=0.08,
        baseline_area=1000.0,
        tuned_area=1050.0,
        tuned_met=met,
    )


def _result(points_statuses, scheduled=0, backend="serial"):
    results = [
        PointResult(point=p, status=s, comparison=_comparison(p, met))
        for p, s, met in points_statuses
    ]
    counts = {
        status: sum(1 for r in results if r.status == status)
        for status in ("hit", "skip", "run")
    }
    designs = tuple(dict.fromkeys(r.point.design for r in results))
    return SweepResult(
        grid=SweepGrid(
            designs=designs,
            methods=("sigma_ceiling",),
            parameters=(0.5,),
            clock_periods=(3.0,),
        ),
        results=results,
        counts=counts,
        scheduled=scheduled,
        backend=backend,
        statlib_key="a" * 64,
        design_keys={design: "b" * 64 for design in designs},
        wall=1.5,
    )


class TestReport:
    def test_header_summarizes_incremental_counts(self):
        result = _result(
            [
                (GridPoint("microcontroller", "sigma_ceiling", 0.5, 3.0),
                 "run", True),
                (GridPoint("sensor", "sigma_ceiling", 0.5, 3.0),
                 "hit", True),
            ],
            scheduled=2,
            backend="process",
        )
        report = render_sweep_report(result)
        assert "# Design-family sweep" in report
        assert "1 run, 0 skip (shared baseline only), 1 hit" in report
        assert "(2 tasks dispatched)" in report
        assert "backend: process" in report
        assert f"`{'a' * 12}`" in report

    def test_per_design_grids_and_results_rows(self):
        result = _result(
            [
                (GridPoint("microcontroller", "sigma_ceiling", 0.5, 3.0),
                 "hit", True),
                (GridPoint("sensor", "sigma_ceiling", 0.5, 3.0),
                 "skip", True),
            ]
        )
        report = render_sweep_report(result)
        assert "### microcontroller" in report
        assert "### sensor" in report
        assert "| 3 ns |" in report
        assert "| sigma_ceiling | hit |" in report
        assert "| sigma_ceiling | skip |" in report
        assert (
            "| microcontroller | sigma_ceiling | 0.5 | 3 | hit "
            "| +20.0% | +5.0% |" in report
        )

    def test_mixed_cell_shows_per_status_counts(self):
        points = [
            (GridPoint("microcontroller", "sigma_ceiling", p, 3.0), s, True)
            for p, s in ((0.25, "hit"), (0.5, "run"), (0.75, "run"))
        ]
        report = render_sweep_report(_result(points))
        assert "hit x1, run x2" in report

    def test_uniform_multi_point_cell_is_counted(self):
        points = [
            (GridPoint("microcontroller", "sigma_ceiling", p, 3.0),
             "hit", True)
            for p in (0.25, 0.5)
        ]
        report = render_sweep_report(_result(points))
        assert "hit x2" in report

    def test_infeasible_point_marked(self):
        result = _result(
            [
                (GridPoint("microcontroller", "sigma_ceiling", 0.5, 3.0),
                 "run", False),
            ],
            scheduled=2,
        )
        report = render_sweep_report(result)
        assert "infeasible" in report
        assert "+20.0%" not in report
