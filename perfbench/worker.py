"""The in-process workload of the benchmark: ``point_cold``.

Started by ``run.py`` in a fresh process with an isolated environment
(fresh ``REPRO_CACHE_DIR``, ledger off, one BLAS thread).  Protocol on
standard output: one ``READY`` line the moment set-up is done, then one
JSON line with every op's latency and check result.

``--golden PATH`` regenerates the ``point_cold`` reference values.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402  (benchmark-local module)

GOLDEN_PATH = os.path.join(HERE, "golden_point_cold.json")
METHOD = "sigma_ceiling"
#: ``point_cold``'s tuning parameter (a Table 2 value of the method).
PARAMETER = 0.03
#: Relaxed clocks (ns) ``serve_warm`` draws its clock from:
#: the tiny scale's Table 1 "medium" point (1.66 x the 1.4978 ns
#: minimum) and the seven 10 ps steps above it.
RELAXED_CLOCKS = tuple(round(2.49 + 0.01 * k, 2) for k in range(8))
#: Relative tolerance of the golden comparison (``check --baseline``'s).
RTOL = 0.05
#: ``peak_rss_mb`` covers set-up and this many ops.  ``point_cold``'s
#: flow keeps every run it computed (about 7 MB per op), so a peak over
#: more ops would grow with the number of ops that fit in a window.
RSS_OPS = 1
#: Host-probe samples per batch: after every op here, and before and
#: after every worker in ``run.py``.
PROBE_BATCH = 20


def flow_config():
    from repro.flow.experiment import FlowConfig

    return FlowConfig.from_env(scale="tiny", jobs=1, backend="serial")


def relaxed_clock(seed: int) -> float:
    return RELAXED_CLOCKS[random.Random(seed).randrange(len(RELAXED_CLOCKS))]


def run_summary(flow, period: float) -> dict:
    """One op's checked outputs (read from the flow's in-memory runs)."""
    comparison = flow.compare(period, METHOD, PARAMETER)
    baseline = flow.baseline(period)
    tuned = flow.tuned(period, METHOD, PARAMETER)
    return {
        "clock": period,
        "baseline_sigma": comparison.baseline_sigma,
        "tuned_sigma": comparison.tuned_sigma,
        "baseline_area": comparison.baseline_area,
        "tuned_area": comparison.tuned_area,
        "baseline_met": baseline.met,
        "tuned_met": comparison.tuned_met,
        "baseline_instances": baseline.n_instances,
        "tuned_instances": tuned.n_instances,
    }


def golden_mismatch(got: dict, want: dict) -> str:
    """Empty when ``got`` matches the golden entry, else the reason."""
    for name in ("baseline_sigma", "tuned_sigma", "baseline_area", "tuned_area"):
        if abs(got[name] - want[name]) > RTOL * abs(want[name]):
            return f"{name} {got[name]!r} vs golden {want[name]!r}"
    for name in ("baseline_met", "tuned_met", "baseline_instances", "tuned_instances"):
        if got[name] != want[name]:
            return f"{name} {got[name]!r} vs golden {want[name]!r}"
    return ""


class PointCold:
    """``TuningFlow.compare`` at successive tight clocks on one flow.

    Every clock is new to the store, so each op synthesizes baseline
    and tuned designs, extracts paths, computes statistics and writes
    six artifacts.  The clocks all lie in the window where the sizing
    loop does identical work (see NOTES.md), so ops are near-identical.
    """

    def __init__(self, seed: int):
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            self.golden = json.load(handle)["points"]
        self.start = random.Random(seed).randrange(len(self.golden))
        self.limit = len(self.golden)

    def setup(self) -> None:
        from repro.flow.experiment import TuningFlow

        self.flow = TuningFlow(flow_config())
        self.flow.statistical_library
        self.flow.tuning(METHOD, PARAMETER)

    def op(self, index: int):
        want = self.golden[(self.start + index) % len(self.golden)]
        period = want["clock"]
        self.flow.compare(period, METHOD, PARAMETER)
        return lambda: golden_mismatch(run_summary(self.flow, period), want)


WORKLOADS = {"point_cold": PointCold}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_loop(iterations: int = 20_000, size: int = 10_000) -> int:
    """The host probe's fixed loop (see ``run.HostProbe``): plain Python
    plus NumPy, no program code; about 6 ms on a fast host."""
    import numpy as np

    total = 0
    for i in range(iterations):
        total += (i * i) % 7
    values = np.linspace(0.0, 10.0, size)
    for _ in range(20):
        total += int(np.sort(np.sin(values * total % 3.0))[-1] > 0)
    return total


def probe_samples(count: int) -> list:
    """``count`` timings of the calibration loop, in ms."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        calibration_loop()
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def timed_run(workload, seconds: float, recorder) -> dict:
    """Closed loop for ``seconds``; with a recorder, every other op is
    traced (the untraced ones give the tracing overhead).  After every
    op the host is probed; the probe's time extends the loop and is not
    part of the timed phase."""
    latencies, oks, traced, errors, probe_ms = [], [], [], [], []
    probe_s = 0.0
    phase_start = time.perf_counter()
    deadline = phase_start + seconds
    index = 0
    while time.perf_counter() < deadline and index < workload.limit:
        trace_this = recorder is not None and index % 2 == 0
        gc.collect()
        if trace_this:
            recorder.start("op")
        error = ""
        start = time.perf_counter()
        try:
            check = workload.op(index)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            elapsed = time.perf_counter() - start
            check = None
            error = f"{type(exc).__name__}: {exc}"
        if trace_this:
            recorder.stop()
        if check is not None:
            error = check()
        latencies.append(elapsed * 1e3)
        oks.append(not error)
        traced.append(trace_this)
        if error and len(errors) < 5:
            errors.append(error)
        index += 1
        if index == RSS_OPS:
            rss_mb = peak_rss_mb()
        probe_start = time.perf_counter()
        probe_ms += probe_samples(PROBE_BATCH)
        deadline += time.perf_counter() - probe_start
        probe_s += time.perf_counter() - probe_start
    if index < RSS_OPS:
        rss_mb = peak_rss_mb()
    return {
        "latencies_ms": latencies,
        "ok": oks,
        "traced": traced,
        "errors": errors,
        "phase_s": time.perf_counter() - phase_start - probe_s,
        "rss_mb": rss_mb,
        "probe_ms": probe_ms,
    }


def make_golden(path: str) -> None:
    """Survey clocks from 1.5000 ns upward in 0.1 ps steps; keep the
    leading run of clocks whose work counters equal the first clock's."""
    from repro.observe import Tracer, set_tracer
    from repro.flow.experiment import TuningFlow

    flow = TuningFlow(flow_config())
    flow.tuning(METHOD, PARAMETER)
    points, signature = [], None
    for k in range(64):
        period = round(1.5 + 0.0001 * k, 4)
        tracer = Tracer()
        set_tracer(tracer)
        entry = run_summary(flow, period)
        set_tracer(None)
        counters = {name: tracer.counters().get(name, 0) for name in layers.COUNTERS}
        if signature is None:
            signature = counters
        if counters != signature:
            break
        points.append(entry)
        print(f"{period:.4f} ok", file=sys.stderr, flush=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"counters": signature, "points": points}, handle, indent=1)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", help="trace the run; write spans here")
    parser.add_argument("--golden", metavar="PATH")
    args = parser.parse_args()
    if args.golden:
        make_golden(args.golden)
        return 0
    workload = WORKLOADS[args.workload](args.seed)
    recorder = layers.Recorder() if args.spans else None
    if recorder is not None:
        recorder.start("setup")
    workload.setup()
    if recorder is not None:
        recorder.stop()
    print("READY", flush=True)
    result = timed_run(workload, args.seconds, recorder)
    if recorder is not None:
        recorder.dump(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
