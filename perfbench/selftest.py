"""Self-test of the benchmark's exact work counters.

    python3 perfbench/selftest.py [--workload point_cold] [--seed 0] [--seconds 20]

Makes two traced runs of the same code and seed and fails (exit 1) if
they disagree on any per-op work counter: arc evaluations, analyze
calls, sizing iterations, synthesize calls, artifact writes and reads.
On ``point_cold`` the counters must also equal the ones recorded beside
the golden values.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MARKER = "# work counters per traced op: "
#: golden counter name -> work-counter name.
GOLDEN_NAMES = {
    "sta.arc_evaluations": "arc_evaluations",
    "sta.analyze_calls": "analyze_calls",
    "synth.sizing_iterations": "sizing_iterations",
    "synth.calls": "synthesize_calls",
}


def traced_counters(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"traced run failed:\n{proc.stdout}\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    raise SystemExit("traced run printed no work counters")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="point_cold")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    first = traced_counters(args.workload, args.seed, args.seconds)
    second = traced_counters(args.workload, args.seed, args.seconds)
    failures = [
        f"{name}: {first.get(name)} vs {second.get(name)}"
        for name in sorted(set(first) | set(second))
        if first.get(name) != second.get(name)
    ]
    if args.workload == "point_cold":
        with open(os.path.join(HERE, "golden_point_cold.json"), encoding="utf-8") as handle:
            golden = json.load(handle)["counters"]
        for golden_name, name in GOLDEN_NAMES.items():
            if first.get(name) != golden[golden_name]:
                failures.append(
                    f"{name}: {first.get(name)} vs golden {golden[golden_name]}"
                )
    print(json.dumps(first, sort_keys=True))
    for failure in failures:
        print(f"MISMATCH {failure}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
