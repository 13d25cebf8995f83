"""Start ``python -m repro serve`` with the benchmark's layer wrappers.

Usage: ``serve_launcher.py SPANS_PATH -- <serve arguments>``.

The traced ``serve_warm`` run starts the server through this launcher
instead of ``python -m repro serve``.  The wrappers are installed from
the start (phase ``setup``); the benchmark then toggles traced windows
while no request is in flight: ``SIGUSR1`` opens one (phase ``op``),
``SIGUSR2`` closes it.  On ``SIGINT`` the server stops and the spans and
counters are written to ``SPANS_PATH``.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402  (benchmark-local module)


def main() -> int:
    spans_path, separator, *serve_args = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: serve_launcher.py SPANS_PATH -- <serve args>")
    from repro.__main__ import main as repro_main

    recorder = layers.Recorder()
    signal.signal(signal.SIGUSR1, lambda *_: recorder.start("op"))
    signal.signal(signal.SIGUSR2, lambda *_: recorder.stop())
    recorder.start("setup")
    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.stop()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
