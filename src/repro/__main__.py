"""Command-line entry point: reproduce the paper's tables and figures.

Usage::

    python -m repro list                  # available experiments
    python -m repro run fig04 table2      # run a selection
    python -m repro fig10                 # shorthand for `run fig10`
    python -m repro run --all             # everything (synthesis-heavy)
    python -m repro run --all --jobs 0    # characterize on every CPU
    python -m repro run fig07 --no-cache  # bypass the on-disk store
    python -m repro run fig10 --manifest  # print the stage manifest
    python -m repro fig10 --trace out.jsonl   # record a JSONL trace
    python -m repro fig10 --profile       # print the per-stage time tree
    python -m repro run --all --trace-dir traces/  # one trace per experiment
    python -m repro store stats           # store location and size
    python -m repro store clear           # drop every stored artifact
    python -m repro trace summarize a.jsonl        # flat per-path table
    python -m repro trace diff a.jsonl b.jsonl     # flag wall-time growth
    python -m repro report                # metric/stage trends (ledger)
    python -m repro sweep --designs microcontroller dsp --clocks 3.0
    python -m repro sweep --expect-warm   # assert the grid is fully warm
    python -m repro check --baseline benchmarks/baselines/fig10.json
    python -m repro lint                  # AST contract checker (DESIGN.md §13)
    python -m repro lint --format json    # machine-readable findings
    python -m repro lint --update-baseline    # ratchet committed debt down
    python -m repro serve --port 8731     # tuning-as-a-service HTTP API
    python -m repro metrics               # scrape a live server's /metrics
    python -m repro metrics --watch       # live console dashboard
    python -m repro metrics snap.json --format prom   # render a snapshot
    REPRO_SCALE=paper python -m repro run table1   # full-scale flow

Every pipeline stage (characterized library, tuning, synthesis, worst
paths, design statistics, minimum-period search) is content-addressed
and memoized under ``$REPRO_CACHE_DIR`` (or ``~/.cache/repro``); a warm
store makes repeated runs skip synthesis entirely, ``--jobs`` fans both
characterization and the evaluation sweep out over worker processes
with bit-identical results, and ``--manifest`` prints what each run
served from the store versus computed.

``--trace PATH`` records every span and counter of the run — including
those of worker processes — to a JSONL file (see
:mod:`repro.observe`); ``--profile`` prints the per-stage time tree and
counter totals on completion.  Both change *observation only*: traced
results are bit-identical to untraced ones.

``--trace PATH`` *truncates* PATH at run start, so reusing one path
across runs keeps only the latest trace — two runs never interleave in
one file.  (Programmatic ``JsonlExporter`` use defaults to appending,
the mode worker processes joining a live trace need; ``trace
summarize`` flags a file that accumulated several runs.)

Every run additionally appends one record — scientific metrics, stage
wall times, cache hit rates — to the run ledger beside the artifact
store (``REPRO_LEDGER`` redirects it, ``REPRO_LEDGER=off`` disables).
``report`` renders metric and stage-time trends across those records;
``check`` compares the latest matching run against a committed
baseline and exits nonzero on drift — the CI regression gate.

The execution flags (``--jobs``, ``--no-cache``, ``--manifest``,
``--trace``, ``--profile``) are defined once on a shared parent parser,
so every run-like invocation accepts the same set.

Any :class:`~repro.errors.ReproError` (``REPRO_SCALE=bogus``, ``--jobs
-3``, ...) exits with code 2 and a one-line ``error: <Type>: <message>``
on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.experiments.runner import (
    ALL_EXPERIMENTS,
    LIBRARY_ONLY,
    build_context,
    run_experiments,
)


def _shared_options() -> argparse.ArgumentParser:
    """The parent parser holding the execution flags shared by every
    run-like subcommand (defined once, inherited via ``parents=``)."""
    shared = argparse.ArgumentParser(add_help=False)
    group = shared.add_argument_group("execution options")
    group.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for characterization and the evaluation "
        "sweep (1 = serial, 0 = one per CPU; default from REPRO_JOBS)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk artifact store",
    )
    group.add_argument(
        "--kernel",
        choices=("scalar", "vectorized"),
        default=None,
        help="evaluation kernel: 'vectorized' (default) or the 'scalar' "
        "reference — bit-identical results (default from REPRO_KERNEL)",
    )
    group.add_argument(
        "--backend",
        choices=("serial", "process"),
        default=None,
        help="execution backend for every fan-out: in-process 'serial' "
        "or local 'process' pool (default) — bit-identical results "
        "(default from REPRO_BACKEND)",
    )
    group.add_argument(
        "--manifest",
        action="store_true",
        help="after each experiment, print the run manifest (stage "
        "fingerprints, cache hit/miss, wall time)",
    )
    group.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a JSONL trace of the run (spans, counters — worker "
        "processes included) to PATH",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage time tree and counter totals when the "
        "run finishes",
    )
    group.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="write one standalone trace artifact per experiment "
        "(DIR/<id>.trace.jsonl)",
    )
    return shared


def _build_parser() -> argparse.ArgumentParser:
    """The full CLI parser: list / run / store / trace / lint / sweep /
    report / check / serve / metrics."""
    shared = _shared_options()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'Standard Cell Library Tuning for "
        "Variability Tolerant Designs' (DATE 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser(
        "run", help="run experiments", parents=[shared]
    )
    run_parser.add_argument("ids", nargs="*", help="experiment ids (see list)")
    run_parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    run_parser.add_argument(
        "--library-only",
        action="store_true",
        help="run only the fast, synthesis-free experiments",
    )
    store_parser = sub.add_parser(
        "store", help="inspect or clear the on-disk artifact store"
    )
    store_parser.add_argument(
        "action",
        choices=("stats", "clear"),
        help="what to do with the on-disk state",
    )

    trace_parser = sub.add_parser(
        "trace", help="analyze recorded JSONL traces"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    summarize_parser = trace_sub.add_parser(
        "summarize", help="flat per-span-path wall/CPU table of one trace"
    )
    summarize_parser.add_argument("path", help="JSONL trace file")
    summarize_parser.add_argument(
        "--top", type=int, default=40, metavar="N",
        help="paths to show (default 40)",
    )
    diff_parser = trace_sub.add_parser(
        "diff",
        help="align two traces by span path and flag wall-time regressions "
        "(exit 1 when any are found)",
    )
    diff_parser.add_argument("a", help="reference trace (before)")
    diff_parser.add_argument("b", help="candidate trace (after)")
    diff_parser.add_argument(
        "--rtol", type=float, default=None, metavar="R",
        help="relative wall-time growth to tolerate (default 0.25)",
    )
    diff_parser.add_argument(
        "--min-seconds", type=float, default=None, metavar="S",
        help="absolute growth floor below which nothing is flagged "
        "(default 0.05)",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="run the repo's AST contract checker (determinism, "
        "process-safety, picklability; see DESIGN.md §13)",
    )
    from repro.lint.cli import configure_lint_parser

    configure_lint_parser(lint_parser)

    sweep_parser = sub.add_parser(
        "sweep",
        parents=[shared],
        help="incremental design-family sweep: run a (design x method x "
        "parameter x clock) grid, recomputing only stale points",
    )
    sweep_parser.add_argument(
        "--designs", nargs="+", default=["microcontroller"], metavar="NAME",
        help="design family members (default: the paper's "
        "microcontroller; see repro.netlist.generators.family)",
    )
    sweep_parser.add_argument(
        "--methods", nargs="+", default=None, metavar="NAME",
        help="tuning methods (default: every registered method)",
    )
    sweep_parser.add_argument(
        "--parameters", nargs="+", type=float, default=None, metavar="P",
        help="tuning parameters (default: each method's Table 2 sweep)",
    )
    sweep_parser.add_argument(
        "--clocks", nargs="+", type=float, default=[3.0], metavar="NS",
        help="clock periods in ns (default: 3.0)",
    )
    sweep_parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the markdown grid report to PATH",
    )
    sweep_parser.add_argument(
        "--expect-warm", action="store_true",
        help="exit 1 if any point had to be scheduled — the CI "
        "incremental-recharacterization gate",
    )

    report_parser = sub.add_parser(
        "report", help="metric and stage-time trends across ledger records"
    )
    report_parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="ledger file (default: beside the artifact store)",
    )
    report_parser.add_argument(
        "--experiment", metavar="ID", default=None,
        help="only this experiment's records",
    )
    report_parser.add_argument(
        "--scale", default=None, help="only records at this scale"
    )
    report_parser.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="show only the last N runs per section",
    )

    check_parser = sub.add_parser(
        "check",
        help="gate the latest ledger run against a committed baseline "
        "(exit 1 on metric drift or stage-budget violation)",
    )
    check_parser.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="baseline JSON (experiment, scale, metrics, tolerances)",
    )
    check_parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="ledger file (default: beside the artifact store)",
    )
    check_parser.add_argument(
        "--rtol", type=float, default=None, metavar="R",
        help="override the baseline's relative tolerance",
    )
    check_parser.add_argument(
        "--atol", type=float, default=None, metavar="A",
        help="override the baseline's absolute tolerance",
    )
    check_parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the latest matching run instead "
        "of checking (the refresh path after an intended change)",
    )

    serve_parser = sub.add_parser(
        "serve",
        parents=[shared],
        help="serve tuning requests over HTTP (asyncio, request "
        "coalescing, bounded backpressure; see repro.serve)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8731, metavar="N",
        help="port to bind (default 8731; 0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--scale", choices=("tiny", "quick", "paper"), default=None,
        help="default flow scale for requests that name none "
        "(default from REPRO_SCALE)",
    )
    serve_parser.add_argument(
        "--max-pending", type=int, default=8, metavar="N",
        help="concurrent backend submissions before requests are "
        "rejected with 429 (default 8)",
    )

    metrics_parser = sub.add_parser(
        "metrics",
        help="inspect live operational metrics: scrape a running "
        "server's /metrics, or render on-disk snapshot files",
    )
    metrics_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="metric snapshot files ('metrics --format json') to merge and "
        "render; with none, scrape the live server instead",
    )
    metrics_parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="server address to scrape (default 127.0.0.1)",
    )
    metrics_parser.add_argument(
        "--port", type=int, default=8731, metavar="N",
        help="server port to scrape (default 8731)",
    )
    metrics_parser.add_argument(
        "--format", choices=("console", "json", "prom"), default="console",
        help="output format: human-readable 'console' (default), "
        "canonical 'json' snapshot, or Prometheus 'prom' text",
    )
    metrics_parser.add_argument(
        "--watch", action="store_true",
        help="live console dashboard, refreshing in place until "
        "interrupted (scrape mode only)",
    )
    metrics_parser.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh period of --watch in seconds (default 2.0)",
    )
    return parser


def _run_store_command(action: str) -> int:
    """Handle ``python -m repro store stats|clear`` on the one on-disk
    artifact store (libraries and every downstream stage)."""
    from repro.parallel import ArtifactStore

    store = ArtifactStore()
    if action == "stats":
        print(store.stats().to_text())
        return 0
    removed = store.clear()
    print(f"removed {removed} artifacts from {store.directory}")
    return 0


def _run_trace_command(args: argparse.Namespace) -> int:
    """Handle ``python -m repro trace summarize|diff``."""
    from repro.observe import load_trace
    from repro.observe.analyze import (
        DIFF_MIN_SECONDS,
        DIFF_RTOL,
        diff_traces,
        summarize_trace,
    )

    try:
        if args.trace_command == "summarize":
            print(summarize_trace(load_trace(args.path), top=args.top))
            return 0
        diff = diff_traces(
            load_trace(args.a),
            load_trace(args.b),
            rtol=args.rtol if args.rtol is not None else DIFF_RTOL,
            min_seconds=(
                args.min_seconds
                if args.min_seconds is not None
                else DIFF_MIN_SECONDS
            ),
        )
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    print(diff.to_text())
    return 1 if diff.regressions else 0


def _run_sweep_command(args: argparse.Namespace) -> int:
    """Handle ``python -m repro sweep`` — the design-family harness.

    Exit 0 on a completed sweep, 1 when ``--expect-warm`` found stale
    work, 2 when the sweep cannot run (bad grid axis, cache disabled).
    """
    from repro.errors import ConfigError
    from repro.sweep import SweepGrid, render_sweep_report, run_sweep

    tracer = _build_run_tracer(args)
    context = build_context(
        jobs=args.jobs,
        cache=False if args.no_cache else None,
        tracer=tracer,
        kernel=args.kernel,
        backend=args.backend,
    )
    try:
        grid = SweepGrid(
            designs=tuple(args.designs),
            methods=None if args.methods is None else tuple(args.methods),
            parameters=(
                None if args.parameters is None else tuple(args.parameters)
            ),
            clock_periods=tuple(args.clocks),
        )
        result = run_sweep(context.flow.config, grid)
    except ConfigError as error:
        print(f"sweep cannot run: {error}", file=sys.stderr)
        return 2
    report = render_sweep_report(result)
    print(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"[report written to {args.report}]")
    if tracer is not None:
        _report_trace(tracer, args)
    if args.expect_warm and result.scheduled:
        print(
            f"expected a warm grid, but {result.scheduled} tasks were "
            f"scheduled ({result.counts['run']} stale points)",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_serve_command(args: argparse.Namespace) -> int:
    """Handle ``python -m repro serve`` — the tuning service.

    Blocks until interrupted.  Exit 2 when the server cannot start
    (invalid config — e.g. ``--no-cache``, which the service rejects
    because warm hits stream from the artifact store).
    """
    from repro.errors import ConfigError
    from repro.flow.experiment import FlowConfig
    from repro.serve.server import TuningServer

    tracer = _build_run_tracer(args)
    try:
        config = FlowConfig.from_env(
            scale=args.scale,
            jobs=args.jobs,
            kernel=args.kernel,
            backend=args.backend,
            cache=False if args.no_cache else None,
            tracer=tracer,
        )
        server = TuningServer(
            config=config,
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
        )
    except ConfigError as error:
        print(f"serve cannot start: {error}", file=sys.stderr)
        return 2
    try:
        server.run()
    except OSError as error:
        print(
            f"serve cannot bind {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2
    finally:
        if tracer is not None:
            _report_trace(tracer, args)
    return 0


def _run_metrics_command(args: argparse.Namespace) -> int:
    """Handle ``python -m repro metrics`` — live-metric inspection.

    With snapshot ``paths``, merge and render them offline.  Without,
    scrape the live server's ``/metrics`` endpoint — once, or
    repeatedly in place with ``--watch``.  Exit 2 when the server is
    unreachable or a snapshot cannot be read.
    """
    import json

    from repro.errors import ObservabilityError
    from repro.observe.dashboard import (
        fetch_metrics,
        render_console,
        watch,
    )
    from repro.observe.metrics import load_metrics, render_prometheus

    try:
        if args.paths:
            snapshot = load_metrics(args.paths)
        elif args.watch:
            try:
                watch(
                    lambda: fetch_metrics(args.host, args.port),
                    sys.stdout,
                    interval=args.interval,
                )
            except KeyboardInterrupt:
                print()
            return 0
        else:
            snapshot = fetch_metrics(args.host, args.port)
    except (OSError, ObservabilityError, ValueError) as error:
        print(f"cannot read metrics: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(snapshot.to_payload(), indent=2, sort_keys=True))
    elif args.format == "prom":
        sys.stdout.write(render_prometheus(snapshot))
    else:
        sys.stdout.write(render_console(snapshot))
    return 0


def _run_report_command(args: argparse.Namespace) -> int:
    """Handle ``python -m repro report``."""
    from repro.observe.analyze import render_report
    from repro.observe.ledger import RunLedger

    ledger = RunLedger(args.ledger)
    records = ledger.read(experiment=args.experiment, scale=args.scale)
    print(render_report(records, last=args.last))
    return 0


def _run_check_command(args: argparse.Namespace) -> int:
    """Handle ``python -m repro check`` — the regression gate.

    Exit 0 when the latest matching ledger run satisfies the baseline,
    1 on metric drift or a stage-budget violation, 2 when the gate
    cannot run (unreadable baseline, no matching ledger record).
    """
    import json

    from repro.observe.analyze import (
        baseline_from_record,
        check_record,
        load_baseline,
    )
    from repro.observe.ledger import RunLedger

    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"cannot read baseline: {error}", file=sys.stderr)
        return 2
    experiment = baseline.get("experiment")
    if not experiment:
        print(f"baseline names no experiment: {args.baseline}", file=sys.stderr)
        return 2
    ledger = RunLedger(args.ledger)
    record = ledger.latest(experiment, baseline.get("scale"))
    if record is None:
        scale = baseline.get("scale", "any")
        print(
            f"no ledger record of {experiment} @ {scale} in {ledger.path}; "
            f"run 'python -m repro {experiment}' first",
            file=sys.stderr,
        )
        return 2
    if args.update:
        refreshed = baseline_from_record(
            record,
            rtol=(
                args.rtol
                if args.rtol is not None
                else float(baseline.get("rtol", 0.05))
            ),
            atol=baseline.get("atol"),
        )
        if "stage_budget_seconds" in baseline:
            refreshed["stage_budget_seconds"] = baseline["stage_budget_seconds"]
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(refreshed, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"baseline refreshed from run {record.run_id} "
            f"({len(refreshed['metrics'])} metrics) -> {args.baseline}"
        )
        return 0
    violations = check_record(
        record, baseline, rtol=args.rtol, atol=args.atol
    )
    if violations:
        for violation in violations:
            print(f"FAIL: {violation}")
        print(
            f"check failed: {len(violations)} violations against "
            f"{args.baseline} (run {record.run_id})"
        )
        return 1
    print(
        f"check ok: run {record.run_id} of {record.experiment} @ "
        f"{record.scale} matches {args.baseline} "
        f"({len(baseline.get('metrics', {}))} metrics)"
    )
    return 0


def _normalize_argv(argv: List[str]) -> List[str]:
    """Allow an experiment id as a direct subcommand.

    ``python -m repro fig10 --trace out.jsonl`` is rewritten to
    ``run fig10 --trace out.jsonl`` — the common case deserves the
    short spelling.
    """
    if argv and argv[0] in ALL_EXPERIMENTS:
        return ["run"] + argv
    return argv


def _build_run_tracer(args: argparse.Namespace):
    """The tracer implied by ``--trace``/``--profile`` (or ``None``).

    ``--trace`` gets a (truncated) file-backed tracer so worker
    processes merge into the same JSONL file; ``--profile`` alone uses
    an in-memory sink — enough for the parent-side time tree.
    """
    if not args.trace and not args.profile:
        return None
    from repro.observe import JsonlExporter, MemorySink, Tracer

    sink = (
        JsonlExporter(args.trace, truncate=True)
        if args.trace
        else MemorySink()
    )
    return Tracer(sink)


def _report_trace(tracer, args: argparse.Namespace) -> None:
    """Close out the run's tracer: flush, then print what was asked.

    With ``--trace`` the tree is rebuilt from the file, so spans
    appended by worker processes are included; worker counts are in
    the registry either way.
    """
    from repro.observe import Trace, load_trace, render_trace, set_tracer

    tracer.finish()
    set_tracer(None)
    if args.trace:
        trace = load_trace(args.trace)
        print(f"[trace: {len(trace.spans)} spans written to {args.trace}]")
    else:
        trace = Trace(
            spans=[span.to_record() for span in tracer.spans],
            counters=tracer.counters(),
        )
    if args.profile:
        print(render_trace(trace))


def main(argv: List[str]) -> int:
    """Parse arguments and dispatch to the selected subcommand.

    A :class:`~repro.errors.ReproError` — a bad knob value, a corrupt
    input, an infeasible request — ends the command with one line on
    stderr (``error: <Type>: <message>``) and exit code 2, never a
    traceback.  Anything else is a bug and keeps its traceback.
    """
    from repro.errors import ReproError

    try:
        return _dispatch(argv)
    except ReproError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2


def _dispatch(argv: List[str]) -> int:
    """Run the subcommand ``argv`` selects; :func:`main` reports errors."""
    argv = _normalize_argv(argv)
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__module__.split(".")[-1]).replace("_", " ")
            tag = " (library-only)" if experiment_id in LIBRARY_ONLY else ""
            print(f"{experiment_id:8s} {doc}{tag}")
        return 0
    if args.command == "store":
        return _run_store_command(args.action)
    if args.command == "lint":
        from repro.lint.cli import run_lint_command

        return run_lint_command(args)
    if args.command == "trace":
        return _run_trace_command(args)
    if args.command == "sweep":
        return _run_sweep_command(args)
    if args.command == "report":
        return _run_report_command(args)
    if args.command == "check":
        return _run_check_command(args)
    if args.command == "serve":
        return _run_serve_command(args)
    if args.command == "metrics":
        return _run_metrics_command(args)

    if args.all:
        ids = list(ALL_EXPERIMENTS)
    elif args.library_only:
        ids = list(LIBRARY_ONLY)
    else:
        ids = args.ids
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; try 'python -m repro list'")
        return 2
    if not ids:
        print("nothing to run; pass experiment ids, --all or --library-only")
        return 2

    tracer = _build_run_tracer(args)
    context = build_context(
        jobs=args.jobs,
        cache=False if args.no_cache else None,
        tracer=tracer,
        kernel=args.kernel,
        backend=args.backend,
    )
    for experiment_id in ids:
        start = time.time()
        result = run_experiments(
            context, ids=[experiment_id], trace_dir=args.trace_dir
        )[experiment_id]
        print(result.to_text())
        print(f"[{experiment_id} finished in {time.time() - start:.1f}s]\n")
    if args.manifest:
        print(context.flow.manifest.to_text())
    if tracer is not None:
        _report_trace(tracer, args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
