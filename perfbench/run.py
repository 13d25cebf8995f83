"""The repository's benchmark: per-operation latency of two workloads.

    python3 perfbench/run.py --workload point_cold --seed 1 --seconds 25 --trace 0

Workloads (both at tiny scale, serial backend, one job, an empty store
per set-up, one closed-loop client):

* ``point_cold`` — ``TuningFlow.compare`` at a new tight clock per op.
* ``serve_warm`` — warm ``tune`` requests to ``python -m repro serve``.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see NOTES.md).  Every op's output is
checked; a wrong or failed op makes ``correct`` false and the exit code
1.  Nothing here imports the program: it runs in child processes.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402  (benchmark-local modules)
import worker  # noqa: E402

WORKLOADS = ("point_cold", "serve_warm")
#: Set-ups per run whose median is ``setup_s``.  Each one is a fresh
#: process on a fresh store and then runs a share of the timed phase,
#: so a run's ops sample the host over 40-60 s of wall time.
SETUP_SAMPLES = {"point_cold": 5, "serve_warm": 2}
#: Whether an op is shorter than the host's fast and slow phases (see
#: HostProbe): a ``point_cold`` op lasts seconds and sees their time
#: average; a ``serve_warm`` request lasts a millisecond and sees one.
SHORT_OPS = {"point_cold": False, "serve_warm": True}
#: Every run ends within this many seconds, or fails without a result.
WATCHDOG_S = 170
METHOD = "sigma_ceiling"
#: The method's Table 2 values: the four points ``serve_warm`` serves.
SERVE_PARAMETERS = (0.04, 0.03, 0.02, 0.01)
SERVE_SCHEMA = 1
#: Length of one traced or untraced window of the traced serve run.
SERVE_TRACE_WINDOW_S = 2.0
#: Calibration-loop time (ms) of the reference host speed at which the
#: timed metrics are reported (see HostProbe); a typical value here.
PROBE_REF_MS = 5.0
#: ``serve_warm`` takes one probe sample after this many requests.
PROBE_EVERY_REQUESTS = 250
#: Fields of a ``tune`` response that vary per request.
VOLATILE_FIELDS = ("outcome", "trace_id", "wall_ms")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


# ----------------------------------------------------------------------
# isolation and child processes
# ----------------------------------------------------------------------


def child_env(run_dir: str, store: str) -> dict:
    """Environment of every child: isolated store, no ledger, one
    BLAS/OpenMP thread, fixed hash seed, temp files inside the run."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        REPRO_CACHE_DIR=store,
        REPRO_LEDGER="off",
        TMPDIR=os.path.join(run_dir, "tmp"),
    )
    for name in ("REPRO_SCALE", "REPRO_JOBS", "REPRO_BACKEND", "REPRO_KERNEL",
                 "REPRO_METRICS", "REPRO_METRICS_SPOOL"):
        env.pop(name, None)
    return env


def pin_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU.

    The loop is closed, so the client and the program never run at the
    same time and one CPU serves both.  On a 2-vCPU guest, a serve
    client on the other CPU than the server saw p99 of 1.7-4.7 ms over
    5 s windows (each request wakes an idle vCPU); on the same CPU,
    1.5-1.8 ms, in alternating windows of one server.  Unpinned, p90
    ranged 1.9-5.5 ms.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Children:
    """Every process the run starts; all are stopped on every exit path."""

    def __init__(self) -> None:
        self.procs = []

    def spawn(self, argv, env, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, **kwargs)
        self.procs.append(proc)
        return proc

    def stop(self, proc, sig=signal.SIGINT, timeout: float = 15.0) -> None:
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def stop_all(self) -> None:
        for proc in self.procs:
            self.stop(proc, signal.SIGKILL, 5.0)
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()


class HostProbe:
    """Host speed over a run, taken on the program's CPU.

    On a shared host the same op is 1.7-5 s depending on the minute: the
    whole machine drifts, by a factor of two within a few minutes, and
    flips between fast and slow phases within a second.  The probe is a
    fixed calibration loop of about 6 ms (``worker.calibration_loop``),
    timed whenever no op runs: in batches before and after every
    ``point_cold`` worker and after each of its ops, and after every
    ``PROBE_EVERY_REQUESTS`` requests of ``serve_warm``, so its samples
    fall in the host's phases in the proportion the ops do.  The
    run's timings are scaled by ``PROBE_REF_MS`` over the probe's typical
    time, i.e. reported at the host speed where the probe takes
    ``PROBE_REF_MS``: a change in the program moves them in full, a
    change in the host's speed moves probe and op together.
    """

    def __init__(self) -> None:
        self.samples_ms = []
        worker.calibration_loop(1_000, 1_000)  # import and first-call costs stay untimed

    def sample(self, count: int = 1) -> float:
        """Take ``count`` samples; return the seconds they took."""
        started = time.perf_counter()
        self.samples_ms += worker.probe_samples(count)
        return time.perf_counter() - started

    def scale(self, q=None) -> float:
        """Factor that takes a time measured on this run's host to the
        reference host speed.  The probe's samples fall into fast
        (about 6 ms) and slow (about 10 ms) phases.  Work that spans
        many phases (a set-up, a ``point_cold`` op, the timed phase as a
        whole) sees their time average: it is matched by the samples'
        mean (``q`` None), the top and bottom tenth dropped as outliers.
        A request that falls in one phase is matched percentile for
        percentile (``q``): its p50 flips to the slow phase exactly when
        the samples' p50 does, and its p90 lies in the slow phase
        whenever theirs does."""
        if q is not None:
            return PROBE_REF_MS / percentile(self.samples_ms, q)
        ordered = sorted(self.samples_ms)
        trim = len(ordered) // 10
        kept = ordered[trim:len(ordered) - trim]
        return PROBE_REF_MS / (sum(kept) / len(kept))


# ----------------------------------------------------------------------
# in-process workload (point_cold)
# ----------------------------------------------------------------------


def worker_argv(args, seed: int, seconds: float, extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), *extra]


def wait_ready(proc, started: float) -> float:
    """Seconds from spawn until the worker printed ``READY``."""
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return time.perf_counter() - started


def run_inprocess(args, run_dir, children, probe) -> dict:
    """As in ``run_serve``, each set-up process then runs ops for a share
    of the timed phase: what is left of it over the workers still to
    come, so one worker's overrun (its last op ends past its share) is
    taken from the next.  Each one draws its inputs from its own seed,
    derived from the run's, so ``point_cold`` checks other clocks."""
    samples = 1 if args.trace else SETUP_SAMPLES[args.workload]
    spans = os.path.join(run_dir, "spans.jsonl")
    result = {"latencies_ms": [], "ok": [], "traced": [], "errors": [],
              "phase_s": 0.0, "setups_s": []}
    rss = []
    for k in range(samples):
        env = child_env(run_dir, os.path.join(run_dir, f"store-{k}"))
        share = max(0.0, (args.seconds - result["phase_s"]) / (samples - k))
        argv = worker_argv(args, args.seed * samples + k, share,
                           ["--spans", spans] if args.trace else [])
        probe.sample(worker.PROBE_BATCH)
        started = time.perf_counter()
        proc = children.spawn(argv, env, stdout=subprocess.PIPE, text=True)
        result["setups_s"].append(wait_ready(proc, started))
        line = proc.stdout.readline()
        if proc.wait() != 0 or not line:
            raise BenchError(f"worker failed (exit {proc.returncode})")
        probe.sample(worker.PROBE_BATCH)
        part = json.loads(line)
        probe.samples_ms += part["probe_ms"]
        for key in ("latencies_ms", "ok", "traced", "errors"):
            result[key] += part[key]
        result["phase_s"] += part["phase_s"]
        rss.append(part["rss_mb"])
    result["errors"] = result["errors"][:5]
    result["rss_mb"] = max(rss)
    if args.trace:
        result["spans"] = layers.load(spans)
    return result


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------


def tune_body(clock: float, parameter: float) -> str:
    return json.dumps({
        "schema": SERVE_SCHEMA, "kind": "tune", "method": METHOD,
        "parameter": parameter, "clock_period": clock,
        "design": "microcontroller",
    })


def post(conn, body: str):
    conn.request("POST", "/v1/request", body,
                 {"content-type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def get(port: int, path: str) -> str:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()


def stable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in VOLATILE_FIELDS}


class Server:
    """One ``repro serve`` process on a fresh store, populated cold."""

    def __init__(self, args, run_dir, children, index: int):
        self.log = os.path.join(run_dir, f"serve-{index}.log")
        self.spans = os.path.join(run_dir, f"serve-spans-{index}.jsonl")
        env = child_env(run_dir, os.path.join(run_dir, f"store-{index}"))
        serve_args = ["--port", "0", "--scale", "tiny", "--backend", "serial",
                      "--jobs", "1"]
        if args.trace:
            argv = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                    self.spans, "--", *serve_args]
        else:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.children = children
        self.traced = bool(args.trace)
        started = time.perf_counter()
        with open(self.log, "w", encoding="utf-8") as log:
            self.proc = children.spawn(argv, env, stdout=log,
                                       stderr=subprocess.STDOUT)
        self.port = self._wait_port()
        self.references = self._populate(args.clock)
        self.setup_s = time.perf_counter() - started

    def _wait_port(self) -> int:
        deadline = time.perf_counter() + 60
        marker = "listening on http://127.0.0.1:"
        while time.perf_counter() < deadline:
            with open(self.log, encoding="utf-8") as log:
                text = log.read()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during start-up:\n{text}")
            time.sleep(0.01)
        raise BenchError("server did not start within 60 s")

    def _populate(self, clock: float) -> dict:
        """Compute the four points through the server's cold path."""
        references = {}
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            for parameter in SERVE_PARAMETERS:
                status, payload = post(conn, tune_body(clock, parameter))
                if status != 200 or payload.get("outcome") != "computed":
                    raise BenchError(f"cold set-up request failed: {status} {payload}")
                references[parameter] = stable(payload)
        finally:
            conn.close()
        return references

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def toggle_trace(self, sig) -> None:
        """Open (``SIGUSR1``) or close (``SIGUSR2``) a traced window; the
        health probe returns only after the server's main thread has run
        the signal handler."""
        self.proc.send_signal(sig)
        get(self.port, "/healthz")

    def stop(self) -> None:
        """``SIGINT``, then ``SIGKILL`` after a grace period.  A traced
        server writes its spans on the way out, so it gets longer; an
        untraced one has nothing left to do, so a slow shutdown costs
        the run at most 3 s."""
        self.children.stop(self.proc, timeout=15.0 if self.traced else 3.0)


def serve_client(port, order, references, seconds, probe) -> list:
    """One keep-alive connection in a closed loop for ``seconds`` of
    requests, probing the host between them (the probe's time extends
    the window): ``(latency ms, error or "", handler ms)`` per request."""
    results = []
    deadline = time.perf_counter() + seconds
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    bodies = [(tune_body(clock, parameter), references[parameter])
              for clock, parameter in order]
    index = 0
    try:
        while time.perf_counter() < deadline:
            body, want = bodies[index % len(bodies)]
            index += 1
            start = time.perf_counter()
            handler_ms, error = 0.0, ""
            try:
                status, payload = post(conn, body)
                elapsed = time.perf_counter() - start
                handler_ms = float(payload.get("wall_ms", 0.0))
                if status != 200:
                    error = f"HTTP {status}: {payload}"
                elif payload.get("outcome") != "warm":
                    error = f"outcome {payload.get('outcome')!r}, not warm"
                elif stable(payload) != want:
                    error = "response differs from the cold set-up's"
            except (OSError, http.client.HTTPException, ValueError) as exc:
                elapsed = time.perf_counter() - start
                error = f"{type(exc).__name__}: {exc}"
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            results.append((elapsed * 1e3, error, handler_ms))
            if index % PROBE_EVERY_REQUESTS == 0:
                deadline += probe.sample()
    finally:
        conn.close()
    return results


def scrape(port: int) -> dict:
    """``repro_serve_requests_total`` by outcome for ``tune`` requests."""
    counts = {}
    for line in get(port, "/metrics").splitlines():
        if line.startswith("repro_serve_requests_total{") and 'kind="tune"' in line:
            outcome = line.split('outcome="', 1)[1].split('"', 1)[0]
            counts[outcome] = float(line.rsplit(" ", 1)[1])
    return counts


def run_serve(args, run_dir, children, probe) -> dict:
    """Each server is set up and then serves an equal share of the timed
    phase, so a run's requests sample the host over all of its set-ups
    rather than one stretch of a few seconds (see NOTES.md)."""
    samples = 1 if args.trace else SETUP_SAMPLES[args.workload]
    rng = random.Random(args.seed)
    order = [(args.clock, p) for p in SERVE_PARAMETERS]
    rng.shuffle(order)
    latencies, oks, traced, handler, errors = [], [], [], [], []
    setups, rss, phase_s = [], [], 0.0
    for k in range(samples):
        server = Server(args, run_dir, children, k)
        setups.append(server.setup_s)
        if args.trace:
            server.toggle_trace(signal.SIGUSR2)  # close the set-up window
            before = scrape(server.port)
            windows = max(2, int(round(args.seconds / SERVE_TRACE_WINDOW_S)))
        else:
            windows = 1
        window_s = args.seconds / samples / windows
        for w in range(windows):
            trace_this = bool(args.trace) and w % 2 == 1
            if trace_this:
                server.toggle_trace(signal.SIGUSR1)
            results = serve_client(server.port, order, server.references,
                                   window_s, probe)
            phase_s += window_s
            if trace_this:
                server.toggle_trace(signal.SIGUSR2)
            for elapsed_ms, error, handler_ms in results:
                latencies.append(elapsed_ms)
                oks.append(not error)
                traced.append(trace_this)
                handler.append(handler_ms)
                if error and len(errors) < 5:
                    errors.append(error)
        rss.append(server.peak_rss_mb())
        if args.trace:
            after = scrape(server.port)
            outcomes = {key: after.get(key, 0) - before.get(key, 0)
                        for key in set(after) | set(before)}
        server.stop()
    result = {
        "latencies_ms": latencies, "ok": oks, "traced": traced,
        "errors": errors, "phase_s": phase_s, "setups_s": setups,
        "rss_mb": max(rss), "handler_ms": handler,
    }
    if args.trace:
        result["outcomes"] = outcomes
        result["spans"] = layers.load(server.spans)
    return result


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == float("inf"):
        return ordered[high] if rank > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50)


def latency_stats(latencies, oks, phase_s) -> dict:
    """Failed ops count as missing every latency limit: they sort last
    (a percentile landing on one reads as the whole timed phase)."""
    scored = [ms if ok else float("inf") for ms, ok in zip(latencies, oks)]
    cap = phase_s * 1e3

    def pct(q):
        value = percentile(scored, q)
        return cap if value == float("inf") else value

    return {"p50": pct(50), "p90": pct(90), "p99": pct(99),
            "ok_per_s": sum(oks) / phase_s}


def end_to_end(result, probe, short_ops: bool) -> dict:
    """The end-to-end metrics, times and rates at the reference host
    speed (see HostProbe.scale)."""
    attempted = len(result["latencies_ms"])
    stats = latency_stats(result["latencies_ms"], result["ok"], result["phase_s"])
    mean = probe.scale()
    p50, p90 = (probe.scale(50), probe.scale(90)) if short_ops else (mean, mean)
    return {
        "setup_s": (median(result["setups_s"]) * mean, "s"),
        "op_p50_ms": (stats["p50"] * p50, "ms"),
        "op_p90_ms": (stats["p90"] * p90, "ms"),
        "ops_per_s": (stats["ok_per_s"] / mean, "1/s"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
        "success_rate": (sum(result["ok"]) / attempted, "ratio"),
    }, stats


def traced_metrics(result) -> dict:
    counters, spans = result["spans"]
    traced = [ms for ms, t in zip(result["latencies_ms"], result["traced"]) if t]
    plain = [ms for ms, t in zip(result["latencies_ms"], result["traced"]) if not t]
    metrics = layers.per_layer(counters, spans, len(traced))
    handler = [h for h, t in zip(result.get("handler_ms", []), result["traced"]) if t]
    if handler:
        metrics["serve.handler_ms"] = (median(handler), "ms")
        metrics["serve.transport_ms"] = (
            median([ms - h for ms, h in zip(traced, handler)]), "ms")
    else:
        metrics["serve.handler_ms"] = (0.0, "ms")
        metrics["serve.transport_ms"] = (0.0, "ms")
    outcomes = result.get("outcomes", {})
    total = len(result["latencies_ms"])
    metrics["serve.outcome.warm"] = (outcomes.get("warm", 0) / total, "ratio")
    metrics["serve.rejected"] = (outcomes.get("rejected", 0) / total, "ratio")
    metrics["trace.overhead_pct"] = (
        (median(traced) / median(plain) - 1.0) * 100.0 if traced and plain else 0.0,
        "%",
    )
    return metrics


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def _raise_timeout(*_):
    raise BenchError(f"run exceeded {WATCHDOG_S} s")


def _raise_exit(signum, _frame):
    raise SystemExit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Per-operation benchmark of the tuning flow.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run_start = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source at src/repro", file=sys.stderr)
        return 2
    args.clock = worker.relaxed_clock(args.seed)
    signal.signal(signal.SIGTERM, _raise_exit)
    signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(WATCHDOG_S)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    run_dir = os.path.join(ROOT, ".bench_tmp",
                           f"{args.workload}-{os.getpid()}-{os.urandom(3).hex()}")
    os.makedirs(os.path.join(run_dir, "tmp"))
    pin_cpu()
    children = Children()
    probe = HostProbe()
    try:
        if args.workload == "serve_warm":
            result = run_serve(args, run_dir, children, probe)
        else:
            result = run_inprocess(args, run_dir, children, probe)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        children.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass
    attempted = len(result["latencies_ms"])
    failed = attempted - sum(result["ok"])
    for error in result["errors"]:
        print(f"FAILED op: {error}")
    e2e, stats = end_to_end(result, probe, SHORT_OPS[args.workload])
    print(f"# {args.workload} seed={args.seed} ops={attempted} failed={failed} "
          f"error_rate={failed / attempted:.4f} host_probe_ms: "
          f"n={len(probe.samples_ms)} p10={percentile(probe.samples_ms, 10):.3f} "
          f"p50={median(probe.samples_ms):.3f} p90={percentile(probe.samples_ms, 90):.3f} "
          f"mean-scale={probe.scale():.4f} run_s={time.perf_counter() - run_start:.1f}")
    print(f"# as measured (unscaled): p50_ms={stats['p50']:.4f} "
          f"p90_ms={stats['p90']:.4f} p99_ms={stats['p99']:.4f} "
          f"ops_per_s={stats['ok_per_s']:.4f} "
          f"setups_s={[round(s, 3) for s in result['setups_s']]}")
    if args.trace:
        metrics = traced_metrics(result)
        counters, spans = result["spans"]
        traced_ops = sum(result["traced"])
        work = layers.work_counters(counters, spans, traced_ops)
        print("# work counters per traced op: " + json.dumps(work, sort_keys=True))
    else:
        metrics = e2e
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:32s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
