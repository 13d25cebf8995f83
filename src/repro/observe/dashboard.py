"""Console views of metric snapshots: one-shot listing + live panel.

Two renderers over :class:`~repro.observe.metrics.MetricsSnapshot`:

* :func:`render_console` — the full instrument listing the
  ``python -m repro metrics`` CLI prints by default: every family,
  every sample, histograms summarized as count/mean/p50/p95/p99.
* :func:`render_dashboard` — the curated serve panel ``--watch``
  refreshes in place: request rate, latency percentiles from
  histogram buckets, outcome mix, coalescing, store hit ratios and
  queue depth.  Rates need two snapshots; the first frame shows
  totals only.

:func:`fetch_metrics` pulls ``GET /metrics`` from a live server with
stdlib ``http.client`` and parses the exposition text back into a
snapshot — the CLI and the watch loop share it.
"""

from __future__ import annotations

import http.client
import time
from typing import Callable, List, Optional, TextIO, Tuple

from repro.errors import ObservabilityError
from repro.observe.metrics import (
    FamilySnapshot,
    HistogramValue,
    MetricsSnapshot,
    histogram_quantile,
    parse_prometheus,
)

#: ANSI: clear screen + home — the in-place refresh for ``--watch``.
CLEAR_SCREEN = "\x1b[2J\x1b[H"


def fetch_metrics(
    host: str, port: int, timeout: float = 5.0
) -> MetricsSnapshot:
    """``GET /metrics`` from a live server, parsed into a snapshot."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        body = response.read().decode("utf-8", errors="replace")
        if response.status != 200:
            raise ObservabilityError(
                f"GET /metrics on {host}:{port} returned {response.status}"
            )
        return parse_prometheus(body)
    except OSError as error:
        raise ObservabilityError(
            f"cannot reach metrics endpoint {host}:{port}: {error}"
        ) from error
    finally:
        connection.close()


# -- snapshot arithmetic ----------------------------------------------


def _counter_sum(
    snapshot: MetricsSnapshot, name: str, **match: str
) -> float:
    """Sum a counter family's samples whose labels match ``match``."""
    family = snapshot.families.get(name)
    if family is None:
        return 0.0
    total = 0.0
    for key, value in family.samples.items():
        if isinstance(value, HistogramValue):
            continue
        labels = dict(zip(family.labelnames, key))
        if all(labels.get(ln) == lv for ln, lv in match.items()):
            total += value
    return total


def _histogram_sum(
    snapshot: MetricsSnapshot, name: str
) -> Tuple[Optional[HistogramValue], Tuple[float, ...]]:
    """Merge every child of a histogram family into one distribution."""
    family = snapshot.families.get(name)
    if family is None:
        return None, ()
    merged: Optional[HistogramValue] = None
    for value in family.samples.values():
        if not isinstance(value, HistogramValue):
            continue
        merged = value if merged is None else merged.merged(value)
    return merged, family.buckets


def _gauge_value(snapshot: MetricsSnapshot, name: str) -> Optional[float]:
    family = snapshot.families.get(name)
    if family is None or not family.samples:
        return None
    value = next(iter(family.samples.values()))
    return None if isinstance(value, HistogramValue) else value


def _ratio(hits: float, misses: float) -> str:
    lookups = hits + misses
    if lookups <= 0:
        return "n/a"
    return f"{100.0 * hits / lookups:.1f}% of {int(lookups)}"


# -- renderers ---------------------------------------------------------


def _histogram_row(value: HistogramValue, buckets: Tuple[float, ...]) -> str:
    if value.count <= 0:
        return "count=0"
    mean = value.total / value.count
    quantiles = " ".join(
        f"p{int(q * 100)}<={histogram_quantile(value, buckets, q) * 1e3:.3g}ms"
        for q in (0.5, 0.95, 0.99)
    )
    return f"count={value.count} mean={mean * 1e3:.3g}ms {quantiles}"


def _family_lines(family: FamilySnapshot) -> List[str]:
    lines = [f"{family.name} ({family.kind}) — {family.help}"]
    for key in sorted(family.samples):
        value = family.samples[key]
        labels = (
            "{" + ",".join(
                f'{ln}="{lv}"'
                for ln, lv in zip(family.labelnames, key)
            ) + "}"
            if family.labelnames
            else ""
        )
        if isinstance(value, HistogramValue):
            rendered = _histogram_row(value, family.buckets)
        elif float(value).is_integer():
            rendered = str(int(value))
        else:
            rendered = f"{value:.6g}"
        lines.append(f"  {labels or '(no labels)'} {rendered}")
    return lines


def render_console(snapshot: MetricsSnapshot) -> str:
    """The full listing: every family and sample, one block each."""
    if not snapshot.families:
        return "no metrics recorded\n"
    blocks = [
        "\n".join(_family_lines(snapshot.families[name]))
        for name in sorted(snapshot.families)
    ]
    return "\n".join(blocks) + "\n"


def render_dashboard(
    snapshot: MetricsSnapshot,
    previous: Optional[MetricsSnapshot] = None,
    interval: Optional[float] = None,
) -> str:
    """The curated live panel ``--watch`` refreshes in place."""
    lines: List[str] = ["repro serve — live metrics", ""]
    requests = _counter_sum(snapshot, "repro_serve_requests_total")
    if previous is not None and interval and interval > 0:
        rate = (
            requests
            - _counter_sum(previous, "repro_serve_requests_total")
        ) / interval
        lines.append(f"requests   total={int(requests)}  rate={rate:.1f}/s")
    else:
        lines.append(f"requests   total={int(requests)}")
    outcomes = []
    for outcome in ("warm", "computed", "coalesced", "error", "rejected"):
        count = _counter_sum(
            snapshot, "repro_serve_requests_total", outcome=outcome
        )
        if count:
            outcomes.append(f"{outcome}={int(count)}")
    if outcomes:
        lines.append("outcomes   " + "  ".join(outcomes))
    latency, buckets = _histogram_sum(snapshot, "repro_serve_request_seconds")
    if latency is not None and latency.count > 0:
        lines.append("latency    " + _histogram_row(latency, buckets))
    leaders = _counter_sum(
        snapshot, "repro_serve_coalesce_total", role="leader"
    )
    followers = _counter_sum(
        snapshot, "repro_serve_coalesce_total", role="follower"
    )
    if leaders or followers:
        lines.append(
            f"coalesce   leaders={int(leaders)}  followers={int(followers)}"
        )
    artifact_hits = _counter_sum(
        snapshot, "repro_store_artifact_total", event="hit"
    )
    artifact_misses = _counter_sum(
        snapshot, "repro_store_artifact_total", event="miss"
    )
    lines.append(
        "stores     artifact-hit " + _ratio(artifact_hits, artifact_misses)
    )
    pending = _gauge_value(snapshot, "repro_dispatch_pending")
    capacity = _gauge_value(snapshot, "repro_dispatch_capacity")
    inflight = _gauge_value(snapshot, "repro_serve_inflight_requests")
    queue_parts = []
    if pending is not None or capacity is not None:
        queue_parts.append(
            f"queue={int(pending or 0)}/{int(capacity or 0)}"
        )
    if inflight is not None:
        queue_parts.append(f"inflight={int(inflight)}")
    if queue_parts:
        lines.append("load       " + "  ".join(queue_parts))
    completed = _counter_sum(
        snapshot, "repro_backend_tasks_total", event="completed"
    )
    if completed:
        lines.append(f"backend    tasks-completed={int(completed)}")
    return "\n".join(lines) + "\n"


def watch(
    fetch: Callable[[], MetricsSnapshot],
    out: TextIO,
    interval: float = 2.0,
    iterations: Optional[int] = None,
) -> None:
    """Refresh the dashboard in place every ``interval`` seconds.

    ``iterations=None`` runs until interrupted (the CLI catches
    ``KeyboardInterrupt``); a finite count is the testable path.
    """
    previous: Optional[MetricsSnapshot] = None
    previous_at: Optional[float] = None
    frame = 0
    while iterations is None or frame < iterations:
        snapshot = fetch()
        now = time.monotonic()
        elapsed = (
            None if previous_at is None else max(now - previous_at, 1e-9)
        )
        out.write(
            CLEAR_SCREEN + render_dashboard(snapshot, previous, elapsed)
        )
        out.flush()
        previous, previous_at = snapshot, now
        frame += 1
        if iterations is None or frame < iterations:
            time.sleep(interval)
