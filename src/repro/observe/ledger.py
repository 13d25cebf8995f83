"""The append-only run ledger: one record per experiment run.

The traces answer "where did *this* run's wall time go?"; the ledger
answers the longitudinal questions — what were the scientific numbers
(per-method sigma reduction, area overhead, minimum period) the last
time this experiment ran, at what scale, on which host, with what
cache behaviour — by appending one structured JSONL record per run to
a file beside the artifact store (``<cache dir>/ledger.jsonl``).

Writes use the same process-safety contract as the trace exporter:
each record is a single ``os.write`` to an ``O_APPEND`` descriptor, so
concurrent runs interleave whole lines and the ledger never tears.
The file is append-only by design — a record is a historical fact, and
the analytics (``python -m repro report`` / ``check``, see
:mod:`repro.observe.analyze`) only ever read.

A record carries:

* identity — run id, epoch timestamp, experiment id, scale name;
* provenance — the flow's content fingerprints (statistical library,
  design) and host info (hostname, platform, python, CPU count);
* science — every numeric cell of the experiment's result table,
  keyed ``column[row-label]`` (see :func:`metrics_from_result`), plus
  the memoized minimum period when the flow searched for one;
* execution — wall time, per-stage aggregates from the
  :class:`~repro.flow.pipeline.RunManifest` (count, hit/miss/computed,
  seconds) and the metrics registry's counter deltas (store traffic,
  characterization and synthesis work).
"""

from __future__ import annotations

import json
import os
import platform
import socket
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

#: Schema version folded into every ledger record.
LEDGER_VERSION = 1

#: File name of the ledger, beside the artifact store entries.
LEDGER_FILENAME = "ledger.jsonl"


def default_ledger_path() -> Path:
    """The ledger's home: ``$REPRO_CACHE_DIR`` (or ``~/.cache/repro``)
    next to the artifact store."""
    from repro.parallel.artifacts import default_cache_dir

    return default_cache_dir() / LEDGER_FILENAME


def host_info() -> Dict[str, Any]:
    """The machine identity stamped into every record."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count() or 1,
    }


def metrics_from_result(result: Any) -> Dict[str, float]:
    """Every numeric cell of an experiment result, flattened.

    Keys are ``column[label]`` where the label joins the row's string
    cells (method name, operating point, ...) — stable across runs of
    the same experiment at the same scale, which is what the baseline
    gate compares.  ``None`` cells (e.g. no parameter survived the
    area cap) are skipped; booleans are not metrics.
    """
    metrics: Dict[str, float] = {}
    for index, row in enumerate(result.rows):
        parts = [value for value in row.values() if isinstance(value, str)]
        label = "/".join(parts) if parts else str(index)
        for column, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metrics[f"{column}[{label}]"] = float(value)
    return metrics


@dataclass
class RunRecord:
    """One ledger line: identity, provenance, science, execution."""

    run_id: str
    timestamp: float
    experiment: str
    scale: str
    fingerprints: Dict[str, str] = field(default_factory=dict)
    host: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    stages: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    wall: float = 0.0

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable rendering (one ledger line)."""
        return {
            "version": LEDGER_VERSION,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "experiment": self.experiment,
            "scale": self.scale,
            "fingerprints": self.fingerprints,
            "host": self.host,
            "metrics": self.metrics,
            "stages": self.stages,
            "counters": self.counters,
            "wall": self.wall,
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record stored with :meth:`to_payload`."""
        return RunRecord(
            run_id=str(payload["run_id"]),
            timestamp=float(payload["timestamp"]),
            experiment=str(payload["experiment"]),
            scale=str(payload.get("scale", "custom")),
            fingerprints=dict(payload.get("fingerprints", {})),
            host=dict(payload.get("host", {})),
            metrics={
                key: float(value)
                for key, value in payload.get("metrics", {}).items()
            },
            stages=dict(payload.get("stages", {})),
            counters=dict(payload.get("counters", {})),
            wall=float(payload.get("wall", 0.0)),
        )

    def hit_rate(self) -> Optional[float]:
        """Fraction of stage resolutions served from the store, or
        ``None`` when the run resolved no stages."""
        hits = total = 0
        for aggregate in self.stages.values():
            hits += int(aggregate.get("hit", 0))
            total += int(aggregate.get("count", 0))
        return hits / total if total else None

    def stage_seconds(self) -> float:
        """Total wall time spent resolving stages."""
        return sum(
            float(aggregate.get("seconds", 0.0))
            for aggregate in self.stages.values()
        )


def capture_run(
    experiment_id: str,
    result: Any,
    flow: Any,
    stage_records: Sequence[Any] = (),
    counters: Optional[Dict[str, float]] = None,
    wall: float = 0.0,
) -> RunRecord:
    """Build the ledger record of one finished experiment run.

    ``stage_records`` is the slice of the flow's manifest the run
    appended (so records of earlier experiments sharing the context
    are not re-attributed); ``counters`` the registry counter deltas
    observed across the run.
    """
    from repro.flow.pipeline import stage_aggregates

    metrics = metrics_from_result(result)
    for resolution, minimum in getattr(flow, "_minimum_periods", {}).items():
        metrics[f"minimum_period[{resolution:g}]"] = float(minimum)
    fingerprints = {"design": flow.design_key}
    try:
        fingerprints["statlib"] = flow.statlib_key
    except Exception:  # pragma: no cover - statlib key needs the catalog
        pass
    return RunRecord(
        run_id=os.urandom(6).hex(),
        timestamp=time.time(),
        experiment=experiment_id,
        scale=flow.config.scale_name(),
        fingerprints=fingerprints,
        host=host_info(),
        metrics=metrics,
        stages=stage_aggregates(stage_records),
        counters=dict(counters or {}),
        wall=wall,
    )


def capture_request(
    kind: str,
    trace_id: str,
    outcome: str,
    status: int,
    wall: float,
    scale: str = "custom",
    metrics: Optional[Dict[str, float]] = None,
) -> RunRecord:
    """Build the ledger record of one served request.

    The record's ``run_id`` *is* the request's trace id, so the HTTP
    response header, the span tree and the ledger line all share one
    identity — grep the ledger for a client-reported trace id and the
    request's outcome, status and latency fall out.  The experiment
    column is ``serve.<kind>`` (``serve.tune`` / ``serve.sweep`` /
    ``serve.status``), keeping service traffic distinct from batch
    experiment runs in the same longitudinal file.
    """
    counters: Dict[str, float] = {
        "serve.status": float(status),
        f"serve.outcome.{outcome}": 1.0,
    }
    return RunRecord(
        run_id=trace_id,
        timestamp=time.time(),
        experiment=f"serve.{kind}",
        scale=scale,
        host=host_info(),
        metrics=dict(metrics or {}),
        counters=counters,
        wall=wall,
    )


class RunLedger:
    """Append-only JSONL ledger of :class:`RunRecord` lines.

    Appends are single ``O_APPEND`` writes (process-safe, no locks);
    reads tolerate torn or foreign lines by skipping them, so a ledger
    shared by many runs — including crashed ones — always loads.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else default_ledger_path()

    def append(self, record: RunRecord) -> Path:
        """Write one record as a single atomic line append."""
        line = (
            json.dumps(record.to_payload(), sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        return self.path

    def read(
        self,
        experiment: Optional[str] = None,
        scale: Optional[str] = None,
        last: Optional[int] = None,
    ) -> List[RunRecord]:
        """Records in append order, optionally filtered.

        Unparseable lines and records from future schema versions are
        skipped rather than failing the read.
        """
        if not self.path.is_file():
            return []
        records: List[RunRecord] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        continue
                    if payload.get("version") != LEDGER_VERSION:
                        continue
                    record = RunRecord.from_payload(payload)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    continue
                if experiment is not None and record.experiment != experiment:
                    continue
                if scale is not None and record.scale != scale:
                    continue
                records.append(record)
        if last is not None:
            records = records[-last:]
        return records

    def latest(
        self, experiment: str, scale: Optional[str] = None
    ) -> Optional[RunRecord]:
        """The most recent record of an experiment (and scale)."""
        records = self.read(experiment=experiment, scale=scale)
        return records[-1] if records else None


def resolve_ledger() -> Optional[RunLedger]:
    """The ledger implied by the environment, or ``None`` when off.

    ``REPRO_LEDGER`` overrides: a path redirects the ledger, while
    ``0`` / ``off`` / ``none`` (any case) disables recording — the knob
    hermetic callers use.  Unset means the default ledger beside the
    artifact store.
    """
    value = os.environ.get("REPRO_LEDGER")
    if value is None:
        return RunLedger()
    trimmed = value.strip()
    if trimmed.lower() in ("0", "off", "none", "false", ""):
        return None
    return RunLedger(trimmed)
