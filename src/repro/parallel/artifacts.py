"""The content-addressed store every stage of the flow persists through.

An artifact is addressed by ``(stage, fingerprint)`` where the
fingerprint is a sha256 over a canonical JSON rendering of every input
that can change the stage's output (see :func:`fingerprint`, the
per-stage payload builders in :mod:`repro.flow.pipeline` and
:func:`repro.parallel.cache.characterization_key`).  Each stage has one
codec, fixed by :data:`NPZ_STAGES`:

* the characterized libraries (``stat``, ``samples``) are dicts of
  numpy arrays, stored with :func:`numpy.savez_compressed` as
  ``.npz`` — the envelope rides along as a ``__meta__`` array;
* every other stage (tuning windows, synthesis-run summaries, worst
  paths, design statistics, the minimum-period search) is
  gzip-compressed canonical JSON, ``.json.gz``, with the payload inside
  the envelope.

The envelope is ``{version, stage, key}``.  Both codecs share one
durability contract: writes go to a temporary sibling and are moved
into place with :func:`os.replace` (atomic on POSIX and Windows), and
any entry that cannot be read back intact — truncated, garbage, wrong
stage/key/version, or rejected by the caller's ``decode`` — is treated
as a miss and deleted, so a corrupted store heals itself.  Because
writes are atomic and keys are content hashes, concurrent writers (the
sweep fan-out workers) can only ever race to write *identical* bytes.

Entries live in ``$REPRO_CACHE_DIR`` (or ``~/.cache/repro``) as
``<stage>-<fingerprint[:40]><suffix>``.  Bump :data:`ARTIFACT_VERSION`
whenever the envelope or a stage's stored layout changes meaning.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional

import numpy as np

from repro.observe import get_tracer
from repro.observe.catalog import STORE_ARTIFACT_BYTES, STORE_ARTIFACT_EVENTS

#: Format/semantics version folded into every artifact key and file.
ARTIFACT_VERSION = 1

#: Stages stored as ``.npz`` arrays; every other stage is ``.json.gz``.
NPZ_STAGES = frozenset({"stat", "samples"})

#: File suffixes of store entries, one per codec.
SUFFIXES = (".json.gz", ".npz")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


def canonical_json(payload: Any) -> str:
    """Canonical (sorted, compact) JSON rendering of a payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint(payload: Any) -> str:
    """sha256 hex digest of the canonical JSON rendering of ``payload``.

    Payloads must be built from JSON-serializable primitives only;
    every stage folds a version and its stage name into the payload so
    fingerprints can never collide across stages or format revisions.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _write_npz(handle, envelope: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> None:
    np.savez_compressed(handle, __meta__=np.array(canonical_json(envelope)), **arrays)


def _read_npz(path: Path):
    with np.load(path, allow_pickle=False) as data:
        envelope = json.loads(str(data["__meta__"]))
        arrays = {name: data[name] for name in data.files if name != "__meta__"}
    return envelope, arrays


def _canonical_pieces(value: Any, depth: int = 2) -> Iterator[str]:
    """:func:`canonical_json` of ``value``, in pieces.

    The top ``depth`` levels of containers are split so each C-encoder
    call covers one item: encoding a whole document at once holds every
    token as a small string until it ends (about six times the text on
    CPython 3.11), where this keeps the peak at one item.  The pieces
    join to exactly ``canonical_json(value)``.
    """
    if depth and isinstance(value, dict) and all(isinstance(k, str) for k in value):
        yield "{"
        for position, key in enumerate(sorted(value)):
            yield ("," if position else "") + json.dumps(key) + ":"
            yield from _canonical_pieces(value[key], depth - 1)
        yield "}"
    elif depth and isinstance(value, (list, tuple)):
        yield "["
        for position, item in enumerate(value):
            if position:
                yield ","
            yield from _canonical_pieces(item, depth - 1)
        yield "]"
    else:
        yield canonical_json(value)


def _write_json(handle, envelope: Dict[str, Any], payload: Any) -> None:
    # one write per item, each encoded by the C encoder: ``json.dump``
    # took the pure-Python encoder and made one write per token
    with gzip.open(handle, "wt", encoding="utf-8") as stream:
        for piece in _canonical_pieces({**envelope, "payload": payload}):
            stream.write(piece)


def _read_json(path: Path):
    with gzip.open(path, "rt", encoding="utf-8") as stream:
        envelope = json.load(stream)
    return envelope, envelope["payload"]


@dataclass(frozen=True)
class ArtifactStats:
    """Summary of an artifact store directory's contents."""

    directory: Path
    entries: int
    total_bytes: int
    #: Entry count per stage prefix (``stat``, ``synth``, ...) — the
    #: store-side aggregate mirroring the run manifest's stage ids.
    by_stage: Dict[str, int] = field(default_factory=dict)

    def to_text(self) -> str:
        """One-line human-readable rendering (plus stage breakdown)."""
        kib = self.total_bytes / 1024
        text = f"{self.directory}: {self.entries} artifacts, {kib:.1f} KiB"
        if self.by_stage:
            breakdown = ", ".join(
                f"{count} {stage}" for stage, count in sorted(self.by_stage.items())
            )
            text += f" ({breakdown})"
        return text


class ArtifactStore:
    """Content-addressed on-disk store of stage artifacts."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    # ------------------------------------------------------------------

    def path_for(self, stage: str, key: str) -> Path:
        """File an artifact of ``(stage, key)`` lives at."""
        suffix = ".npz" if stage in NPZ_STAGES else ".json.gz"
        return self.directory / f"{stage}-{key[:40]}{suffix}"

    def has(self, stage: str, key: str) -> bool:
        """Cheap existence probe (no integrity check)."""
        return self.path_for(stage, key).is_file()

    def load(
        self,
        stage: str,
        key: str,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Optional[Any]:
        """The stored payload of ``(stage, key)``, or ``None`` on miss.

        With ``decode``, the payload passed through it.  An entry that
        exists but cannot be read or decoded, or whose envelope does
        not match the requested stage/key/version, is deleted and
        counts as ``healed``.
        """
        path = self.path_for(stage, key)
        if not path.is_file():
            STORE_ARTIFACT_EVENTS.labels(event="miss").inc()
            return None
        try:
            size = path.stat().st_size
            envelope, payload = (
                _read_npz(path) if stage in NPZ_STAGES else _read_json(path)
            )
            if (
                envelope.get("version") != ARTIFACT_VERSION
                or envelope.get("stage") != stage
                or envelope.get("key") != key
            ):
                raise ValueError("artifact envelope mismatch")
            if decode is not None:
                payload = decode(payload)
        except Exception as error:
            # Self-healing: an unreadable entry becomes a miss.  The
            # anomaly is worth a trace event — silent healing hides an
            # unhealthy store (disk trouble, version skew, races).
            self._discard(path)
            STORE_ARTIFACT_EVENTS.labels(event="healed").inc()
            get_tracer().event(
                "store.self_heal",
                stage=stage,
                file=path.name,
                error=type(error).__name__,
            )
            return None
        STORE_ARTIFACT_EVENTS.labels(event="hit").inc()
        STORE_ARTIFACT_BYTES.labels(direction="read").inc(size)
        return payload

    def store(self, stage: str, key: str, payload: Any) -> Path:
        """Persist ``payload`` under ``(stage, key)`` (atomically)."""
        envelope = {"version": ARTIFACT_VERSION, "stage": stage, "key": key}
        write = _write_npz if stage in NPZ_STAGES else _write_json
        path = self.path_for(stage, key)
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=path.stem + "-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as raw:
                write(raw, envelope, payload)
            os.replace(tmp_name, path)
            STORE_ARTIFACT_BYTES.labels(direction="written").inc(
                path.stat().st_size
            )
        except BaseException:
            self._discard(Path(tmp_name))
            raise
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _entries(self):
        if self.directory.is_dir():
            for suffix in SUFFIXES:
                yield from self.directory.glob(f"*{suffix}")

    def stats(self) -> ArtifactStats:
        """Entry count, total size and per-stage breakdown (both codecs)."""
        entries = 0
        total = 0
        by_stage: Dict[str, int] = {}
        for path in self._entries():
            entries += 1
            total += path.stat().st_size
            stage = path.name.rsplit("-", 1)[0]
            by_stage[stage] = by_stage.get(stage, 0) + 1
        return ArtifactStats(
            directory=self.directory,
            entries=entries,
            total_bytes=total,
            by_stage=by_stage,
        )

    def clear(self) -> int:
        """Delete every entry (and stray temp file); returns the number
        of entries removed."""
        removed = 0
        for path in list(self._entries()):
            self._discard(path)
            removed += 1
        if self.directory.is_dir():
            for path in self.directory.glob("*.tmp"):
                self._discard(path)
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
