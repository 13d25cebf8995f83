"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError`, so
callers embedding the library can catch a single base class.  Subclasses
are scoped per subsystem and carry enough context in their message to be
actionable without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class LibertyError(ReproError):
    """Problems in the Liberty (.lib) substrate."""


class LibertyParseError(LibertyError):
    """Raised when a .lib file cannot be tokenized or parsed.

    Carries the 1-based ``line`` where the problem was detected.
    """

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class LutError(LibertyError):
    """Raised for malformed look-up tables or invalid LUT operations."""


class CharacterizationError(ReproError):
    """Raised when cell characterization cannot proceed."""


class CatalogError(ReproError):
    """Raised for unknown cells or malformed cell names in the catalog."""


class NetlistError(ReproError):
    """Raised for structurally invalid netlists (dangling nets, cycles...)."""


class TimingError(ReproError):
    """Raised by the STA engine (unconstrained graphs, missing arcs...)."""


class SynthesisError(ReproError):
    """Raised when synthesis cannot map or legalize a design."""


class TuningError(ReproError):
    """Raised by the library-tuning core (bad thresholds, empty regions...)."""


class VariationError(ReproError):
    """Raised by the process-variation substrate."""


class ConfigError(ReproError):
    """Raised for invalid execution configuration.

    Covers malformed environment knobs (``REPRO_SCALE``, ``REPRO_JOBS``)
    and invalid :class:`~repro.flow.experiment.FlowConfig` values — a
    typo must fail loudly instead of silently falling back to defaults.
    """


class ParallelError(ReproError):
    """Raised by :mod:`repro.parallel`: a process worker that died
    outright, or stage-key inputs the stage table does not declare."""


class ObservabilityError(ReproError):
    """Raised by the tracing/metrics layer (:mod:`repro.observe`)."""


class ServeError(ReproError):
    """Raised by the tuning service (:mod:`repro.serve`).

    Covers transport and protocol failures — a malformed HTTP exchange,
    an unreachable server, a response the client cannot decode.  Request
    *validation* problems raise :class:`RequestError` instead.
    """


class RequestError(ServeError):
    """Raised for an invalid service request payload.

    The serve schema (:mod:`repro.serve.schema`) validates strictly —
    wrong schema version, unknown kind, missing or mistyped fields,
    unrecognized extra fields — and every violation raises this type so
    the server can map it to a structured 400 response (never a
    traceback).
    """


class ServerBusyError(ServeError):
    """Raised when the service's dispatch queue is full.

    The bounded backpressure signal: the server maps it to a 429
    response, and the client surfaces it so callers can retry later
    instead of piling more work onto a saturated worker pool.
    """


class LintError(ReproError):
    """Raised by the static-analysis layer (:mod:`repro.lint`).

    Covers unusable inputs — an unreadable or malformed baseline file,
    a scan root that does not exist — not findings: rule violations
    are reported as data, never as exceptions.
    """
