"""The end-to-end tuning experiment flow, as a staged artifact pipeline.

One :class:`TuningFlow` owns the evaluation's stage chain::

    catalog -> statistical library -> tuning -> synthesis run
                                          (+ the minimum-period search)

Every stage is a pure function of a content-addressed fingerprint
(declared in :data:`repro.parallel.artifacts.STAGES`; see
:mod:`repro.flow.pipeline`) and its artifact is persisted in the
on-disk store under ``$REPRO_CACHE_DIR``, so a warm run of the Fig. 10
/ Table 3 evaluation sweep (5 methods x Table 2 parameters x 4 clock
periods) skips synthesis entirely — not just characterization.  The
in-process memos remain in front of the store, so repeated access
within a flow stays allocation-free.

Three scales are provided: ``FlowConfig.paper()`` (the ~18k-gate
microcontroller, 50 MC samples — the paper's setup), ``FlowConfig.
quick()`` (a scaled-down controller, 30 samples) which keeps the
trends but runs each synthesis in a few seconds, and ``FlowConfig.
tiny()`` (a few hundred gates, 10 samples) for smoke runs and CI.

Execution knobs (see :mod:`repro.parallel`): ``n_workers`` fans both
the Monte-Carlo characterization *and* the evaluation sweep points out
over processes with bit-identical results (``REPRO_JOBS`` /
``--jobs``), and ``cache`` memoizes characterized libraries and every
downstream stage artifact on disk.  Each flow records a
:class:`~repro.flow.pipeline.RunManifest` of stage resolutions
(fingerprint, hit/miss, wall time), surfaced via ``--manifest``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.catalog import CellSpec, build_catalog
from repro.characterization.characterize import Characterizer
from repro.core.methods import TuningMethod, method_by_name
from repro.core.tuner import LibraryTuner, TuningResult
from repro.errors import ConfigError, ReproError
from repro.parallel.artifacts import stage_fingerprint
from repro.parallel.backends import DEFAULT_BACKEND, validate_backend
from repro.parallel.cache import (
    LibraryCache,
    characterization_key,
    spec_fingerprint,
)
from repro.observe import Tracer, get_tracer, set_tracer
from repro.flow.metrics import TuningComparison, compare_runs
from repro.flow.minperiod import minimum_clock_period
from repro.flow.pipeline import (
    BASELINE_WINDOWS,
    ArtifactPipeline,
    PointKeys,
    RunManifest,
    SweepPoint,
    minperiod_fingerprint,
    sweep_points,
)
from repro.liberty.model import Library
from repro.netlist.generators.microcontroller import (
    MicrocontrollerParams,
    build_microcontroller,
)
from repro.netlist.model import Netlist
from repro.sta.engine import TimingResult
from repro.sta.graph import CompiledDesign, StaConfig
from repro.sta.paths import WorstPaths, check_arrays, depth_histogram, extract_worst_paths
from repro.sta.statistics import DesignStatistics, design_statistics, fold_statistics
from repro.synth.constraints import SynthesisConstraints
from repro.synth.synthesizer import SynthesisResult, synthesize
from repro.units import GUARD_BAND_NS

@dataclass(frozen=True)
class FlowConfig:
    """Scale, determinism and execution knobs of a flow."""

    design: MicrocontrollerParams = field(default_factory=MicrocontrollerParams)
    n_samples: int = 50
    seed: int = 0
    guard_band: float = GUARD_BAND_NS
    #: Worker processes for characterization and sweep fan-out
    #: (1 = serial, 0 = one per CPU).
    n_workers: int = 1
    #: Persist characterized libraries and stage artifacts on disk
    #: (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``); results are
    #: bit-identical either way.
    cache: bool = True
    #: Execution backend every fan-out dispatches through
    #: (``"serial"`` or ``"process"``, see
    #: :mod:`repro.parallel.backends`); results are bit-identical on
    #: every backend, so the choice never enters fingerprints or cache
    #: keys.
    backend: str = DEFAULT_BACKEND
    #: Optional :class:`~repro.observe.Tracer` the flow installs as the
    #: process-wide active tracer; travels (as a trace handle) into the
    #: sweep worker processes so their spans merge into the same trace.
    #: Excluded from comparison — tracing never changes results.
    tracer: Optional[Tracer] = field(default=None, compare=False, repr=False)

    @staticmethod
    def paper() -> "FlowConfig":
        """The paper's setup: ~18k-gate design, 50 MC libraries."""
        return FlowConfig()

    @staticmethod
    def quick() -> "FlowConfig":
        """Scaled-down setup preserving the trends (for benches/tests)."""
        return FlowConfig(
            design=MicrocontrollerParams(
                width=16,
                regfile_bits=3,
                mult_width=10,
                n_timers=2,
                timer_width=12,
                control_gates=2200,
                status_width=48,
                n_uarts=1,
                gpio_width=8,
            ),
            n_samples=30,
        )

    @staticmethod
    def tiny() -> "FlowConfig":
        """A few hundred gates, 10 samples — smoke runs and CI."""
        return FlowConfig(
            design=MicrocontrollerParams(
                width=12,
                regfile_bits=2,
                mult_width=8,
                n_timers=1,
                timer_width=8,
                control_gates=400,
                status_width=16,
                n_uarts=1,
                gpio_width=4,
            ),
            n_samples=10,
        )

    #: The recognized ``REPRO_SCALE`` values and their factories.
    SCALES = ("quick", "paper", "tiny")

    def scale_name(self) -> str:
        """The named scale this config matches, or ``custom``.

        Matches on the science-defining knobs (design parameters,
        sample count, seed, guard band) only — worker count, caching
        and tracing never change results, so a ``tiny`` run stays
        ``tiny`` however it executes.  The run ledger records this so
        metric trends never mix scales.
        """
        for name in self.SCALES:
            factory = getattr(FlowConfig, name)()
            if (
                factory.design,
                factory.n_samples,
                factory.seed,
                factory.guard_band,
            ) == (self.design, self.n_samples, self.seed, self.guard_band):
                return name
        return "custom"

    @staticmethod
    def from_env(
        scale: Optional[str] = None,
        jobs: Optional[int] = None,
        backend: Optional[str] = None,
        cache: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
    ) -> "FlowConfig":
        """The single resolver for every execution knob.

        Each knob resolves with the same precedence: **explicit
        argument > environment variable > default**.  The knob table:

        =========  =================  ====================================
        argument   environment        meaning (default)
        =========  =================  ====================================
        scale      ``REPRO_SCALE``    named scale, ``quick``/``paper``/
                                      ``tiny`` (``quick``)
        jobs       ``REPRO_JOBS``     worker count, 0 = one per CPU (1)
        backend    ``REPRO_BACKEND``  execution backend (``process``)
        cache      —                  artifact store on/off (on)
        tracer     —                  tracer the flow installs (none)
        =========  =================  ====================================

        ``REPRO_LEDGER`` (run-ledger path, or ``off``) is deliberately
        *not* a flow knob; it is resolved the same way by
        :func:`repro.observe.ledger.resolve_ledger`, and
        ``REPRO_CACHE_DIR`` by the artifact store.  Any invalid value —
        a typo'd scale or backend, a non-integer or negative
        job count — raises :class:`~repro.errors.ConfigError` instead
        of silently falling back to a default.  The CLI, the experiment
        runner and the tuning service all build their configs here, so
        a knob means the same thing on every entry point.
        """
        if scale is None:
            scale = os.environ.get("REPRO_SCALE", "quick")
        scale = scale.strip().lower()
        if scale not in FlowConfig.SCALES:
            raise ConfigError(
                f"unknown REPRO_SCALE {scale!r} "
                f"(use one of {', '.join(FlowConfig.SCALES)})"
            )
        config = getattr(FlowConfig, scale)()
        if jobs is None:
            env_jobs = os.environ.get("REPRO_JOBS")
            if env_jobs is not None:
                try:
                    jobs = int(env_jobs.strip())
                except ValueError:
                    raise ConfigError(
                        f"REPRO_JOBS must be an integer, got {env_jobs!r}"
                    ) from None
        if jobs is not None:
            if jobs < 0:
                raise ConfigError(
                    f"REPRO_JOBS must be >= 0 (0 = one per CPU), got {jobs}"
                )
            config = replace(config, n_workers=jobs)
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND")
        if backend is not None:
            config = replace(
                config, backend=validate_backend(backend.strip().lower())
            )
        if cache is not None:
            config = replace(config, cache=cache)
        if tracer is not None:
            config = replace(config, tracer=tracer)
        return config


@dataclass(frozen=True)
class RunSummary:
    """Summary of a synthesis outcome.

    Everything the evaluation reads off a run that is *not* the paths
    or the statistics: feasibility, area, the sizing/buffering effort,
    and the bound-cell usage of the final design.
    """

    met: bool
    area: float
    wns: float
    sizing_iterations: int
    buffer_instances: int
    failure_reason: str
    legality_violations: int
    n_instances: int
    cell_counts: Tuple[Tuple[str, int], ...]

    @staticmethod
    def from_result(result: SynthesisResult) -> "RunSummary":
        """Summarize a live synthesis result."""
        return RunSummary(
            met=result.met,
            area=result.area,
            wns=float(result.timing.wns),
            sizing_iterations=result.sizing_iterations,
            buffer_instances=result.buffer_instances,
            failure_reason=result.failure_reason,
            legality_violations=result.legality_violations,
            n_instances=result.n_instances,
            cell_counts=tuple(sorted(result.cell_histogram().items())),
        )

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The stored form: the scalar fields as one 0-d structured
        array ``summary``, and the cell usage as ``cell_names``/
        ``cell_counts``."""
        width = max(1, len(self.failure_reason))
        dtype = [
            (name, f"U{width}" if kind is str else kind)
            for name, kind in _SCALARS.items()
        ]
        return {
            "summary": np.array(tuple(getattr(self, name) for name in _SCALARS), dtype),
            "cell_names": np.array([name for name, _ in self.cell_counts], dtype=str),
            "cell_counts": np.array([count for _, count in self.cell_counts], dtype=np.int64),
        }

    @staticmethod
    def from_arrays(arrays: Dict[str, np.ndarray]) -> "RunSummary":
        """Rebuild a summary stored with :meth:`to_arrays`; raises
        ``ValueError`` on missing, extra, mistyped or inconsistent
        arrays or fields."""
        check_arrays(arrays, _SUMMARY_ARRAYS, "summary")
        scalars, names, counts = (
            arrays["summary"], arrays["cell_names"], arrays["cell_counts"]
        )
        fields = scalars.dtype.fields or {}
        if list(fields) != list(_SCALARS) or any(
            fields[name][0].kind != _KINDS[kind] for name, kind in _SCALARS.items()
        ):
            raise ValueError(f"summary fields {scalars.dtype}")
        if names.size != counts.size:
            raise ValueError("inconsistent summary cell counts")
        return RunSummary(
            **{name: cast(scalars[name].item()) for name, cast in _SCALARS.items()},
            cell_counts=tuple(zip(names.tolist(), counts.tolist())),
        )


#: The scalar :class:`RunSummary` fields and their types.
_SCALARS = {
    "met": bool,
    "area": float,
    "wns": float,
    "sizing_iterations": int,
    "buffer_instances": int,
    "failure_reason": str,
    "legality_violations": int,
    "n_instances": int,
}

#: The dtype kind each scalar type is stored with.
_KINDS = {bool: "b", float: "f", int: "i", str: "U"}

#: Every stored :class:`RunSummary` array: its dtype kind and dimensions.
_SUMMARY_ARRAYS: Dict[str, Tuple[str, int]] = {
    "summary": ("V", 0),
    "cell_names": ("U", 1),
    "cell_counts": ("i", 1),
}


@dataclass
class SynthesisRun:
    """A synthesis outcome plus the paper's measurements on it (stage
    ``synth``).

    Live runs keep the full :class:`~repro.synth.synthesizer.
    SynthesisResult` (netlist, timing graph); runs assembled from the
    artifact store carry ``result=None`` — every evaluation metric
    (area, sigma, histograms, paths) is available either way, only the
    raw timing graph is live-only.
    """

    clock_period: float
    summary: RunSummary
    paths: WorstPaths
    stats: DesignStatistics
    #: Live-synthesis handle; ``None`` when served from the store.
    #: Excluded from comparison: a stored run equals its live run.
    result: Optional[SynthesisResult] = field(default=None, compare=False)

    @property
    def met(self) -> bool:
        return self.summary.met

    @property
    def area(self) -> float:
        return self.summary.area

    @property
    def design_sigma(self) -> float:
        """Eq. (11) design sigma over worst endpoint paths."""
        return self.stats.sigma

    @property
    def n_instances(self) -> int:
        """Instances in the synthesized netlist (buffers included)."""
        return self.summary.n_instances

    @property
    def timing(self) -> TimingResult:
        """The live timing result — raises for store-served runs."""
        if self.result is None:
            raise ReproError(
                "timing graph not retained in a cached synthesis artifact; "
                "re-run with FlowConfig(cache=False) or clear the store to "
                "synthesize live"
            )
        return self.result.timing

    def cell_histogram(self) -> Dict[str, int]:
        """Bound-cell usage of the run (paper Fig. 9)."""
        return dict(self.summary.cell_counts)

    def depth_histogram(self) -> Dict[int, int]:
        """Worst-path count per depth (paper Fig. 12)."""
        return depth_histogram(self.paths)

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The stored form, one ``.npz``: the summary's arrays, the
        worst paths' (:meth:`~repro.sta.paths.WorstPaths.to_arrays`)
        and ``step_sigma``, every path step's sigma."""
        return {
            **self.summary.to_arrays(),
            **self.paths.to_arrays(),
            "step_sigma": self.stats.step_sigma,
        }

    @staticmethod
    def from_arrays(arrays: Dict[str, np.ndarray], clock_period: float) -> "SynthesisRun":
        """Rebuild a run stored with :meth:`to_arrays`; its statistics
        are the fold of the stored step sigmas
        (:func:`~repro.sta.statistics.fold_statistics`).  Raises
        ``ValueError`` on missing, extra, mistyped or inconsistent
        arrays."""
        summary_names = arrays.keys() & _SUMMARY_ARRAYS.keys()
        paths = WorstPaths.from_arrays(
            {name: arrays[name] for name in arrays.keys() - summary_names - {"step_sigma"}}
        )
        step_sigma = arrays.get("step_sigma")
        if (
            step_sigma is None
            or step_sigma.dtype.kind != "f"
            or step_sigma.shape != paths.delay.shape
        ):
            raise ValueError("run array step_sigma missing, mistyped or misshapen")
        return SynthesisRun(
            clock_period,
            RunSummary.from_arrays({name: arrays[name] for name in summary_names}),
            paths,
            fold_statistics(paths, step_sigma),
        )


class TuningFlow:
    """Characterize once, tune and synthesize many times — every stage
    memoized in-process and content-addressed on disk."""

    def __init__(self, config: Optional[FlowConfig] = None):
        self.config = config or FlowConfig.paper()
        if self.config.tracer is not None:
            set_tracer(self.config.tracer)
        self.manifest = RunManifest()
        self._store = None
        if self.config.cache:
            from repro.parallel import ArtifactStore

            self._store = ArtifactStore()
        self._pipeline = ArtifactPipeline(self._store, self.manifest)
        self._specs: Optional[List[CellSpec]] = None
        self._characterizer: Optional[Characterizer] = None
        self._statistical: Optional[Library] = None
        self._tuner: Optional[LibraryTuner] = None
        self._statlib_key: Optional[str] = None
        self._design_key: Optional[str] = None
        self._design: Optional[Netlist] = None
        self._compiled: Optional[CompiledDesign] = None
        self._tunings: Dict[Tuple[str, float], TuningResult] = {}
        #: Memoized runs, keyed disjointly: ``("baseline", period)``
        #: for untuned synthesis, ``("tuned", method, parameter,
        #: period)`` for tuned — no tuning-method name can collide
        #: with the baseline entry.  Memoized runs carry no live
        #: result (see :meth:`_memoized`).
        self._runs: Dict[tuple, SynthesisRun] = {}
        self._minimum_periods: Dict[float, float] = {}

    # ------------------------------------------------------------------
    # Lazy stages
    # ------------------------------------------------------------------

    @property
    def specs(self) -> List[CellSpec]:
        if self._specs is None:
            self._specs = self._pipeline.resolve(
                "catalog",
                lambda specs: stage_fingerprint(
                    "catalog", specs=[spec_fingerprint(spec) for spec in specs]
                ),
                build_catalog,
            )
        return self._specs

    @property
    def characterizer(self) -> Characterizer:
        if self._characterizer is None:
            self._characterizer = Characterizer(
                n_workers=self.config.n_workers,
                backend=self.config.backend,
            )
        return self._characterizer

    def _characterization_key(
        self, kind: str, specs: Sequence[CellSpec], n_samples: int, seed: int
    ) -> str:
        return characterization_key(
            self.characterizer, specs, n_samples, seed, include_global=False, kind=kind
        )

    @property
    def statlib_key(self) -> str:
        """Content fingerprint of the statistical-library stage."""
        if self._statlib_key is None:
            self._statlib_key = self._characterization_key(
                "stat", self.specs, self.config.n_samples, self.config.seed
            )
        return self._statlib_key

    @property
    def design_key(self) -> str:
        """Content fingerprint of the evaluation design's parameters."""
        if self._design_key is None:
            self._design_key = stage_fingerprint(
                "design", params=asdict(self.config.design)
            )
        return self._design_key

    @property
    def statistical_library(self) -> Library:
        """The flow's statistical library (stage ``stat``, recorded as
        ``statlib``) — memoized in-process, content-addressed on disk."""
        if self._statistical is None:
            self._statistical = self.library_stage("stat")
        return self._statistical

    def sample_libraries(
        self,
        specs: Optional[Sequence[CellSpec]] = None,
        n_samples: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> List[Library]:
        """The N Monte-Carlo libraries of paper Sec. IV (stage
        ``samples``); the arguments default to the flow's."""
        return self.library_stage("samples", specs, n_samples, seed)

    def library_stage(
        self,
        kind: str,
        specs: Optional[Sequence[CellSpec]] = None,
        n_samples: Optional[int] = None,
        seed: Optional[int] = None,
    ):
        """Resolve a characterization stage — ``stat`` (the statistical
        library) or ``samples`` (the per-sample libraries) — of
        ``specs`` at ``n_samples``/``seed``, each defaulting to the
        flow's.  The key is derived once, here (the flow's own
        statistical library reuses :attr:`statlib_key`), and handed to
        the library codec with the store."""
        default = specs is None and n_samples is None and seed is None
        specs = self.specs if specs is None else specs
        n_samples = self.config.n_samples if n_samples is None else n_samples
        seed = self.config.seed if seed is None else seed
        key = (
            self.statlib_key
            if kind == "stat" and default
            else self._characterization_key(kind, specs, n_samples, seed)
        )
        characterize = (
            self.characterizer.statistical_library
            if kind == "stat"
            else self.characterizer.sample_libraries
        )
        return self._pipeline.resolve(
            kind,
            key,
            lambda: characterize(specs, n_samples=n_samples, seed=seed),
            None
            if self._store is None
            else LibraryCache(self._store).codec(
                kind, self.characterizer, specs, n_samples
            ),
        )

    @property
    def tuner(self) -> LibraryTuner:
        if self._tuner is None:
            self._tuner = LibraryTuner(self.statistical_library)
        return self._tuner

    def _method(self, method) -> TuningMethod:
        """Resolve (and validate) a method given by name or value."""
        return method_by_name(method) if isinstance(method, str) else method

    def _tuning_key(self, method: TuningMethod, parameter: float) -> str:
        """Key of the tuning stage.  ``method`` enters with its
        clustering and swept-bound kind, so a semantic change
        invalidates the artifact even when its name stays the same."""
        method_payload = {
            "name": method.name, "clustering": method.clustering, "kind": method.kind,
        }
        return stage_fingerprint(
            "tuning", statlib=self.statlib_key, method=method_payload, parameter=parameter
        )

    def tuning(self, method: str, parameter: float) -> TuningResult:
        """Tuning result for (method, parameter) — memoized in-process,
        content-addressed on disk."""
        resolved = self._method(method)
        key = (resolved.name, parameter)
        if key not in self._tunings:
            self._tunings[key] = self._pipeline.resolve(
                "tuning",
                self._tuning_key(resolved, parameter),
                lambda: self.tuner.tune(resolved, parameter),
                self._pipeline.payload(
                    "tuning", TuningResult.to_payload, TuningResult.from_payload
                ),
            )
        return self._tunings[key]

    def _template(self) -> Netlist:
        """The evaluation design; the generator runs once per flow."""
        if self._design is None:
            self._design = build_microcontroller(self.config.design)
        return self._design

    def build_design(self) -> Netlist:
        """A fresh, independent copy of the evaluation design, for
        callers that want its objects.  Synthesis never needs one: it
        binds on :attr:`compiled_design`."""
        return self._template().copy()

    @property
    def compiled_design(self) -> CompiledDesign:
        """The evaluation design compiled once per flow (its design key
        and the default :class:`StaConfig`), read-only and shared by
        every synthesis run and probe of the flow."""
        if self._compiled is None:
            self._compiled = CompiledDesign.of(self._template(), StaConfig())
        return self._compiled

    # ------------------------------------------------------------------
    # Synthesis runs (stage: synth)
    # ------------------------------------------------------------------

    def _chain(
        self,
        clock_period: float,
        method: Optional[TuningMethod] = None,
        parameter: float = 0.0,
    ) -> Tuple[SynthesisConstraints, str, str]:
        """A run's constraints, windows key and ``synth`` key.

        The one derivation of a run's key: synthesis runs, the sweep
        diff and the service's warm probe all come through here.  The
        windows key is the tuning fingerprint, or
        :data:`BASELINE_WINDOWS` for the untuned baseline
        (``method=None``).  The constraints carry no windows; they
        enter the synthesis fingerprint through that key.
        """
        constraints = SynthesisConstraints(
            clock_period=clock_period, guard_band=self.config.guard_band
        )
        windows_key = (
            BASELINE_WINDOWS
            if method is None
            else self._tuning_key(method, parameter)
        )
        synth_key = stage_fingerprint(
            "synth",
            statlib=self.statlib_key,
            design=self.design_key,
            windows=windows_key,
            constraints=constraints.fingerprint_payload(),
            sta=asdict(StaConfig()),
        )
        return constraints, windows_key, synth_key

    def point_keys(
        self, clock_period: float, method: str, parameter: float
    ) -> PointKeys:
        """The keys a (clock, method, parameter) point is stored under:
        its tuning, its tuned run and its baseline run."""
        _, tuning_key, tuned = self._chain(
            clock_period, self._method(method), parameter
        )
        _, _, baseline = self._chain(clock_period)
        return PointKeys(tuning_key, tuned, baseline)

    def stored(self, keys: PointKeys) -> Tuple[bool, bool]:
        """Whether a point's tuned run (tuning included) and its
        baseline run are in the store; ``(False, False)`` without
        one.  Existence probes only — a torn artifact still counts as
        stored and self-heals when it is loaded."""
        store = self._store
        if store is None:
            return False, False
        tuned = store.has("tuning", keys.tuning) and store.has("synth", keys.tuned)
        return tuned, store.has("synth", keys.baseline)

    def _resolve_run(
        self,
        clock_period: float,
        method: Optional[TuningMethod] = None,
        parameter: float = 0.0,
    ) -> SynthesisRun:
        """Serve a synthesis run from the store, or synthesize live.

        ``method=None`` is the untuned baseline.  A tuned run's windows
        are materialized only when it must actually synthesize — a
        warm hit never touches the tuning stage.

        A live run takes the worst path of every endpoint (span
        ``sta.paths``) and rolls up eqs. 5-11 (span ``sta.stats``).
        The summary, the worst paths and their step sigmas are stored
        as one ``synth`` artifact, whole or not at all; a load rebuilds
        the statistics by folding the stored step sigmas.
        """
        constraints, _, key = self._chain(clock_period, method, parameter)

        def run_synthesis() -> SynthesisRun:
            bound = constraints
            if method is not None:
                bound = replace(
                    constraints, windows=self.tuning(method, parameter).windows
                )
            result = synthesize(self.compiled_design, self.statistical_library, bound)
            tracer = get_tracer()
            with tracer.span("sta.paths"):
                paths = extract_worst_paths(result.timing)
            with tracer.span("sta.stats"):
                stats = design_statistics(paths, self.statistical_library)
            return SynthesisRun(
                clock_period, RunSummary.from_result(result), paths, stats, result
            )

        return self._pipeline.resolve(
            "synth",
            key,
            run_synthesis,
            self._pipeline.payload(
                "synth",
                SynthesisRun.to_arrays,
                lambda arrays: SynthesisRun.from_arrays(arrays, clock_period),
            ),
        )

    def baseline(self, clock_period: float) -> SynthesisRun:
        """Baseline (untuned) synthesis at a clock period (memoized)."""
        return self._memoized(("baseline", clock_period), clock_period)

    def tuned(self, clock_period: float, method: str, parameter: float) -> SynthesisRun:
        """Tuned synthesis at a clock period (memoized)."""
        resolved = self._method(method)
        return self._memoized(
            ("tuned", resolved.name, parameter, clock_period),
            clock_period, resolved, parameter,
        )

    def _memoized(self, key: tuple, *point) -> SynthesisRun:
        """The run of ``point`` (see :meth:`_resolve_run`) through the
        memo.  The memo keeps the run without its live synthesis
        result, so a flow never holds a netlist or timing graph past
        the call that synthesized it: only that call returns a live
        run."""
        run = self._runs.get(key)
        if run is None:
            run = self._resolve_run(*point)
            self._runs[key] = replace(run, result=None)
        return run

    def compare(
        self, clock_period: float, method: str, parameter: float
    ) -> TuningComparison:
        """Baseline-vs-tuned comparison (paper Figs. 10-11 data point)."""
        baseline = self.baseline(clock_period)
        tuned = self.tuned(clock_period, method, parameter)
        return compare_runs(baseline, tuned, self._method(method).name, parameter)

    def sweep_method(
        self, clock_period: float, method: str, parameters: Optional[List[float]] = None
    ) -> List[TuningComparison]:
        """Compare every Table 2 parameter of a method at one period."""
        values = parameters or list(self._method(method).sweep_values())
        return self.sweep_comparisons(
            [(clock_period, self._method(method).name, value) for value in values]
        )

    def sweep_comparisons(
        self, points: Sequence[SweepPoint]
    ) -> List[TuningComparison]:
        """Evaluate many (period, method, parameter) points.

        :func:`~repro.flow.pipeline.sweep_points` computes the points
        the store lacks — fanned out over the configured
        :class:`~repro.parallel.backends.ExecutorBackend`, or in place
        on a serial backend or without a store — and then collects
        every comparison through :meth:`compare`, in ``points`` order
        and bit-identical on every backend.
        """
        from repro.parallel.backends import resolve_backend

        backend = resolve_backend(self.config.backend, self.config.n_workers)
        _statuses, _scheduled, comparisons = sweep_points(
            [(self, p, self._method(m).name, v) for (p, m, v) in points], backend
        )
        return comparisons

    # ------------------------------------------------------------------
    # Minimum-period search (stage: minperiod)
    # ------------------------------------------------------------------

    def _probe(self, period: float) -> Tuple[bool, float]:
        """Reduced-effort feasibility probe for the minimum search.

        One buffering round is enough to decide met/fail; the operating
        points are later synthesized at full effort, which can only do
        better — so a probe-feasible minimum stays feasible.
        """
        period = round(period, 4)
        constraints = SynthesisConstraints(
            clock_period=period,
            guard_band=self.config.guard_band,
            max_buffer_rounds=1,
        )
        result = synthesize(self.compiled_design, self.statistical_library, constraints)
        return result.met, result.area

    def _search_minimum_period(self, resolution: float) -> float:
        """Paper Sec. VII: reduce the clock until synthesis fails.

        Probes are memoized per search on the rounded period, so the
        bracket ends the bracketing loops already probed are not
        synthesized again when :func:`minimum_clock_period` verifies
        them.
        """
        probes: Dict[float, Tuple[bool, float]] = {}

        def probe(period: float) -> Tuple[bool, float]:
            period = round(period, 4)
            if period not in probes:
                probes[period] = self._probe(period)
            return probes[period]

        guard = self.config.guard_band
        # seed the bracket from the logic depth (~55 ps/stage)
        depth = self.compiled_design.depth
        guess = guard + 0.055 * depth
        lower = round(guard + 0.55 * (guess - guard), 2)
        upper = round(guess * 1.15, 2)
        while probe(upper)[0] is False:
            lower = upper
            upper = round(upper * 1.4, 2)
        while probe(lower)[0] is True:
            upper = lower
            lower = round(guard + 0.6 * (lower - guard), 2)
        return round(
            minimum_clock_period(probe, lower, upper, resolution=resolution), 4
        )

    def minimum_period(self, resolution: float = 0.05) -> float:
        """The smallest feasible clock period (content-addressed).

        A warm store serves the search result without running a single
        probe synthesis — the stage that otherwise dominates a warm
        evaluation's cost.
        """
        if resolution not in self._minimum_periods:
            self._minimum_periods[resolution] = self._pipeline.resolve(
                "minperiod",
                minperiod_fingerprint(
                    self.statlib_key,
                    self.design_key,
                    self.config.guard_band,
                    resolution,
                ),
                lambda: self._search_minimum_period(resolution),
                self._pipeline.payload(
                    "minperiod",
                    lambda minimum: {"minimum": minimum},
                    lambda payload: float(payload["minimum"]),
                ),
            )
        return self._minimum_periods[resolution]
