"""Library characterization driver (paper Sec. II + IV).

Three products, all from the same underlying Monte-Carlo draws:

* :meth:`Characterizer.nominal_library` — one library with zero
  variation (the classic .lib);
* :meth:`Characterizer.sample_libraries` — the N distinct libraries of
  paper Sec. IV ("assume that N distinct libraries are created from a
  Monte Carlo sampling"), to be combined by
  :mod:`repro.statlib.builder` exactly as Fig. 2 describes;
* :meth:`Characterizer.statistical_library` — the combined statistical
  library computed directly (vectorized across samples).  This is the
  fast path; the test-suite asserts it matches the Fig. 2 combine of
  :meth:`sample_libraries` bit-for-bit.

Determinism: every cell draws from its own RNG stream keyed by
``(seed, sha256(cell name))``, so the draws of a cell depend only on the
seed and the cell itself — not on which other cells are characterized
alongside it, nor on which process characterizes it.  That per-cell
keying is what makes the :mod:`repro.parallel` fan-out bit-identical to
the serial path: a worker handed any chunk of cells regenerates exactly
the draws the serial loop would have used.

The characterizer only computes.  Storing and serving libraries is the
flow's: :class:`~repro.flow.experiment.TuningFlow` resolves the ``stat``
and ``samples`` stages through its
:class:`~repro.flow.pipeline.ArtifactPipeline` with the library codec of
:mod:`repro.parallel.cache`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cells.catalog import SEQUENTIAL_SETUP_TIME, CellSpec
from repro.characterization.delaymodel import ArcTables, GateDelayModel
from repro.characterization.devices import CellElectricalView, network_geometry
from repro.characterization.grids import GridConfig, load_grid, slew_grid
from repro.characterization.power import PowerModel
from repro.errors import CharacterizationError, ReproError
from repro.observe import get_tracer
from repro.observe.catalog import (
    CHARACTERIZE_CELLS,
    CHARACTERIZE_MC_SAMPLES,
)
from repro.liberty.model import (
    Cell,
    Library,
    Lut,
    LutTemplate,
    OperatingConditions,
    Pin,
    PinDirection,
    TimingArc,
)
from repro.variation.montecarlo import GlobalSigmas
from repro.variation.pelgrom import PelgromModel
from repro.variation.process import Corner, TechnologyParams, typical_corner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.backends import ExecutorBackend

#: Per-arc local draws: array of shape (4, N) holding
#: (dvth_rise, dbeta_rise, dvth_fall, dbeta_fall) for N samples.
ArcDraws = np.ndarray
#: Per-cell draws keyed by (input_pin, output_pin).
CellDraws = Dict[Tuple[str, str], ArcDraws]
#: A variation input: a scalar, or an (N,) vector over samples.
ArrayLike = Union[float, np.ndarray]

#: Cells characterized in this process (all modes).  Worker processes
#: count their own work; a store hit performs zero characterizations.
_characterize_calls = 0


def characterization_call_count() -> int:
    """Number of :meth:`Characterizer.characterize_cell` calls so far.

    The counter is per-process and cumulative; tests use it (after
    :func:`reset_characterization_call_count`) to assert that a warm
    store performs zero re-characterization.
    """
    return _characterize_calls


def reset_characterization_call_count() -> None:
    """Reset the per-process characterization call counter to zero."""
    global _characterize_calls
    _characterize_calls = 0


def cell_rng(seed: int, cell_name: str) -> np.random.Generator:
    """The dedicated RNG stream of one cell.

    Streams are keyed by ``(seed, sha256(cell name))``, making each
    cell's draws independent of catalog slicing, ordering and of the
    process that generates them — the determinism contract of the
    parallel characterization layer.
    """
    digest = hashlib.sha256(cell_name.encode("utf-8")).digest()[:8]
    name_key = int.from_bytes(digest, "little")
    return np.random.default_rng(np.random.SeedSequence([seed, name_key]))


@dataclass(frozen=True)
class GlobalDraws:
    """Die-level draws shared by all cells, one entry per sample."""

    dvth: np.ndarray
    dbeta: np.ndarray
    dlength_rel: np.ndarray

    @staticmethod
    def zeros(n_samples: int) -> "GlobalDraws":
        """All-zero draws (no inter-die variation) for N samples."""
        zero = np.zeros(n_samples)
        return GlobalDraws(zero, zero.copy(), zero.copy())


def _lift(value: ArrayLike) -> ArrayLike:
    """Scalars pass through; (N,) sample vectors gain the grid axes."""
    return value if np.ndim(value) == 0 else np.asarray(value)[:, None, None]


def batched_arc_tables(
    model: GateDelayModel,
    spec: CellSpec,
    output_pin: str,
    rise: bool,
    slew_axis: np.ndarray,
    load_axis: np.ndarray,
    dvth: ArrayLike = 0.0,
    dbeta: ArrayLike = 0.0,
    dlength_rel: ArrayLike = 0.0,
) -> ArcTables:
    """Arc delay/transition tensors in one broadcast surrogate call.

    (n_slew, n_load) with scalar variation, (N, n_slew, n_load) with an
    (N,)-shaped variation axis.  Bit-identical to the per-point
    reference :func:`~repro.kernels.characterization.scalar_arc_tables`.
    """
    return model.arc_tables(
        spec, output_pin, rise=rise,
        slews=slew_axis[:, None], loads=load_axis[None, :],
        dvth=_lift(dvth), dbeta=_lift(dbeta), dlength_rel=_lift(dlength_rel),
    )


def batched_arc_energy(
    model: PowerModel,
    spec: CellSpec,
    output_pin: str,
    rise: bool,
    slew_axis: np.ndarray,
    load_axis: np.ndarray,
    dvth: ArrayLike = 0.0,
    dbeta: ArrayLike = 0.0,
) -> np.ndarray:
    """Switching-energy tensor in one broadcast call, shaped as
    :func:`batched_arc_tables`; bit-identical to the reference
    :func:`~repro.kernels.characterization.scalar_arc_energy`."""
    return model.arc_energy(
        spec, output_pin, rise,
        slew_axis[:, None], load_axis[None, :],
        dvth=_lift(dvth), dbeta=_lift(dbeta),
    )


class Characterizer:
    """Characterizes catalog cells into Liberty libraries."""

    def __init__(
        self,
        tech: Optional[TechnologyParams] = None,
        corner: Optional[Corner] = None,
        pelgrom: Optional[PelgromModel] = None,
        grid: Optional[GridConfig] = None,
        global_sigmas: Optional[GlobalSigmas] = None,
        include_power: bool = False,
        n_workers: int = 1,
        backend: Optional[str] = None,
    ):
        self.base_tech = tech or TechnologyParams()
        self.corner = corner or typical_corner()
        self.tech = self.corner.apply(self.base_tech)
        self.pelgrom = pelgrom or PelgromModel()
        self.grid = grid or GridConfig()
        self.global_sigmas = global_sigmas or GlobalSigmas()
        self.model = GateDelayModel(self.tech)
        #: When set, arcs also get switching-energy (and, for the
        #: statistical library, energy-sigma) tables.
        self.include_power = include_power
        #: Default worker count of the library-level drivers
        #: (1 = serial, 0 = one per CPU; see ``repro.parallel``).
        #: Validated eagerly so a bad ``--jobs`` fails even when the
        #: store serves the library and no characterization runs.
        if n_workers < 0:
            raise ReproError(f"n_workers must be >= 0, got {n_workers}")
        self.n_workers = n_workers
        #: Execution backend of the library-level drivers (``serial``
        #: or ``process``; ``None`` = the default backend —
        #: see :mod:`repro.parallel.backends`).  Results are
        #: bit-identical on every backend, so the choice never enters
        #: cache keys.  Validated eagerly so a bad ``--backend`` fails
        #: even when the store serves the library.
        if backend is not None:
            from repro.parallel.backends import validate_backend

            validate_backend(backend)
        self.backend = backend
        if include_power:
            self.power_model = PowerModel(self.tech)

    # ------------------------------------------------------------------
    # Monte-Carlo draws
    # ------------------------------------------------------------------

    def sample_arc_draws(
        self, specs: Sequence[CellSpec], n_samples: int, seed: int
    ) -> Dict[str, CellDraws]:
        """Draw the local-mismatch samples for every cell arc.

        The returned structure is the single source of randomness for
        both the per-sample libraries and the direct statistical
        library, which is what makes the two paths agree exactly.  Each
        cell draws from its own :func:`cell_rng` stream, so any subset
        of cells — in any process — reproduces the same draws.
        """
        if n_samples < 2:
            raise CharacterizationError("need at least 2 Monte-Carlo samples")
        CHARACTERIZE_MC_SAMPLES.inc(n_samples * len(specs))
        draws: Dict[str, CellDraws] = {}
        for spec in specs:
            rng = cell_rng(seed, spec.name)
            cell_draws: CellDraws = {}
            for input_pin, output_pin in spec.function.arcs():
                drive = spec.drive(output_pin)
                geo_up = network_geometry(self.tech, spec, drive, rise=True)
                geo_down = network_geometry(self.tech, spec, drive, rise=False)
                sigma = np.array([
                    self.pelgrom.sigma_vth_stack(geo_up.width, geo_up.length, geo_up.stack),
                    self.pelgrom.sigma_beta_rel_stack(geo_up.width, geo_up.length, geo_up.stack),
                    self.pelgrom.sigma_vth_stack(
                        geo_down.width, geo_down.length, geo_down.stack
                    ),
                    self.pelgrom.sigma_beta_rel_stack(
                        geo_down.width, geo_down.length, geo_down.stack
                    ),
                ])
                cell_draws[(input_pin, output_pin)] = (
                    rng.standard_normal((4, n_samples)) * sigma[:, None]
                )
            draws[spec.name] = cell_draws
        return draws

    def sample_global_draws(self, n_samples: int, seed: int) -> GlobalDraws:
        """Draw die-level (inter-die) variation, one per sample."""
        rng = np.random.default_rng(seed)
        sigmas = self.global_sigmas
        return GlobalDraws(
            dvth=rng.normal(0.0, sigmas.vth, n_samples),
            dbeta=rng.normal(0.0, sigmas.beta_rel, n_samples),
            dlength_rel=rng.normal(0.0, sigmas.length_rel, n_samples),
        )

    # ------------------------------------------------------------------
    # Cell-level characterization
    # ------------------------------------------------------------------

    def _arc_tensors(
        self,
        spec: CellSpec,
        output_pin: str,
        draws: Optional[ArcDraws],
        global_draws: Optional[GlobalDraws],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rise delay, fall delay, rise transition, fall transition).

        With draws of N samples the tensors have shape (N, n_s, n_l);
        with ``draws=None`` (nominal) they are (n_s, n_l).  Each tensor
        is one :func:`batched_arc_tables` call.
        """
        slew_axis = slew_grid(self.grid)
        load_axis = load_grid(self.grid, spec)
        dvth_r: np.ndarray | float
        dbeta_r: np.ndarray | float
        dvth_f: np.ndarray | float
        dbeta_f: np.ndarray | float
        dlen: np.ndarray | float
        if draws is None:
            dvth_r = dbeta_r = dvth_f = dbeta_f = 0.0
            dlen = 0.0
        else:
            dvth_r, dbeta_r = draws[0], draws[1]
            dvth_f, dbeta_f = draws[2], draws[3]
            dlen = 0.0
            if global_draws is not None:
                dvth_r = dvth_r + global_draws.dvth
                dvth_f = dvth_f + global_draws.dvth
                dbeta_r = dbeta_r + global_draws.dbeta
                dbeta_f = dbeta_f + global_draws.dbeta
                dlen = global_draws.dlength_rel
        rise = batched_arc_tables(
            self.model, spec, output_pin, True, slew_axis, load_axis,
            dvth=dvth_r, dbeta=dbeta_r, dlength_rel=dlen,
        )
        fall = batched_arc_tables(
            self.model, spec, output_pin, False, slew_axis, load_axis,
            dvth=dvth_f, dbeta=dbeta_f, dlength_rel=dlen,
        )
        return rise.delay, fall.delay, rise.transition, fall.transition

    def _make_cell_shell(self, spec: CellSpec) -> Cell:
        """Cell with pins/areas/metadata but no timing tables yet."""
        cell = Cell(
            name=spec.name,
            area=spec.area,
            is_sequential=spec.is_sequential,
            is_latch=spec.function.is_latch,
            clock_pin=spec.function.clock_pin,
            setup_time=SEQUENTIAL_SETUP_TIME if spec.is_sequential else 0.0,
        )
        view = CellElectricalView(spec, self.tech)
        for pin_name in spec.function.input_pins:
            cell.add_pin(Pin(
                name=pin_name,
                direction=PinDirection.INPUT,
                capacitance=view.input_capacitance(pin_name),
                is_clock=pin_name == spec.function.clock_pin,
            ))
        for pin_name in spec.function.output_pins:
            cell.add_pin(Pin(
                name=pin_name,
                direction=PinDirection.OUTPUT,
                function=spec.function.expressions.get(pin_name, ""),
                max_capacitance=spec.max_load,
            ))
        return cell

    def characterize_cell(
        self,
        spec: CellSpec,
        draws: Optional[CellDraws] = None,
        sample_index: Optional[int] = None,
        global_draws: Optional[GlobalDraws] = None,
        statistical: bool = False,
    ) -> Cell:
        """Characterize one cell.

        * ``draws=None`` — nominal tables.
        * ``draws + sample_index`` — tables of one Monte-Carlo sample.
        * ``draws + statistical=True`` — mean tables in cell_rise/fall,
          per-entry standard deviation in sigma_rise/fall (paper Fig. 2).
        """
        global _characterize_calls
        _characterize_calls += 1
        tracer = get_tracer()
        CHARACTERIZE_CELLS.inc()
        with tracer.span("characterize.cell", cell=spec.name):
            return self._characterize_cell(
                spec, draws, sample_index, global_draws, statistical
            )

    def _characterize_cell(
        self,
        spec: CellSpec,
        draws: Optional[CellDraws],
        sample_index: Optional[int],
        global_draws: Optional[GlobalDraws],
        statistical: bool,
    ) -> Cell:
        cell = self._make_cell_shell(spec)
        slews = slew_grid(self.grid)
        loads = load_grid(self.grid, spec)
        template = f"tmpl_{self.grid.n_slew}x{self.grid.n_load}"

        def lut(values: np.ndarray) -> Lut:
            return Lut(slews, loads, values, template=template)

        for input_pin, output_pin in spec.function.arcs():
            arc_draws = None if draws is None else draws[(input_pin, output_pin)]
            if arc_draws is not None and sample_index is not None:
                arc_draws = arc_draws[:, sample_index : sample_index + 1]
            rise_d, fall_d, rise_t, fall_t = self._arc_tensors(
                spec, output_pin, arc_draws, global_draws
            )
            arc = TimingArc(
                related_pin=input_pin,
                timing_sense=spec.function.sense(input_pin, output_pin),
            )
            if draws is None:
                arc.cell_rise = lut(rise_d)
                arc.cell_fall = lut(fall_d)
                arc.rise_transition = lut(rise_t)
                arc.fall_transition = lut(fall_t)
            elif statistical:
                arc.cell_rise = lut(rise_d.mean(axis=0))
                arc.cell_fall = lut(fall_d.mean(axis=0))
                arc.rise_transition = lut(rise_t.mean(axis=0))
                arc.fall_transition = lut(fall_t.mean(axis=0))
                arc.sigma_rise = lut(rise_d.std(axis=0, ddof=1))
                arc.sigma_fall = lut(fall_d.std(axis=0, ddof=1))
            else:
                if sample_index is None:
                    raise CharacterizationError(
                        "sample characterization needs a sample_index"
                    )
                arc.cell_rise = lut(rise_d[0])
                arc.cell_fall = lut(fall_d[0])
                arc.rise_transition = lut(rise_t[0])
                arc.fall_transition = lut(fall_t[0])
            if self.include_power:
                self._attach_power(
                    arc, spec, output_pin, arc_draws, statistical, lut
                )
            cell.pin(output_pin).timing.append(arc)
        return cell

    def _energy_tensors(
        self, spec: CellSpec, output_pin: str, arc_draws: Optional[ArcDraws]
    ) -> Dict[bool, np.ndarray]:
        """Switching-energy tensors keyed by rise/fall.

        Shapes follow :meth:`_arc_tensors`: (n_s, n_l) nominal,
        (N, n_s, n_l) with draws.
        """
        slew_axis = slew_grid(self.grid)
        load_axis = load_grid(self.grid, spec)
        energies: Dict[bool, np.ndarray] = {}
        for rise, vth_row, beta_row in (
            (True, 0, 1),
            (False, 2, 3),
        ):
            if arc_draws is None:
                dvth: np.ndarray | float = 0.0
                dbeta: np.ndarray | float = 0.0
            else:
                dvth = arc_draws[vth_row]
                dbeta = arc_draws[beta_row]
            energies[rise] = batched_arc_energy(
                self.power_model, spec, output_pin, rise,
                slew_axis, load_axis, dvth=dvth, dbeta=dbeta,
            )
        return energies

    def _attach_power(
        self, arc, spec, output_pin, arc_draws, statistical, lut
    ) -> None:
        """Add switching-energy tables to an arc (see ``include_power``)."""
        energies = self._energy_tensors(spec, output_pin, arc_draws)
        if arc_draws is None:
            arc.power_rise = lut(energies[True])
            arc.power_fall = lut(energies[False])
        elif statistical:
            arc.power_rise = lut(energies[True].mean(axis=0))
            arc.power_fall = lut(energies[False].mean(axis=0))
            arc.sigma_power_rise = lut(energies[True].std(axis=0, ddof=1))
            arc.sigma_power_fall = lut(energies[False].std(axis=0, ddof=1))
        else:
            arc.power_rise = lut(energies[True][0])
            arc.power_fall = lut(energies[False][0])

    # ------------------------------------------------------------------
    # Library-level drivers
    # ------------------------------------------------------------------

    def _make_library_shell(self, name: str) -> Library:
        library = Library(
            name=name,
            operating_conditions=OperatingConditions(
                name=self.corner.name,
                voltage=self.corner.voltage,
                temperature=self.corner.temperature,
            ),
        )
        library.add_template(LutTemplate(name=f"tmpl_{self.grid.n_slew}x{self.grid.n_load}"))
        return library

    def nominal_library(
        self, specs: Sequence[CellSpec], name: Optional[str] = None
    ) -> Library:
        """The nominal (zero-variation) library at this corner."""
        library = self._make_library_shell(name or self.corner.name)
        for spec in specs:
            library.add_cell(self.characterize_cell(spec))
        return library

    def library_shell(self, name: str) -> Library:
        """Public access to the empty library skeleton (used by the
        library codec to rebuild libraries from stored LUT arrays)."""
        return self._make_library_shell(name)

    def cell_from_tables(
        self,
        spec: CellSpec,
        tables: Dict[Tuple[str, str], Dict[str, np.ndarray]],
    ) -> Cell:
        """Rebuild a characterized cell from precomputed LUT values.

        ``tables`` maps each ``(input_pin, output_pin)`` arc to a dict
        of LUT-slot name (``cell_rise``, ``sigma_fall``, ...) to value
        array.  Used by :mod:`repro.parallel.cache` to reconstruct
        libraries without re-running the delay model; the cell shell
        (pins, capacitances, areas) is rebuilt from the spec, which is
        cheap and keeps the cache file down to the arrays themselves.
        """
        cell = self._make_cell_shell(spec)
        slews = slew_grid(self.grid)
        loads = load_grid(self.grid, spec)
        template = f"tmpl_{self.grid.n_slew}x{self.grid.n_load}"
        for input_pin, output_pin in spec.function.arcs():
            arc = TimingArc(
                related_pin=input_pin,
                timing_sense=spec.function.sense(input_pin, output_pin),
            )
            for slot, values in tables[(input_pin, output_pin)].items():
                setattr(arc, slot, Lut(slews, loads, values, template=template))
            cell.pin(output_pin).timing.append(arc)
        return cell

    def _sample_table_stacks(
        self,
        spec: CellSpec,
        draws: CellDraws,
        global_draws: Optional[GlobalDraws],
    ) -> Dict[Tuple[str, str], Dict[str, np.ndarray]]:
        """Per-arc LUT-slot stacks over the full sample axis.

        One tensor evaluation per arc covers every Monte-Carlo sample;
        slicing ``stack[k]`` reproduces the per-sample tables bit for
        bit (elementwise arithmetic is shape-independent).
        """
        stacks: Dict[Tuple[str, str], Dict[str, np.ndarray]] = {}
        for input_pin, output_pin in spec.function.arcs():
            arc_draws = draws[(input_pin, output_pin)]
            rise_d, fall_d, rise_t, fall_t = self._arc_tensors(
                spec, output_pin, arc_draws, global_draws
            )
            slots = {
                "cell_rise": rise_d,
                "cell_fall": fall_d,
                "rise_transition": rise_t,
                "fall_transition": fall_t,
            }
            if self.include_power:
                energies = self._energy_tensors(spec, output_pin, arc_draws)
                slots["power_rise"] = energies[True]
                slots["power_fall"] = energies[False]
            stacks[(input_pin, output_pin)] = slots
        return stacks

    def characterize_cell_samples(
        self,
        spec: CellSpec,
        draws: CellDraws,
        sample_indices: Sequence[int],
        global_draws: Optional[GlobalDraws] = None,
    ) -> List[Cell]:
        """One spec's cells for many Monte-Carlo samples at once.

        Evaluates the full (N, slew, load) tensor of every arc once and
        slices per sample — bit-identical to the per-``k``
        :meth:`characterize_cell` loop (``tests/kernels``).
        ``sample_indices`` are absolute indices into the draws' sample
        axis.
        """
        global _characterize_calls
        _characterize_calls += len(sample_indices)
        tracer = get_tracer()
        CHARACTERIZE_CELLS.inc(len(sample_indices))
        with tracer.span(
            "characterize.cell_samples",
            cell=spec.name,
            n_samples=len(sample_indices),
        ):
            stacks = self._sample_table_stacks(spec, draws, global_draws)
            return [
                self.cell_from_tables(
                    spec,
                    {
                        arc: {slot: stack[k] for slot, stack in slots.items()}
                        for arc, slots in stacks.items()
                    },
                )
                for k in sample_indices
            ]

    def sample_libraries(
        self,
        specs: Sequence[CellSpec],
        n_samples: int,
        seed: int = 0,
        include_global: bool = False,
        n_workers: Optional[int] = None,
    ) -> List[Library]:
        """The N distinct Monte-Carlo libraries of paper Sec. IV.

        ``n_workers`` overrides the characterizer's default worker
        count (1 = serial, 0 = one per CPU); any parallel schedule is
        bit-identical to the serial path because each cell's draws come
        from its own seeded stream.
        """
        with get_tracer().span(
            "characterize.samples", n_cells=len(specs), n_samples=n_samples
        ):
            backend = self._resolve_backend(n_workers)
            global_draws = (
                self.sample_global_draws(n_samples, seed + 1) if include_global else None
            )
            if not backend.in_process:
                from repro.parallel.executor import characterize_sample_cells

                columns = characterize_sample_cells(
                    self, specs, n_samples, seed, global_draws, backend=backend
                )
            else:
                draws = self.sample_arc_draws(specs, n_samples, seed)
                columns = [
                    self.characterize_cell_samples(
                        spec, draws[spec.name], range(n_samples), global_draws
                    )
                    for spec in specs
                ]
            libraries: List[Library] = []
            for k in range(n_samples):
                library = self._make_library_shell(f"{self.corner.name}_mc{k:03d}")
                for column in columns:
                    library.add_cell(column[k])
                libraries.append(library)
            return libraries

    def statistical_library(
        self,
        specs: Sequence[CellSpec],
        n_samples: int = 50,
        seed: int = 0,
        include_global: bool = False,
        name: Optional[str] = None,
        n_workers: Optional[int] = None,
    ) -> Library:
        """The statistical library, computed directly (fast path).

        Numerically identical to running :meth:`sample_libraries` with
        the same arguments and combining them via
        :func:`repro.statlib.builder.build_statistical_library`.
        ``n_workers`` fans the per-cell work out over processes with
        bit-identical results.
        """
        with get_tracer().span(
            "characterize.statistical", n_cells=len(specs), n_samples=n_samples
        ):
            backend = self._resolve_backend(n_workers)
            global_draws = (
                self.sample_global_draws(n_samples, seed + 1) if include_global else None
            )
            if not backend.in_process:
                from repro.parallel.executor import characterize_statistical_cells

                cells = characterize_statistical_cells(
                    self, specs, n_samples, seed, global_draws, backend=backend
                )
            else:
                draws = self.sample_arc_draws(specs, n_samples, seed)
                cells = [
                    self.characterize_cell(
                        spec,
                        draws=draws[spec.name],
                        global_draws=global_draws,
                        statistical=True,
                    )
                    for spec in specs
                ]
            library = self._make_library_shell(name or f"{self.corner.name}_stat")
            library.is_statistical = True
            for cell in cells:
                library.add_cell(cell)
            return library

    def _resolve_jobs(self, n_workers: Optional[int]) -> int:
        from repro.parallel import resolve_jobs

        return resolve_jobs(self.n_workers if n_workers is None else n_workers)

    def _resolve_backend(self, n_workers: Optional[int]) -> "ExecutorBackend":
        """The concrete backend of one library-level driver call.

        A single resolved worker on the default (process) backend
        degrades to the serial backend — no pool is ever spawned for
        one worker's worth of work (see :func:`repro.parallel.
        backends.resolve_backend`).
        """
        from repro.parallel.backends import resolve_backend

        return resolve_backend(self.backend, self._resolve_jobs(n_workers))
