"""Liberty data model.

The classes here mirror the Liberty group structure::

    library (name) {
      operating_conditions ...
      lu_table_template (tmpl) { variable_1/2, index_1/2 }
      cell (NAME) {
        area : ...;
        pin (A) { direction : input; capacitance : ...; }
        pin (Z) {
          direction : output;
          function : "!(A B)";
          max_capacitance : ...;
          timing () {
            related_pin : "A";
            timing_sense : negative_unate;
            cell_rise (tmpl) { values(...) }
            ...
          }
        }
      }
    }

Conventions
-----------
* ``Lut.values[i, j]`` is indexed by ``index_1[i]`` (input transition,
  ns) and ``index_2[j]`` (output load, pF).
* A *statistical* library reuses the same classes; each arc then holds
  ``mean`` tables in the ``cell_rise``/``cell_fall`` slots of one arc
  view and ``sigma`` tables in :attr:`TimingArc.sigma_rise` /
  :attr:`TimingArc.sigma_fall`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import LibertyError, LutError
from repro.units import CAP_UNIT, NOMINAL_TEMPERATURE, NOMINAL_VDD, TIME_UNIT


class PinDirection(enum.Enum):
    """Direction of a cell pin."""

    INPUT = "input"
    OUTPUT = "output"


class TimingSense(enum.Enum):
    """Unateness of a timing arc, as declared in Liberty."""

    POSITIVE_UNATE = "positive_unate"
    NEGATIVE_UNATE = "negative_unate"
    NON_UNATE = "non_unate"


@dataclass(frozen=True)
class LutTemplate:
    """A ``lu_table_template`` group: named index axes shared by LUTs."""

    name: str
    variable_1: str = "input_net_transition"
    variable_2: str = "total_output_net_capacitance"
    index_1: Tuple[float, ...] = ()
    index_2: Tuple[float, ...] = ()

    def shape(self) -> Tuple[int, int]:
        """Return the (rows, cols) shape implied by the index axes."""
        return (len(self.index_1), len(self.index_2))


class Lut:
    """A two-dimensional NLDM look-up table.

    Parameters
    ----------
    index_1:
        Input transition (slew) axis, strictly increasing, in ns.
    index_2:
        Output load axis, strictly increasing, in pF.
    values:
        2-D array of shape ``(len(index_1), len(index_2))``.
    template:
        Optional name of the ``lu_table_template`` the LUT refers to.
    """

    __slots__ = ("index_1", "index_2", "values", "template")

    def __init__(
        self,
        index_1: Iterable[float],
        index_2: Iterable[float],
        values: Iterable[Iterable[float]],
        template: str = "",
    ):
        self.index_1 = np.asarray(list(index_1), dtype=float)
        self.index_2 = np.asarray(list(index_2), dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.template = template
        self._validate()

    def _validate(self) -> None:
        if self.index_1.ndim != 1 or self.index_2.ndim != 1:
            raise LutError("LUT index axes must be one-dimensional")
        if self.index_1.size < 2 or self.index_2.size < 2:
            raise LutError("LUT needs at least 2 points per axis")
        if self.values.shape != (self.index_1.size, self.index_2.size):
            raise LutError(
                f"LUT values shape {self.values.shape} does not match axes "
                f"({self.index_1.size}, {self.index_2.size})"
            )
        if np.any(np.diff(self.index_1) <= 0) or np.any(np.diff(self.index_2) <= 0):
            raise LutError("LUT index axes must be strictly increasing")

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the value grid: (slew points, load points)."""
        return self.values.shape  # type: ignore[return-value]

    def copy(self) -> "Lut":
        """Deep copy of the LUT."""
        return Lut(self.index_1.copy(), self.index_2.copy(), self.values.copy(), self.template)

    def with_values(self, values: np.ndarray) -> "Lut":
        """A new LUT with the given values on this LUT's axes — shared,
        already validated and never written in place, so only the
        values' shape is checked."""
        lut = Lut.__new__(Lut)
        lut.index_1, lut.index_2, lut.template = self.index_1, self.index_2, self.template
        lut.values = np.asarray(values, dtype=float)
        if lut.values.shape != self.values.shape:
            raise LutError(f"LUT values shape {lut.values.shape} does not match axes {self.shape}")
        return lut

    def lookup(self, slew: float, load: float) -> float:
        """Bilinear interpolation at (slew, load); see :mod:`repro.liberty.lut`."""
        from repro.liberty.lut import bilinear_interpolate

        return bilinear_interpolate(self, slew, load)

    def same_axes(self, other: "Lut") -> bool:
        """True when both LUTs share identical index axes."""
        return (
            self.index_1.size == other.index_1.size
            and self.index_2.size == other.index_2.size
            and bool(np.allclose(self.index_1, other.index_1))
            and bool(np.allclose(self.index_2, other.index_2))
        )

    def allclose(self, other: "Lut", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """True when axes and values match within tolerance."""
        return self.same_axes(other) and bool(
            np.allclose(self.values, other.values, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Lut(shape={self.shape}, slew=[{self.index_1[0]:g}..{self.index_1[-1]:g}] "
            f"{TIME_UNIT}, load=[{self.index_2[0]:g}..{self.index_2[-1]:g}] {CAP_UNIT})"
        )


@dataclass
class TimingArc:
    """A timing arc from ``related_pin`` to the output pin owning it.

    For nominal / Monte-Carlo libraries the four NLDM tables hold delay
    and output-transition values.  For a *statistical* library
    (Sec. IV), ``cell_rise``/``cell_fall`` hold per-entry means and
    ``sigma_rise``/``sigma_fall`` hold per-entry standard deviations.
    """

    related_pin: str
    timing_sense: TimingSense = TimingSense.NEGATIVE_UNATE
    cell_rise: Optional[Lut] = None
    cell_fall: Optional[Lut] = None
    rise_transition: Optional[Lut] = None
    fall_transition: Optional[Lut] = None
    sigma_rise: Optional[Lut] = None
    sigma_fall: Optional[Lut] = None
    #: Switching energy per transition (pJ); present when the library
    #: was characterized with power (paper Sec. II mentions the .lib
    #: power groups; Sec. III the power extension of the metric).
    power_rise: Optional[Lut] = None
    power_fall: Optional[Lut] = None
    sigma_power_rise: Optional[Lut] = None
    sigma_power_fall: Optional[Lut] = None

    def delay_tables(self) -> List[Lut]:
        """The delay LUTs present on this arc (cell_rise/cell_fall)."""
        return [t for t in (self.cell_rise, self.cell_fall) if t is not None]

    def transition_tables(self) -> List[Lut]:
        """The output-transition LUTs present on this arc."""
        return [t for t in (self.rise_transition, self.fall_transition) if t is not None]

    def sigma_tables(self) -> List[Lut]:
        """The delay-sigma LUTs present on this arc (statistical libs)."""
        return [t for t in (self.sigma_rise, self.sigma_fall) if t is not None]

    def power_tables(self) -> List[Lut]:
        """Switching-energy LUTs present on this arc."""
        return [t for t in (self.power_rise, self.power_fall) if t is not None]

    def power_sigma_tables(self) -> List[Lut]:
        """Energy-sigma LUTs present on this arc (statistical libs)."""
        return [
            t for t in (self.sigma_power_rise, self.sigma_power_fall) if t is not None
        ]

    def all_tables(self) -> List[Lut]:
        """Every LUT attached to the arc, in a stable order."""
        return (
            self.delay_tables()
            + self.transition_tables()
            + self.sigma_tables()
            + self.power_tables()
            + self.power_sigma_tables()
        )

    def worst_delay(self, slew: float, load: float) -> float:
        """Worst (max) of rise/fall delay at the given conditions."""
        tables = self.delay_tables()
        if not tables:
            raise LibertyError(f"arc from {self.related_pin} has no delay tables")
        return max(t.lookup(slew, load) for t in tables)

    def worst_transition(self, slew: float, load: float) -> float:
        """Worst (max) of rise/fall output transition at the conditions."""
        tables = self.transition_tables()
        if not tables:
            raise LibertyError(f"arc from {self.related_pin} has no transition tables")
        return max(t.lookup(slew, load) for t in tables)

    def worst_sigma(self, slew: float, load: float) -> float:
        """Worst (max) of rise/fall delay sigma at the conditions."""
        tables = self.sigma_tables()
        if not tables:
            raise LibertyError(f"arc from {self.related_pin} has no sigma tables")
        return max(t.lookup(slew, load) for t in tables)


@dataclass
class Pin:
    """A cell pin.

    Input pins carry ``capacitance``; output pins carry ``function``,
    ``max_capacitance`` and the timing arcs ending at them.
    """

    name: str
    direction: PinDirection
    capacitance: float = 0.0
    function: str = ""
    max_capacitance: float = 0.0
    is_clock: bool = False
    timing: List[TimingArc] = field(default_factory=list)

    def arc_from(self, related_pin: str) -> TimingArc:
        """Return the timing arc whose related pin is ``related_pin``."""
        for arc in self.timing:
            if arc.related_pin == related_pin:
                return arc
        raise LibertyError(f"pin {self.name}: no arc from {related_pin}")


@dataclass
class Cell:
    """A standard cell: pins, area and sequential metadata."""

    name: str
    area: float = 0.0
    pins: Dict[str, Pin] = field(default_factory=dict)
    is_sequential: bool = False
    #: Non-empty for flip-flops/latches: name of the clock/enable pin.
    clock_pin: str = ""
    #: Setup time (ns) for sequential cells (simplified scalar model).
    setup_time: float = 0.0
    #: Clock-to-output delay handled via a regular timing arc from the
    #: clock pin; this flag only marks latch (level-sensitive) cells.
    is_latch: bool = False

    def add_pin(self, pin: Pin) -> Pin:
        """Add a pin, rejecting duplicates."""
        if pin.name in self.pins:
            raise LibertyError(f"cell {self.name}: duplicate pin {pin.name}")
        self.pins[pin.name] = pin
        return pin

    def pin(self, name: str) -> Pin:
        """Return the pin called ``name``."""
        try:
            return self.pins[name]
        except KeyError:
            raise LibertyError(f"cell {self.name}: no pin {name}") from None

    def input_pins(self) -> List[Pin]:
        """All input pins, in insertion order."""
        return [p for p in self.pins.values() if p.direction is PinDirection.INPUT]

    def output_pins(self) -> List[Pin]:
        """All output pins, in insertion order."""
        return [p for p in self.pins.values() if p.direction is PinDirection.OUTPUT]

    def data_input_pins(self) -> List[Pin]:
        """Input pins excluding the clock pin (for sequential cells)."""
        return [p for p in self.input_pins() if not p.is_clock]

    def arcs(self) -> Iterator[Tuple[Pin, TimingArc]]:
        """Iterate over (output pin, arc) pairs of the cell."""
        for pin in self.output_pins():
            for arc in pin.timing:
                yield pin, arc

    def arc_count(self) -> int:
        """Total number of timing arcs in the cell."""
        return sum(len(p.timing) for p in self.output_pins())


@dataclass
class OperatingConditions:
    """Liberty ``operating_conditions``: PVT point of the library."""

    name: str = "TT1P1V25C"
    process: float = 1.0
    voltage: float = NOMINAL_VDD
    temperature: float = NOMINAL_TEMPERATURE


class Library:
    """A Liberty library: a named collection of cells plus metadata."""

    def __init__(
        self,
        name: str,
        operating_conditions: Optional[OperatingConditions] = None,
        time_unit: str = TIME_UNIT,
        cap_unit: str = CAP_UNIT,
    ):
        self.name = name
        self.operating_conditions = operating_conditions or OperatingConditions()
        self.time_unit = time_unit
        self.cap_unit = cap_unit
        self.templates: Dict[str, LutTemplate] = {}
        self.cells: Dict[str, Cell] = {}
        #: True when the library stores statistics (mean/sigma) rather
        #: than a single nominal sample.
        self.is_statistical = False

    def add_template(self, template: LutTemplate) -> LutTemplate:
        """Register a LUT template, rejecting duplicates."""
        if template.name in self.templates:
            raise LibertyError(f"duplicate lu_table_template {template.name}")
        self.templates[template.name] = template
        return template

    def add_cell(self, cell: Cell) -> Cell:
        """Register a cell, rejecting duplicates."""
        if cell.name in self.cells:
            raise LibertyError(f"duplicate cell {cell.name}")
        self.cells[cell.name] = cell
        return cell

    def cell(self, name: str) -> Cell:
        """Return the cell called ``name``."""
        try:
            return self.cells[name]
        except KeyError:
            raise LibertyError(f"library {self.name}: no cell {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def combinational_cells(self) -> List[Cell]:
        """All non-sequential cells."""
        return [c for c in self if not c.is_sequential]

    def sequential_cells(self) -> List[Cell]:
        """All flip-flop and latch cells."""
        return [c for c in self if c.is_sequential]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "statistical" if self.is_statistical else "nominal"
        return f"Library({self.name!r}, {len(self)} cells, {kind})"
