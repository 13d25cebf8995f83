"""Variant tables and initial mapping.

:class:`VariantTables` is checked two ways: the original unit cases on
the statistical library, and random window maps (excluded pins, missing
keys, ``inf`` and random caps, ties in strength, shuffled library
order) against the object-model :class:`CellChoices` reference.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cells.naming import parse_cell_name
from repro.core.restriction import SlewLoadWindow
from repro.errors import SynthesisError
from repro.liberty.model import Library
from repro.netlist.builder import NetlistBuilder
from repro.sta.graph import DesignArrays, cell_tables
from repro.synth.constraints import SynthesisConstraints
from repro.synth.mapping import VariantTables, initial_mapping
from tests.synth.reference import CellChoices


@pytest.fixture()
def constraints():
    return SynthesisConstraints(clock_period=2.0)


def families_of(library):
    return sorted({family for family in cell_tables(library).families if family})


def usable_families(variants, library):
    usable = []
    for family in families_of(library):
        try:
            variants.variants(family)
        except SynthesisError:
            continue
        usable.append(family)
    return usable


def tables(library, constraints):
    return VariantTables(cell_tables(library), constraints)


def one_load(variants, family, load, actual_load=None):
    """The scalar form of ``smallest_for_load``: one query."""
    actual = None if actual_load is None else np.array([actual_load])
    picked = variants.smallest_for_load(
        [family], np.zeros(1, dtype=np.intp), np.array([load]), actual
    )
    return int(picked[0])


class TestCellChoices:
    """The unit cases first written for the object-model choices, on
    :class:`VariantTables`."""

    def test_variants_sorted_by_strength(self, statistical_library, constraints):
        variants = tables(statistical_library, constraints)
        for family in usable_families(variants, statistical_library):
            strengths = variants.strength[variants.variants(family)].tolist()
            assert strengths == sorted(strengths)

    def test_every_family_available_untuned(self, statistical_library, constraints):
        variants = tables(statistical_library, constraints)
        assert {"INV", "ND2", "ADDF", "DFF"} <= set(
            usable_families(variants, statistical_library)
        )

    def test_next_up_down(self, statistical_library, constraints):
        variants = tables(statistical_library, constraints)
        inv = variants.weakest("INV")
        up = variants.up[inv]
        assert up >= 0 and variants.strength[up] > variants.strength[inv]
        assert variants.down[inv] == -1
        top = variants.strongest("INV")
        assert variants.up[top] == -1

    def test_smallest_for_load(self, statistical_library, constraints):
        variants = tables(statistical_library, constraints)
        tiny = one_load(variants, "INV", 0.0001)
        assert variants.strength[tiny] == variants.strength[variants.weakest("INV")]
        big = one_load(variants, "INV", 0.1)
        assert variants.strength[big] > variants.strength[tiny]

    def test_smallest_for_huge_load_falls_back_to_largest(
        self, statistical_library, constraints
    ):
        variants = tables(statistical_library, constraints)
        assert one_load(variants, "INV", 99.0) == variants.strongest("INV")

    def test_huge_load_retries_the_actual_load(self, statistical_library, constraints):
        variants = tables(statistical_library, constraints)
        assert one_load(variants, "INV", 99.0, actual_load=0.0001) == variants.weakest("INV")

    def test_untuned_windows_are_unbounded(self, statistical_library, constraints):
        variants = tables(statistical_library, constraints)
        for cell_id in variants.variants("INV"):
            assert math.isinf(variants.max_slew[cell_id])
            assert variants.max_load[cell_id] > 0

    def test_unknown_cell_rejected(self, statistical_library, constraints):
        """A name outside the library has no cell id, and a family with
        no cells has no variants."""
        variants = tables(statistical_library, constraints)
        assert "INV_999" not in cell_tables(statistical_library).index
        with pytest.raises(SynthesisError):
            variants.variants("GHOST")


def make_windows(library, exclude=(), max_load=None):
    windows = {}
    for cell in library:
        for pin in cell.output_pins():
            if cell.name in exclude:
                windows[(cell.name, pin.name)] = None
            else:
                windows[(cell.name, pin.name)] = SlewLoadWindow(
                    0.0, 1.2, 0.0, max_load or pin.max_capacitance
                )
    return windows


class TestWindowedChoices:
    def test_excluded_variant_unusable(self, statistical_library):
        windows = make_windows(statistical_library, exclude=("INV_0P5",))
        constraints = SynthesisConstraints(clock_period=2.0, windows=windows)
        variants = tables(statistical_library, constraints)
        names = [variants.names[i] for i in variants.variants("INV")]
        assert "INV_0P5" not in names
        assert variants.names[variants.weakest("INV")] == "INV_1"

    def test_fully_excluded_family_raises(self, statistical_library):
        inv_names = tuple(c.name for c in statistical_library if c.name.startswith("INV_"))
        windows = make_windows(statistical_library, exclude=inv_names)
        constraints = SynthesisConstraints(clock_period=2.0, windows=windows)
        variants = tables(statistical_library, constraints)
        with pytest.raises(SynthesisError):
            variants.variants("INV")

    def test_window_caps_max_load(self, statistical_library):
        windows = make_windows(statistical_library, max_load=0.001)
        constraints = SynthesisConstraints(clock_period=2.0, windows=windows)
        variants = tables(statistical_library, constraints)
        for cell_id in variants.variants("ND2"):
            assert variants.max_load[cell_id] <= 0.001


class TestInitialMapping:
    def test_binds_weakest_variant(self, statistical_library, constraints):
        builder = NetlistBuilder("map")
        a = builder.input("a")
        builder.output("y", builder.inv(builder.nand(a, a)))
        netlist = builder.netlist
        variants = tables(statistical_library, constraints)
        design = DesignArrays.from_netlist(netlist)
        cell_ids = initial_mapping(design, variants)
        assert cell_ids.tolist() == [
            variants.weakest(instance.family) for instance in netlist
        ]


# ----------------------------------------------------------------------
# VariantTables against the CellChoices reference
# ----------------------------------------------------------------------

#: Strength spellings that parse to the same value as ``1``.
TIE_SPELLINGS = ("01", "001", "1P0", "01P0", "1P00", "001P0", "0001", "1P000")


def tied_library(base: Library, rng: random.Random) -> Library:
    """``base`` in shuffled order, plus clones of every strength-1 cell
    under names that parse to the same strength (ties for the sort)."""
    cells = list(base)
    for cell in list(cells):
        family, _sep, strength = cell.name.rpartition("_")
        if strength == "1":
            cells.extend(
                dataclasses.replace(cell, name=f"{family}_{spelling}")
                for spelling in rng.sample(TIE_SPELLINGS, rng.randint(1, len(TIE_SPELLINGS)))
            )
    rng.shuffle(cells)
    library = Library(f"{base.name}-tied")
    library.templates = base.templates
    for cell in cells:
        library.add_cell(cell)
    return library


def random_windows(library, rng: random.Random):
    """Per output pin: missing, ``None``, or a window whose caps are
    random (``inf`` included)."""
    windows = {}
    for cell in library:
        for pin in cell.output_pins():
            roll = rng.random()
            if roll < 0.05:
                continue
            if roll < 0.12:
                windows[(cell.name, pin.name)] = None
                continue
            max_load = rng.choice(
                [math.inf, pin.max_capacitance, pin.max_capacitance * rng.uniform(0.05, 1.5)]
            )
            max_slew = rng.choice([math.inf, rng.uniform(0.02, 1.5)])
            windows[(cell.name, pin.name)] = SlewLoadWindow(0.0, max_slew, 0.0, max_load)
    return windows


def excluded_family_windows(library, family):
    """Windows that keep every pin except those of ``family``."""
    windows = make_windows(library)
    for (cell_name, pin), _window in list(windows.items()):
        if cell_name.rpartition("_")[0] == family:
            windows[(cell_name, pin)] = None
    return windows


def check_against_reference(library, constraints, rng: random.Random):
    cells = cell_tables(library)
    variants = VariantTables(cells, constraints)
    choices = CellChoices(library, constraints)
    names = variants.names
    usable = set()
    queries = []
    for family in families_of(library):
        try:
            expected = choices.variants(family)
        except SynthesisError as error:
            with pytest.raises(SynthesisError) as raised:
                variants.variants(family)
            assert str(raised.value) == str(error)
            with pytest.raises(SynthesisError):
                variants.weakest(family)
            continue
        order = variants.variants(family).tolist()
        assert [names[i] for i in order] == [v.cell_name for v in expected]
        assert variants.strength[order].tolist() == [v.strength for v in expected]
        assert variants.max_load[order].tolist() == [v.max_load for v in expected]
        assert variants.max_slew[order].tolist() == [v.max_slew for v in expected]
        for cell_id, variant in zip(order, expected):
            up, down = choices.next_up(variant.cell_name), choices.next_down(variant.cell_name)
            assert variants.up[cell_id] == (-1 if up is None else cells.index[up.cell_name])
            assert variants.down[cell_id] == (
                -1 if down is None else cells.index[down.cell_name]
            )
        assert names[variants.weakest(family)] == choices.smallest(family).cell_name
        assert names[variants.strongest(family)] == choices.largest(family).cell_name
        usable.update(order)
        # loads at, just around, below and above every variant's cap
        caps = [v.max_load for v in expected if math.isfinite(v.max_load)]
        points = [0.0, 99.0, math.inf] + [
            cap * factor for cap in caps for factor in (1.0, 1 - 1e-12, 1 + 1e-12, 0.5)
        ]
        for _ in range(12):
            load, actual = rng.choice(points), rng.choice(points)
            if rng.random() < 0.3:
                load = max(caps, default=0.0) * 2 + 1.0  # above every variant
            queries.append((family, load, actual))
    unusable = [i for i in range(len(names)) if i not in usable]
    for cell_id in unusable:
        assert math.isnan(variants.strength[cell_id])
        assert math.isnan(variants.max_load[cell_id])
        assert math.isnan(variants.max_slew[cell_id])
        assert variants.up[cell_id] == -1 and variants.down[cell_id] == -1
    if not queries:
        return
    rng.shuffle(queries)
    families = sorted({family for family, _load, _actual in queries})
    family_ids = np.array([families.index(f) for f, _l, _a in queries], dtype=np.intp)
    loads = np.array([load for _f, load, _a in queries])
    actuals = np.array([actual for _f, _l, actual in queries])
    plain = variants.smallest_for_load(families, family_ids, loads).tolist()
    retried = variants.smallest_for_load(families, family_ids, loads, actuals).tolist()
    for (family, load, actual), got, got_retried in zip(queries, plain, retried):
        assert names[got] == choices.smallest_for_load(family, load).cell_name
        assert (
            names[got_retried]
            == choices.smallest_for_load(family, load, actual_load=actual).cell_name
        )


@given(seed=st.integers(0, 10**6), tuned=st.booleans(), ties=st.booleans())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_variant_tables_equal_the_reference(statistical_library, seed, tuned, ties):
    rng = random.Random(seed)
    library = tied_library(statistical_library, rng) if ties else statistical_library
    windows = random_windows(library, rng) if tuned else None
    constraints = SynthesisConstraints(clock_period=2.0, windows=windows)
    check_against_reference(library, constraints, rng)


def test_ties_keep_library_order(statistical_library):
    """A family with many equal strengths, far past the size where an
    insertion sort would hide an unstable one."""
    library = tied_library(statistical_library, random.Random(5))
    inv = [c.name for c in library if c.name.rpartition("_")[0] == "INV"]
    assert len(inv) > 16
    check_against_reference(
        library, SynthesisConstraints(clock_period=2.0), random.Random(5)
    )
    variants = tables(library, SynthesisConstraints(clock_period=2.0))
    ones = [
        variants.names[i]
        for i in variants.variants("INV")
        if variants.strength[i] == 1.0
    ]
    assert ones == [name for name in inv if parse_cell_name(name).strength == 1.0]


@pytest.mark.parametrize("family", ["INV", "ND2", "DFF"])
def test_fully_excluded_family_raises_on_both_sides(statistical_library, family):
    constraints = SynthesisConstraints(
        clock_period=2.0, windows=excluded_family_windows(statistical_library, family)
    )
    with pytest.raises(SynthesisError) as reference_error:
        CellChoices(statistical_library, constraints).variants(family)
    with pytest.raises(SynthesisError) as error:
        tables(statistical_library, constraints).variants(family)
    assert str(error.value) == str(reference_error.value)
    check_against_reference(statistical_library, constraints, random.Random(1))


def test_missing_window_keys_make_cells_unusable(statistical_library):
    windows = make_windows(statistical_library)
    del windows[("INV_1", "Z")]
    constraints = SynthesisConstraints(clock_period=2.0, windows=windows)
    variants = tables(statistical_library, constraints)
    names = [variants.names[i] for i in variants.variants("INV")]
    assert "INV_1" not in names
    check_against_reference(statistical_library, constraints, random.Random(2))
