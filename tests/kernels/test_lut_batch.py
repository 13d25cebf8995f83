"""Property tests pinning the batched kernels to the scalar reference.

:func:`~repro.kernels.lut.batch_interpolate` gathers many tables at
once; these properties hold it bit-for-bit to the scalar
:func:`~repro.liberty.lut.bilinear_interpolate` lookup over random
monotone grids and query points well outside the characterized ranges
(the clamping path on both axes), and pin the library-wide
:func:`~repro.kernels.sta.worst_values` rise/fall max-merge — over
libraries mixing table shapes — to its scalar twin.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LibertyError
from repro.kernels.lut import LutBatch, batch_interpolate, interpolate_many_scalar
from repro.kernels.sta import LibraryTables, library_tables, worst_values
from repro.liberty.lut import bilinear_interpolate, bilinear_interpolate_many
from repro.liberty.model import Cell, Library, Lut, Pin, PinDirection, TimingArc
from tests.liberty.test_lut_properties import POINTS, luts


@st.composite
def shaped_luts(draw, min_tables=1, max_tables=4):
    """Several random LUTs sharing one (n_slew, n_load) shape — the
    homogeneous-batch shape one characterizer grid produces."""
    n_slew = draw(st.integers(2, 6))
    n_load = draw(st.integers(2, 6))
    n_tables = draw(st.integers(min_tables, max_tables))
    tables = []
    for _ in range(n_tables):
        slew_start = draw(st.floats(0.001, 0.1))
        load_start = draw(st.floats(0.0001, 0.01))
        slew_steps = draw(
            st.lists(st.floats(0.01, 0.5), min_size=n_slew - 1, max_size=n_slew - 1)
        )
        load_steps = draw(
            st.lists(st.floats(0.001, 0.05), min_size=n_load - 1, max_size=n_load - 1)
        )
        slews = slew_start + np.concatenate([[0.0], np.cumsum(slew_steps)])
        loads = load_start + np.concatenate([[0.0], np.cumsum(load_steps)])
        values = np.array(
            draw(
                st.lists(
                    st.lists(st.floats(0.0, 1.0), min_size=n_load, max_size=n_load),
                    min_size=n_slew,
                    max_size=n_slew,
                )
            )
        )
        tables.append(Lut(slews, loads, values + 0.01))
    return tables


class TestBatchInterpolate:
    @given(
        tables=shaped_luts(),
        points=st.lists(POINTS, min_size=1, max_size=16),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_lookup_per_element(self, tables, points, data):
        """Gathered interpolation over mixed table ids equals the
        scalar reference query by query — bit-for-bit, clamping
        included."""
        batch = LutBatch(tables)
        table_ids = data.draw(
            st.lists(
                st.integers(0, len(tables) - 1),
                min_size=len(points),
                max_size=len(points),
            )
        )
        slews = np.array([p[0] for p in points])
        loads = np.array([p[1] for p in points])
        values = batch_interpolate(batch, np.array(table_ids), slews, loads)
        reference = np.array([
            bilinear_interpolate(tables[tid], slew, load)
            for tid, slew, load in zip(table_ids, slews, loads)
        ])
        assert np.array_equal(values, reference)

    @given(tables=shaped_luts())
    @settings(max_examples=60, deadline=None)
    def test_reproduces_every_tables_grid_points(self, tables):
        """On each table's own grid the gather returns the table values
        themselves, exactly."""
        batch = LutBatch(tables)
        for tid, lut in enumerate(tables):
            slews = np.repeat(lut.index_1, lut.index_2.size)
            loads = np.tile(lut.index_2, lut.index_1.size)
            values = batch_interpolate(
                batch, np.full(slews.size, tid), slews, loads
            )
            assert np.array_equal(values, lut.values.ravel())

    def test_len_and_validation(self):
        lut = Lut(np.array([0.01, 0.1]), np.array([0.001, 0.01]),
                  np.array([[1.0, 2.0], [3.0, 4.0]]))
        other = Lut(np.array([0.01, 0.1, 0.5]), np.array([0.001, 0.01]),
                    np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert len(LutBatch([lut, lut])) == 2
        with pytest.raises(LibertyError):
            LutBatch([])
        with pytest.raises(LibertyError):
            LutBatch([lut, other])


class TestScalarReference:
    @given(lut=luts(), points=st.lists(POINTS, min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_interpolate_many_scalar_equals_vectorized_lut(self, lut, points):
        """The scalar-kernel reference and the vectorized LUT helper
        are two routes to the same bits."""
        slews = np.array([p[0] for p in points])
        loads = np.array([p[1] for p in points])
        assert np.array_equal(
            interpolate_many_scalar(lut, slews, loads),
            bilinear_interpolate_many(lut, slews, loads),
        )

    @given(lut=luts())
    @settings(max_examples=40, deadline=None)
    def test_broadcasting_preserves_per_element_results(self, lut):
        """An outer-product (column, row) query equals its flattened
        element-by-element evaluation, for both kernels."""
        grid = interpolate_many_scalar(
            lut, lut.index_1[:, None], lut.index_2[None, :]
        )
        assert grid.shape == lut.values.shape
        assert np.array_equal(grid, lut.values)


def _library(groups):
    """One single-arc cell per table group: delay tables from the
    group's head, transition and sigma tables from its tail (a group
    of one table gets single-table kinds and no sigma)."""
    library = Library("batch")
    for index, tables in enumerate(groups):
        cell = Cell(f"C{index}")
        cell.add_pin(Pin("A", PinDirection.INPUT, capacitance=0.001))
        arc = TimingArc(
            "A",
            cell_rise=tables[0],
            cell_fall=tables[1] if len(tables) > 1 else None,
            rise_transition=tables[-1],
            fall_transition=tables[-2] if len(tables) > 2 else None,
            sigma_rise=tables[1] if len(tables) > 1 else None,
        )
        cell.add_pin(Pin("Z", PinDirection.OUTPUT, timing=[arc]))
        library.add_cell(cell)
    return library


class TestWorstValues:
    @given(
        groups=st.lists(shaped_luts(), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_vectorized_equals_scalar_per_query(self, groups, data):
        """Mixed arcs, kinds and table shapes in one call match the
        scalar kernel and the per-arc max over scalar lookups,
        bit-for-bit."""
        library = _library(groups)
        tables = LibraryTables(library)
        points = data.draw(st.lists(POINTS, min_size=1, max_size=12))
        picks = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(groups) - 1),
                    st.sampled_from(["delay", "transition"]),
                ),
                min_size=len(points),
                max_size=len(points),
            )
        )
        pairs = np.array([getattr(tables, kind)[row] for row, kind in picks])
        slews = np.array([p[0] for p in points])
        loads = np.array([p[1] for p in points])
        vectorized = worst_values(tables, pairs, slews, loads, kernel="vectorized")
        scalar = worst_values(tables, pairs, slews, loads, kernel="scalar")
        expected = []
        for (row, kind), slew, load in zip(picks, slews, loads):
            arc = library.cell(f"C{row}").pin("Z").arc_from("A")
            luts = arc.delay_tables() if kind == "delay" else arc.transition_tables()
            expected.append(
                max(bilinear_interpolate(lut, slew, load) for lut in luts)
            )
        assert np.array_equal(vectorized, scalar)
        assert np.array_equal(vectorized, np.array(expected))

    @given(groups=st.lists(shaped_luts(), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_rows_address_each_arcs_own_tables(self, groups):
        """Every kind's id pair names the arc's rise then fall table
        (a lone table twice); an absent kind is ``-1``."""
        library = _library(groups)
        tables = library_tables(library)
        assert library_tables(library) is tables
        for cell in library:
            for pin, arc in cell.arcs():
                row = tables.row(cell.name, pin.name, arc.related_pin)
                for kind, luts in (
                    ("delay", arc.delay_tables()),
                    ("transition", arc.transition_tables()),
                    ("sigma", arc.sigma_tables()),
                ):
                    first, second = getattr(tables, kind)[row]
                    if not luts:
                        assert first == second == -1
                        continue
                    assert tables.luts[first] is luts[0]
                    assert tables.luts[second] is luts[-1]

    def test_rejects_missing_tables_and_misalignment(self):
        lut = Lut(np.array([0.01, 0.1]), np.array([0.001, 0.01]),
                  np.array([[1.0, 2.0], [3.0, 4.0]]))
        tables = LibraryTables(_library([[lut]]))
        point = np.array([0.05])
        with pytest.raises(LibertyError, match="without tables"):
            worst_values(tables, tables.sigma[:1], point, point)
        with pytest.raises(LibertyError, match="must align"):
            worst_values(tables, tables.delay[:1], np.array([0.05, 0.06]), point)
        with pytest.raises(LibertyError, match="no arc"):
            tables.row("C0", "Z", "B")
