"""Threshold extraction (paper Sec. VI.B) and clustering."""

import numpy as np
import pytest

from repro.core.clusters import (
    cell_strength,
    cluster_by_strength,
    cluster_individually,
    strength_key,
)
from repro.core.methods import TuningMethod
from repro.core.threshold import (
    equivalent_sigma_lut,
    extract_slope_threshold,
    slope_binary_lut,
)
from repro.core.tuner import LibraryTuner
from repro.errors import TuningError


class TestClustering:
    def test_strength_clusters_partition_library(self, statistical_library):
        clusters = cluster_by_strength(statistical_library)
        total = sum(len(cells) for cells in clusters.values())
        assert total == len(statistical_library)

    def test_strength_cluster_members_share_strength(self, statistical_library):
        clusters = cluster_by_strength(statistical_library)
        for key, cells in clusters.items():
            strengths = {cell_strength(c) for c in cells}
            assert len(strengths) == 1
            assert key == strength_key(strengths.pop())

    def test_strength_6_cluster_spans_families(self, statistical_library):
        clusters = cluster_by_strength(statistical_library)
        families = {c.name.split("_")[0] for c in clusters["strength_6"]}
        assert len(families) >= 4  # the Fig. 5 population

    def test_individual_clusters_are_singletons(self, statistical_library):
        clusters = cluster_individually(statistical_library)
        assert len(clusters) == len(statistical_library)
        assert all(len(cells) == 1 for cells in clusters.values())


class TestEquivalentLut:
    def test_is_entrywise_maximum(self, statistical_library):
        cells = [statistical_library.cell("INV_1"), statistical_library.cell("INV_8")]
        equivalent = equivalent_sigma_lut(cells)
        tables = [
            t.values
            for c in cells
            for _p, arc in c.arcs()
            for t in arc.sigma_tables()
        ]
        assert np.allclose(equivalent.values, np.stack(tables).max(axis=0))

    def test_dominated_by_weakest_cell(self, statistical_library):
        """INV_1 has the highest sigma, so it dominates the cluster max."""
        weak = equivalent_sigma_lut([statistical_library.cell("INV_1")])
        both = equivalent_sigma_lut(
            [statistical_library.cell("INV_1"), statistical_library.cell("INV_8")]
        )
        assert np.allclose(weak.values, both.values)

    def test_nominal_cells_rejected(self, nominal_library):
        with pytest.raises(TuningError):
            equivalent_sigma_lut([nominal_library.cell("INV_1")])


class TestSlopeThreshold:
    def test_loose_bounds_keep_whole_lut(self, statistical_library):
        cells = [statistical_library.cell("INV_1")]
        equivalent = equivalent_sigma_lut(cells)
        binary = slope_binary_lut(equivalent.values, load_bound=100.0, slew_bound=100.0)
        assert binary.all()
        threshold, rect = extract_slope_threshold(cells, 100.0, 100.0)
        assert threshold == pytest.approx(equivalent.values.max())
        assert rect.area == equivalent.values.size

    def test_tight_bounds_shrink_region(self, statistical_library):
        cells = [statistical_library.cell("INV_1")]
        loose, rect_loose = extract_slope_threshold(cells, 1.0, 0.06)
        tight, rect_tight = extract_slope_threshold(cells, 0.005, 0.005)
        assert tight <= loose
        assert rect_tight.area <= rect_loose.area

    def test_origin_always_flat(self, statistical_library):
        """Zero-filled first row/column guarantee a nonempty region."""
        cells = [statistical_library.cell("INV_1")]
        threshold, rect = extract_slope_threshold(cells, 1e-9, 1e-9)
        assert rect.area >= 1
        assert threshold > 0

    def test_threshold_read_at_far_corner(self, statistical_library):
        cells = [statistical_library.cell("INV_4")]
        equivalent = equivalent_sigma_lut(cells)
        threshold, rect = extract_slope_threshold(cells, 0.01, 0.06)
        row, col = rect.far_corner
        assert threshold == pytest.approx(equivalent.values[row, col])

    def test_invalid_bounds_rejected(self, statistical_library):
        cells = [statistical_library.cell("INV_1")]
        with pytest.raises(TuningError):
            extract_slope_threshold(cells, -1.0, 0.06)


class TestDispatch:
    """Threshold dispatch per method kind, through the tuner."""

    def test_sigma_ceiling_is_identity(self, statistical_library):
        tuner = LibraryTuner(statistical_library)
        assert tuner.tune("sigma_ceiling", 0.02).thresholds == {"global": 0.02}
        with pytest.raises(TuningError):
            tuner.tune("sigma_ceiling", 0.0)

    def test_dispatch_ceiling(self, statistical_library):
        threshold = LibraryTuner(statistical_library).tune(
            "sigma_ceiling", 0.02
        ).thresholds["global"]
        assert threshold == 0.02

    def test_dispatch_slope_kinds(self, statistical_library):
        tuner = LibraryTuner(statistical_library)
        for method in ("cell_load_slope", "cell_slew_slope"):
            threshold = tuner.tune(method, 0.01).thresholds["INV_1"]
            assert threshold > 0

    def test_cluster_thresholds_match_one_cluster_extraction(
        self, statistical_library
    ):
        """The batched extraction equals the one-cluster read, cluster
        by cluster, for per-cell and per-strength clustering."""
        tuner = LibraryTuner(statistical_library)
        for method, clusters in (
            ("cell_load_slope", cluster_individually(statistical_library)),
            ("cell_strength_slew_slope", cluster_by_strength(statistical_library)),
        ):
            result = tuner.tune(method, 0.03)
            bounds = result.method.bounds(0.03)
            for key, cells in clusters.items():
                alone, _rect = extract_slope_threshold(
                    cells, bounds["load_slope"], bounds["slew_slope"]
                )
                assert result.thresholds[key] == alone

    def test_unknown_kind_rejected(self, statistical_library):
        with pytest.raises(TuningError):
            LibraryTuner(statistical_library).tune(
                TuningMethod(name="nonsense", clustering="cell", kind="nonsense"), 1.0
            )
