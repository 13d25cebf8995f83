"""Library codec behaviour: keys, atomicity, corruption recovery.

A killed or interrupted run must never poison later runs: libraries are
written through the artifact store, atomically (temp file +
``os.replace``), and any entry that fails to read back intact is
treated as a miss and deleted.  Libraries are resolved the way the flow
resolves them — :meth:`~repro.flow.experiment.TuningFlow.library_stage`
through the artifact pipeline with the library codec.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization.characterize import (
    Characterizer,
    characterization_call_count,
    reset_characterization_call_count,
)
from repro.characterization.grids import GridConfig
from repro.flow.experiment import FlowConfig, TuningFlow
from repro.observe.catalog import STORE_ARTIFACT_EVENTS
from repro.parallel.artifacts import ARTIFACT_VERSION, ArtifactStore, fingerprint
from repro.parallel.cache import LibraryCache, characterization_key

from tests.parallel.test_equivalence import assert_libraries_bit_identical


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return LibraryCache(ArtifactStore())


@pytest.fixture()
def flow(cache):
    """A serial flow on the empty store: the resolver of its libraries."""
    return TuningFlow(FlowConfig(n_workers=1, backend="serial"))


@pytest.fixture()
def characterizer():
    return Characterizer()


def _entry(cache):
    files = sorted(cache.store.directory.glob("*.npz"))
    assert len(files) == 1
    return files[0]


class TestKeying:
    def test_key_is_stable(self, characterizer, small_specs):
        a = characterization_key(characterizer, small_specs[:3], 10, 0, False, "stat")
        b = characterization_key(characterizer, small_specs[:3], 10, 0, False, "stat")
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 11},
            {"seed": 1},
            {"include_global": True},
            {"kind": "samples"},
        ],
    )
    def test_key_changes_with_run_parameters(self, characterizer, small_specs, kwargs):
        base = {"n_samples": 10, "seed": 0, "include_global": False, "kind": "stat"}
        reference = characterization_key(characterizer, small_specs[:3], **base)
        changed = characterization_key(characterizer, small_specs[:3], **{**base, **kwargs})
        assert reference != changed

    def test_key_changes_with_grid_and_specs(self, characterizer, small_specs):
        other = Characterizer(grid=GridConfig(n_slew=5, n_load=5))
        assert characterization_key(
            characterizer, small_specs[:3], 10, 0, False, "stat"
        ) != characterization_key(other, small_specs[:3], 10, 0, False, "stat")
        assert characterization_key(
            characterizer, small_specs[:3], 10, 0, False, "stat"
        ) != characterization_key(characterizer, small_specs[:4], 10, 0, False, "stat")


class TestTablesLayout:
    """Each library stage is one ``(libraries, rows, n_slew, n_load)``
    ``tables`` array; anything else heals into one miss."""

    @pytest.mark.parametrize("include_power", [False, True])
    def test_every_lut_round_trips(self, cache, small_specs, include_power):
        characterizer = Characterizer(
            grid=GridConfig(n_slew=3, n_load=4), include_power=include_power
        )
        # a slice that ends in a two-output cell (the full adder)
        specs = small_specs[:3] + [
            next(spec for spec in small_specs if spec.family == "ADDF")
        ]
        statistical = characterizer.statistical_library(specs, n_samples=4, seed=2)
        samples = characterizer.sample_libraries(specs, n_samples=3, seed=2)
        for kind, libraries in (("stat", [statistical]), ("samples", samples)):
            key = characterization_key(characterizer, specs, 4, 2, False, kind)
            cache.save(kind, key, libraries, characterizer, specs)
            with np.load(_entry(cache), allow_pickle=False) as data:
                assert sorted(data.files) == ["__meta__", "tables"]
                rows = len(characterizer.table_slots(kind == "stat")) * sum(
                    len(spec.function.arcs()) for spec in specs
                )
                assert data["tables"].shape == (len(libraries), rows, 3, 4)
            loaded = cache.load(kind, key, characterizer, specs, len(libraries))
            assert [library.name for library in loaded] == [
                library.name for library in libraries
            ]
            for original, stored in zip(libraries, loaded):
                assert stored.is_statistical == original.is_statistical
                assert_libraries_bit_identical(original, stored)
            cache.store.clear()

    @pytest.mark.parametrize("layout", ["per-LUT", "wrong rows"])
    def test_other_layouts_heal_into_one_miss(self, cache, flow, small_specs, layout):
        """An entry of the per-LUT layout (one member per LUT, keyed
        ``cell\tpin\trelated\tslot``) or a ``tables`` array with the
        wrong row count loads as ``None``, counts once as ``healed``
        and is recharacterized, then hits."""
        specs = small_specs[:4]
        library = flow.library_stage("stat", specs, 6, 1)
        key = characterization_key(flow.characterizer, specs, 6, 1, False, "stat")
        if layout == "per-LUT":
            arrays = {
                "\t".join((cell.name, pin.name, arc.related_pin, slot)): table.values
                for cell in library
                for pin in cell.output_pins()
                for arc in pin.timing
                for slot in flow.characterizer.table_slots(statistical=True)
                for table in [getattr(arc, slot)]
            }
        else:
            with np.load(_entry(cache), allow_pickle=False) as data:
                arrays = {"tables": data["tables"][:, 1:]}
        cache.store.store("stat", key, arrays)

        healed = STORE_ARTIFACT_EVENTS.labels(event="healed").value
        assert cache.load_statistical(key, flow.characterizer, specs) is None
        assert STORE_ARTIFACT_EVENTS.labels(event="healed").value == healed + 1
        assert not list(cache.store.directory.glob("*.npz"))

        reset_characterization_call_count()
        assert_libraries_bit_identical(library, flow.library_stage("stat", specs, 6, 1))
        assert characterization_call_count() == len(specs)
        assert cache.load_statistical(key, flow.characterizer, specs) is not None
        assert STORE_ARTIFACT_EVENTS.labels(event="healed").value == healed + 1


class TestCorruptionRecovery:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
            lambda path: path.write_bytes(b"this is not a zip archive"),
            lambda path: path.write_bytes(b""),
        ],
        ids=["truncated", "garbage", "empty"],
    )
    def test_corrupted_entry_is_a_self_healing_miss(
        self, cache, flow, small_specs, corrupt
    ):
        """A damaged file must fall back to recomputation, produce the
        exact cold result, and leave a healthy entry behind."""
        specs = small_specs[:8]
        reference = flow.library_stage("stat", specs, 6, 1)
        corrupt(_entry(cache))

        reset_characterization_call_count()
        recovered = flow.library_stage("stat", specs, 6, 1)
        assert characterization_call_count() == len(specs)
        assert_libraries_bit_identical(reference, recovered)

        # the rewritten entry must serve hits again
        reset_characterization_call_count()
        warm = flow.library_stage("stat", specs, 6, 1)
        assert characterization_call_count() == 0
        assert_libraries_bit_identical(reference, warm)
        assert [r.status for r in flow.manifest.records if r.stage == "statlib"] == [
            "miss", "miss", "hit",
        ]

    def test_corrupted_samples_entry_recovers(self, cache, flow, small_specs):
        specs = small_specs[:4]
        reference = flow.sample_libraries(specs, 4, 6)
        _entry(cache).write_bytes(b"\x00" * 128)
        recovered = flow.sample_libraries(specs, 4, 6)
        for lib_a, lib_b in zip(reference, recovered):
            assert_libraries_bit_identical(lib_a, lib_b)

    def test_version_mismatch_is_a_miss(self, cache, flow, small_specs, monkeypatch):
        specs = small_specs[:4]
        flow.library_stage("stat", specs, 6, 1)
        monkeypatch.setattr(
            "repro.parallel.artifacts.ARTIFACT_VERSION", ARTIFACT_VERSION + 1
        )
        reset_characterization_call_count()
        flow.library_stage("stat", specs, 6, 1)
        assert characterization_call_count() == len(specs)

    def test_stray_temp_files_are_ignored_and_cleared(
        self, cache, flow, small_specs
    ):
        """A write killed between mkstemp and os.replace leaves a .tmp
        file; it must not count as an entry and clear() removes it.
        One stats() counts both codecs, one clear() removes both."""
        store = cache.store
        flow.library_stage("stat", small_specs[:4], 6, 1)
        store.store("tuning", fingerprint({"i": 1}), {"i": 1})
        stray = store.directory / "stat-deadbeef-12345.tmp"
        stray.write_bytes(b"partial write")
        stats = store.stats()
        assert stats.entries == 2
        assert stats.by_stage == {"stat": 1, "tuning": 1}
        removed = store.clear()
        assert removed == 2
        assert not stray.exists()
        assert store.stats().entries == 0


class TestMaintenance:
    def test_stats_on_missing_directory(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-created")
        stats = store.stats()
        assert stats.entries == 0
        assert stats.total_bytes == 0
        assert "0 artifacts" in stats.to_text()
        assert store.clear() == 0

    def test_clear_then_recompute(self, cache, flow, small_specs):
        specs = small_specs[:4]
        flow.library_stage("stat", specs, 6, 1)
        assert cache.store.clear() == 1
        reset_characterization_call_count()
        flow.library_stage("stat", specs, 6, 1)
        assert characterization_call_count() == len(specs)

    def test_atomic_write_replaces_existing_entry(self, cache, flow, small_specs):
        """Storing the same key twice keeps exactly one healthy file."""
        specs = small_specs[:4]
        library = flow.library_stage("stat", specs, 6, 1)
        key = characterization_key(flow.characterizer, specs, 6, 1, False, "stat")
        cache.save("stat", key, [library], flow.characterizer, specs)
        assert cache.store.stats().entries == 1
        loaded = cache.load_statistical(key, flow.characterizer, specs)
        assert loaded is not None
        assert_libraries_bit_identical(library, loaded)
        assert not list(cache.store.directory.glob("*.tmp"))


def test_default_directory_honors_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert ArtifactStore().directory == tmp_path / "elsewhere"
    assert LibraryCache().store.directory == tmp_path / "elsewhere"
