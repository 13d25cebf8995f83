"""Library codec behaviour: keys, atomicity, corruption recovery.

A killed or interrupted run must never poison later runs: libraries are
written through the artifact store, atomically (temp file +
``os.replace``), and any entry that fails to read back intact is
treated as a miss and deleted.
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
from repro.parallel.artifacts import ARTIFACT_VERSION, ArtifactStore, fingerprint
from repro.parallel.cache import LibraryCache, characterization_key

from tests.parallel.test_equivalence import assert_libraries_bit_identical


@pytest.fixture()
def cache(tmp_path):
    return LibraryCache(ArtifactStore(tmp_path / "cache"))


@pytest.fixture()
def characterizer(cache):
    return Characterizer(cache=cache)


def _entry(cache):
    files = sorted(cache.directory.glob("*.npz"))
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

    def test_key_changes_with_grid_and_specs(self, cache, characterizer, small_specs):
        other = Characterizer(grid=GridConfig(n_slew=5, n_load=5), cache=cache)
        assert characterization_key(
            characterizer, small_specs[:3], 10, 0, False, "stat"
        ) != characterization_key(other, small_specs[:3], 10, 0, False, "stat")
        assert characterization_key(
            characterizer, small_specs[:3], 10, 0, False, "stat"
        ) != characterization_key(characterizer, small_specs[:4], 10, 0, False, "stat")


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
        self, cache, characterizer, small_specs, corrupt
    ):
        """A damaged file must fall back to recomputation, produce the
        exact cold result, and leave a healthy entry behind."""
        specs = small_specs[:8]
        reference = characterizer.statistical_library(specs, n_samples=6, seed=1)
        corrupt(_entry(cache))

        reset_characterization_call_count()
        recovered = characterizer.statistical_library(specs, n_samples=6, seed=1)
        assert characterization_call_count() == len(specs)
        assert_libraries_bit_identical(reference, recovered)

        # the rewritten entry must serve hits again
        reset_characterization_call_count()
        warm = characterizer.statistical_library(specs, n_samples=6, seed=1)
        assert characterization_call_count() == 0
        assert_libraries_bit_identical(reference, warm)

    def test_corrupted_samples_entry_recovers(self, cache, characterizer, small_specs):
        specs = small_specs[:4]
        reference = characterizer.sample_libraries(specs, n_samples=4, seed=6)
        _entry(cache).write_bytes(b"\x00" * 128)
        recovered = characterizer.sample_libraries(specs, n_samples=4, seed=6)
        for lib_a, lib_b in zip(reference, recovered):
            assert_libraries_bit_identical(lib_a, lib_b)

    def test_version_mismatch_is_a_miss(
        self, cache, characterizer, small_specs, monkeypatch
    ):
        specs = small_specs[:4]
        characterizer.statistical_library(specs, n_samples=6, seed=1)
        monkeypatch.setattr(
            "repro.parallel.artifacts.ARTIFACT_VERSION", ARTIFACT_VERSION + 1
        )
        reset_characterization_call_count()
        characterizer.statistical_library(specs, n_samples=6, seed=1)
        assert characterization_call_count() == len(specs)

    def test_stray_temp_files_are_ignored_and_cleared(
        self, cache, characterizer, small_specs
    ):
        """A write killed between mkstemp and os.replace leaves a .tmp
        file; it must not count as an entry and clear() removes it.
        One stats() counts both codecs, one clear() removes both."""
        store = cache.store
        characterizer.statistical_library(small_specs[:4], n_samples=6, seed=1)
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

    def test_clear_then_recompute(self, cache, characterizer, small_specs):
        specs = small_specs[:4]
        characterizer.statistical_library(specs, n_samples=6, seed=1)
        assert cache.store.clear() == 1
        reset_characterization_call_count()
        characterizer.statistical_library(specs, n_samples=6, seed=1)
        assert characterization_call_count() == len(specs)

    def test_atomic_write_replaces_existing_entry(
        self, cache, characterizer, small_specs
    ):
        """Storing the same key twice keeps exactly one healthy file."""
        specs = small_specs[:4]
        library = characterizer.statistical_library(specs, n_samples=6, seed=1)
        cache.store_statistical(characterizer, specs, 6, 1, False, library)
        assert cache.store.stats().entries == 1
        loaded = cache.load_statistical(characterizer, specs, 6, 1, False)
        assert loaded is not None
        assert_libraries_bit_identical(library, loaded)
        assert not list(cache.directory.glob("*.tmp"))

    def test_use_cache_false_bypasses_cache(self, cache, characterizer, small_specs):
        specs = small_specs[:4]
        characterizer.statistical_library(specs, n_samples=6, seed=1, use_cache=False)
        assert cache.store.stats().entries == 0
        reference = characterizer.statistical_library(specs, n_samples=6, seed=1)
        bypass = characterizer.statistical_library(
            specs, n_samples=6, seed=1, use_cache=False
        )
        assert_libraries_bit_identical(reference, bypass)


def test_default_directory_honors_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert ArtifactStore().directory == tmp_path / "elsewhere"
    assert LibraryCache().store.directory == tmp_path / "elsewhere"
