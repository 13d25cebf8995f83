"""The pluggable execution backends: registry, chunking, dispatch.

Three contracts under test: the chunking helper's partition properties
(hypothesis), the backend registry's validation and single-worker
serial fallback, and the headline determinism guarantee — serial
and process backends produce bit-identical libraries.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization.characterize import Characterizer
from repro.errors import ConfigError, ParallelError
from repro.observe import Tracer, get_metrics, set_tracer
from repro.parallel.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    chunk_indices,
    resolve_backend,
    validate_backend,
)
from repro.parallel.executor import characterize_statistical_cells
from tests.parallel.test_equivalence import assert_libraries_bit_identical


def _echo(index, payload, trace=None):
    """Module-level worker (PROC002): picklable by qualified name."""
    return (index, payload)


def _die(index, trace=None):
    """Module-level worker that kills its own process."""
    os._exit(1)


class TestChunkIndices:
    @given(
        n_items=st.integers(min_value=0, max_value=500),
        n_chunks=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_properties(self, n_items, n_chunks):
        """Chunks cover every item exactly once, contiguously, in
        order, balanced to within one element."""
        chunks = chunk_indices(n_items, n_chunks)
        flattened = [index for chunk in chunks for index in chunk]
        assert flattened == list(range(n_items))
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert len(chunks) <= max(1, min(n_chunks, n_items))
        for previous, current in zip(chunks, chunks[1:]):
            assert current.start == previous.stop

    def test_zero_items_is_one_empty_chunk(self):
        assert chunk_indices(0, 4) == [range(0, 0)]

    def test_more_chunks_than_items_degrades(self):
        assert chunk_indices(3, 10) == [range(0, 1), range(1, 2), range(2, 3)]


class TestRegistry:
    def test_names_and_default(self):
        assert BACKEND_NAMES == ("serial", "process")
        assert DEFAULT_BACKEND in BACKEND_NAMES

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_validate_accepts_known(self, name):
        assert validate_backend(name) == name

    def test_validate_rejects_typo(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            validate_backend("proces")

    def test_resolve_default_is_serial_at_one_worker(self):
        """Satellite fix: n_workers=1 must never spawn a process pool."""
        assert isinstance(resolve_backend(None, 1), SerialBackend)
        assert isinstance(resolve_backend("process", 1), SerialBackend)

    def test_resolve_process_at_many_workers(self):
        backend = resolve_backend("process", 4)
        assert isinstance(backend, ProcessBackend)
        assert backend.n_workers == 4

    def test_queue_is_not_a_backend(self, monkeypatch):
        from repro.flow.experiment import FlowConfig

        with pytest.raises(ConfigError, match="use one of serial, process"):
            resolve_backend("queue", 2)
        monkeypatch.setenv("REPRO_BACKEND", "queue")
        with pytest.raises(ConfigError, match="use one of serial, process"):
            FlowConfig.from_env()

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend, 8) is backend

    def test_capability_flags(self):
        assert SerialBackend.in_process
        assert not ProcessBackend.in_process

    def test_characterizer_validates_backend_eagerly(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            Characterizer(backend="quue")

    def test_repro_backend_env_selects(self, monkeypatch):
        from repro.flow.experiment import FlowConfig

        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert FlowConfig.from_env().backend == "process"

    def test_repro_backend_env_typo_fails_loudly(self, monkeypatch):
        from repro.flow.experiment import FlowConfig

        monkeypatch.setenv("REPRO_BACKEND", "pool")
        with pytest.raises(ConfigError, match="unknown backend"):
            FlowConfig.from_env()


class TestMapTasks:
    @pytest.mark.parametrize(
        "backend",
        [SerialBackend(), ProcessBackend(3)],
        ids=["serial", "process"],
    )
    def test_results_in_task_order(self, backend):
        tasks = [(index, f"payload-{index}") for index in range(7)]
        assert backend.map_tasks(_echo, tasks) == [
            (index, f"payload-{index}") for index in range(7)
        ]

    @pytest.mark.parametrize(
        "backend",
        [SerialBackend(), ProcessBackend(2)],
        ids=["serial", "process"],
    )
    def test_empty_task_list(self, backend):
        assert backend.map_tasks(_echo, []) == []

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ExecutorBackend().map_tasks(_echo, [(0, "a")])

    def test_killed_worker_is_a_repro_error(self):
        """A worker process that dies outright surfaces as one
        ``repro.errors`` error naming the backend, not a raw
        ``BrokenProcessPool``."""
        with pytest.raises(ParallelError, match="process backend"):
            ProcessBackend(2).map_tasks(_die, [(0,), (1,)])


class TestSerialFallbackSkipsPoolSpawn:
    def test_single_worker_characterization_spawns_no_pool(
        self, characterizer, small_specs, monkeypatch
    ):
        """The satellite regression: with the worker count resolved to
        1, the characterization drivers must not construct a process
        pool at all — not merely use it lightly."""
        import repro.parallel.backends as backends

        def _forbidden(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor constructed")

        monkeypatch.setattr(backends, "ProcessPoolExecutor", _forbidden)
        library = characterizer.statistical_library(
            small_specs[:6], n_samples=4, seed=1, n_workers=1
        )
        assert library.is_statistical


class TestWorkerCounts:
    def test_process_worker_counts_reach_the_parent(
        self, characterizer, small_specs
    ):
        """Outside ``serve`` too: cells characterized in process
        workers show in the parent's registry and in its trace
        counters, exactly once each."""
        specs = small_specs[:6]

        def cells_total():
            return (
                get_metrics().snapshot().value("repro_characterize_cells_total")
                or 0.0
            )

        before = cells_total()
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            cells = characterize_statistical_cells(
                characterizer, specs, n_samples=4, seed=1,
                global_draws=None, n_workers=2, backend="process",
            )
        finally:
            set_tracer(previous)
        assert len(cells) == len(specs)
        assert tracer.counters()["characterize.cells"] == len(specs)
        assert cells_total() - before == len(specs)


class TestBackendEquivalence:
    """serial vs process: bit-identical libraries."""

    def test_statistical_library_identical_across_backends(
        self, small_specs
    ):
        specs = small_specs[:12]
        serial = Characterizer(backend="serial").statistical_library(
            specs, n_samples=6, seed=5, n_workers=2
        )
        other = Characterizer(backend="process").statistical_library(
            specs, n_samples=6, seed=5, n_workers=2
        )
        assert_libraries_bit_identical(serial, other)

    def test_sample_libraries_identical_across_backends(self, small_specs):
        specs = small_specs[:6]
        serial = Characterizer(backend="serial").sample_libraries(
            specs, n_samples=4, seed=9, include_global=True, n_workers=2
        )
        other = Characterizer(backend="process").sample_libraries(
            specs, n_samples=4, seed=9, include_global=True, n_workers=2
        )
        assert len(serial) == len(other)
        for library_a, library_b in zip(serial, other):
            assert library_a.name == library_b.name
            assert_libraries_bit_identical(library_a, library_b)

    def test_worker_count_invariance_on_process(self, small_specs):
        specs = small_specs[:8]
        one = Characterizer(backend="process").statistical_library(
            specs, n_samples=5, seed=3, n_workers=1
        )
        three = Characterizer(backend="process").statistical_library(
            specs, n_samples=5, seed=3, n_workers=3
        )
        assert_libraries_bit_identical(one, three)


class TestFingerprintInvariance:
    """The backend choice must never enter fingerprints or cache keys;
    the design family always does."""

    def test_characterization_key_ignores_backend(self, small_specs):
        from repro.parallel.cache import characterization_key

        keys = {
            characterization_key(
                Characterizer(backend=name),
                small_specs[:4],
                n_samples=4,
                seed=0,
                include_global=False,
                kind="stat",
            )
            for name in BACKEND_NAMES
        }
        assert len(keys) == 1

    def test_flow_keys_ignore_backend_and_workers(self):
        from dataclasses import replace

        from repro.flow.experiment import FlowConfig, TuningFlow

        base = FlowConfig.tiny()
        flows = [
            TuningFlow(replace(base, backend=name, n_workers=workers))
            for name, workers in (("serial", 1), ("process", 4))
        ]
        assert len({flow.statlib_key for flow in flows}) == 1
        assert len({flow.design_key for flow in flows}) == 1

    def test_design_family_always_fingerprints(self):
        from dataclasses import asdict

        from repro.flow.experiment import FlowConfig, TuningFlow
        from repro.netlist.generators.family import design_family, design_spec
        from repro.parallel.artifacts import stage_fingerprint

        base = FlowConfig.tiny().design
        keys = {
            name: stage_fingerprint(
                "design", params=asdict(design_spec(name).params(base))
            )
            for name in design_family()
        }
        assert len(set(keys.values())) == len(keys)
        assert keys["microcontroller"] == TuningFlow(FlowConfig.tiny()).design_key
