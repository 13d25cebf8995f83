"""Ablation: literal Algorithm 1 vs the batched summed-area search.

The paper ships the quadruple-loop pseudo-code; this bench shows the
batched search (one ``largest_rectangles`` call over a whole stack)
returns identical rectangles while scaling to larger LUT grids.
"""

import numpy as np
import pytest

from repro.core.rectangle import (
    largest_rectangle,
    largest_rectangle_paper,
    largest_rectangles,
)


def _matrices(size, count=24, seed=6):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        sigma = np.add.outer(rng.random(size).cumsum(), rng.random(size).cumsum())
        out.append(sigma <= rng.uniform(sigma.min(), sigma.max()))
    return out


@pytest.mark.parametrize("size", [7, 12])
def test_optimized_equals_literal(size):
    for matrix in _matrices(size):
        assert largest_rectangle(matrix) == largest_rectangle_paper(matrix)


def test_ablation_rectangle_optimized(benchmark):
    stack = np.stack(_matrices(12))

    results = benchmark(largest_rectangles, stack)
    assert (results >= 0).all()


def test_ablation_rectangle_literal_algorithm1(benchmark):
    matrices = _matrices(12)

    def run_all():
        return [largest_rectangle_paper(m) for m in matrices]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert all(r is not None for r in results)
