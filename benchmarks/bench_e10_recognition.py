"""E10 — Algorithm 6 + Corollary 5.4: polynomial recognition.

Regenerates: recognition accepts exactly the definitional class (checked
against brute-force partition search on small fuzzed schemes) and scales
polynomially on growing scheme families, in contrast with the
Bell-number brute force.
"""

import random

import pytest

from repro.core.reducible import (
    is_independence_reducible,
    recognize_independence_reducible,
)
from repro.oracle import find_reducible_partition_bruteforce
from repro.workloads.random_schemes import (
    random_reducible_scheme,
    random_scheme,
)

BLOCK_COUNTS = [2, 4, 8]


def test_exactness_against_bruteforce(benchmark, record):
    rng = random.Random(1988)
    trials = 30
    schemes = [
        random_scheme(rng, n_attributes=5, n_relations=rng.randint(2, 4))
        for _ in range(trials)
    ]

    def sweep():
        return sum(
            is_independence_reducible(scheme)
            == (find_reducible_partition_bruteforce(scheme) is not None)
            for scheme in schemes
        )

    agreements = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record("E10", "Algorithm 6 vs brute force", f"{agreements}/{trials}")
    assert agreements == trials


@pytest.mark.parametrize("n_blocks", BLOCK_COUNTS)
def test_recognition_latency(benchmark, record, n_blocks):
    rng = random.Random(n_blocks)
    scheme, _ = random_reducible_scheme(
        rng, n_blocks=n_blocks, relations_per_block=3
    )
    result = benchmark(lambda: recognize_independence_reducible(scheme))
    assert result.accepted
    record(
        "E10",
        f"relations recognized at {n_blocks} blocks",
        len(scheme.relations),
    )


@pytest.mark.parametrize("n_relations", [4, 6])
def test_bruteforce_latency(benchmark, n_relations):
    rng = random.Random(n_relations)
    scheme, _ = random_reducible_scheme(
        rng, n_blocks=2, relations_per_block=n_relations // 2
    )
    benchmark(lambda: find_reducible_partition_bruteforce(scheme))


@pytest.mark.parametrize("tiles", [1, 2, 4, 16, 64])
def test_recognition_latency_tiled_university(benchmark, record, tiles):
    """Deterministic scaling: each tile adds 5 relations / 3 blocks of
    the Example 1 shape; recognition must stay polynomial and keep
    accepting."""
    from repro.workloads.scaling import tiled_university

    scheme = tiled_university(tiles)
    result = benchmark(lambda: recognize_independence_reducible(scheme))
    assert result.accepted
    assert len(result.partition) == 3 * tiles
    record(
        "E10",
        f"tiled university tiles={tiles}",
        f"{len(scheme.relations)} relations, {3 * tiles} blocks",
    )
