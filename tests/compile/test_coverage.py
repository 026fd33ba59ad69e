"""Every plan and every RI selection the engine can ask for compiles.

The engine has no interpreted fallback: a predetermined plan or an
Algorithm-2 selection whose shape falls outside the kernel set raises
``CompileError`` in production.  This sweep compiles, for every paper
scheme and a band of seeded generated schemes, the plan of every
coverable target of up to two attributes and the ``σ_{K=?}`` programs
of every key of every partition block, so a new shape fails here
first.
"""

import random
from itertools import combinations

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import SchemaError
from repro.workloads.paper import ALL_SCHEMES
from repro.workloads.random_schemes import (
    random_independent_scheme,
    random_key_equivalent_scheme,
    random_reducible_scheme,
)

SEEDS = range(5)


def compile_everything(scheme) -> tuple[int, int]:
    """Compile every plan and RI selection the engine can request;
    returns how many plans and selection programs were compiled.  Any
    ``CompileError`` propagates."""
    engine = WeakInstanceEngine(scheme)
    if not engine.reducible:
        return 0, 0  # the chase route compiles nothing
    kernels = engine.kernels
    universe = sorted(scheme.universe)
    plans = 0
    for size in (1, 2):
        for target in combinations(universe, size):
            try:
                plan = engine.plan(target)
            except SchemaError:
                continue  # uncoverable: answered ∅ without a program
            kernels.expression_program(
                engine.partition.fingerprint, plan.expression
            )
            plans += 1
    selections = 0
    for block in engine.partition.blocks:
        fingerprint = kernels.scheme_fp(block)
        for key in block.all_keys():
            selections += len(
                kernels.selection_programs(fingerprint, block, key)
            )
    return plans, selections


@pytest.mark.parametrize("label", sorted(ALL_SCHEMES))
def test_paper_schemes_compile(label):
    scheme = ALL_SCHEMES[label]()
    plans, selections = compile_everything(scheme)
    if WeakInstanceEngine(scheme).reducible:
        assert plans > 0 and selections > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_random_reducible_schemes_compile(seed):
    scheme, _ = random_reducible_scheme(random.Random(seed))
    assert all(compile_everything(scheme))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_key_equivalent_schemes_compile(seed):
    scheme = random_key_equivalent_scheme(random.Random(seed))
    assert all(compile_everything(scheme))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_independent_schemes_compile(seed):
    scheme = random_independent_scheme(random.Random(seed))
    assert all(compile_everything(scheme))
