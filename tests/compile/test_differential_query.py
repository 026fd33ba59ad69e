"""Differential testing: the engine's compiled kernel route must be
observationally identical to the paper's interpreted evaluation.

Every paper scheme and a band of seeded random schemes are queried
through the engine and through :func:`tests.conftest.query_oracle`
(``total_projection_reducible``, or the chase outside the class) over
empty, sparse and saturated states, across every relation scheme,
every single attribute, every attribute pair, the full universe, and a
target reaching outside the universe.  Most pairs have no covering
extension join (``SchemaError`` in the planner), so they pin the
engine's empty answer for uncoverable targets.  Any divergence is a
kernel bug: the interpreted route is the oracle.
"""

import random
from itertools import combinations

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.state.database_state import DatabaseState
from repro.workloads.paper import ALL_SCHEMES
from repro.workloads.random_schemes import (
    random_independent_scheme,
    random_key_equivalent_scheme,
    random_reducible_scheme,
)
from tests.conftest import query_oracle

SEEDS = [3, 11, 1988]

#: An attribute name no generated or paper scheme uses.
OUTSIDE = "Outside"


def saturated_state(scheme, depth: int = 3) -> DatabaseState:
    """Every relation filled with ``depth`` rows that agree on shared
    attributes (row ``i`` holds ``a.lower() + str(i)`` everywhere), so
    joins connect and the state is consistent by construction."""
    return DatabaseState(
        scheme,
        {
            member.name: [
                {a: f"{a.lower()}{i}" for a in member.attributes}
                for i in range(depth)
            ]
            for member in scheme.relations
        },
    )


def sparse_state(scheme, depth: int = 3) -> DatabaseState:
    """A deterministic subset of :func:`saturated_state`: some relations
    empty, others partially filled — exercising empty operands, partial
    joins and the union's short circuits."""
    relations = {}
    for position, member in enumerate(scheme.relations):
        if position % 3 == 2:
            continue  # left empty
        relations[member.name] = [
            {a: f"{a.lower()}{i}" for a in member.attributes}
            for i in range(depth)
            if (i + position) % 2 == 0
        ]
    return DatabaseState(scheme, relations)


def targets_for(scheme):
    universe = set()
    targets = []
    for member in scheme.relations:
        targets.append(frozenset(member.attributes))
        universe |= member.attributes
    targets.extend(frozenset({attribute}) for attribute in sorted(universe))
    targets.extend(
        frozenset(pair) for pair in combinations(sorted(universe), 2)
    )
    targets.append(frozenset(universe))
    # A target reaching outside the universe has no total tuples on
    # either route: the planner's and the chase's answer is ∅.
    assert OUTSIDE not in universe
    targets.append(frozenset({min(universe), OUTSIDE}))
    return targets


def assert_engines_agree(scheme):
    engine = WeakInstanceEngine(scheme)
    states = [
        DatabaseState(scheme),
        sparse_state(scheme),
        saturated_state(scheme),
    ]
    for state in states:
        for target in targets_for(scheme):
            assert engine.query(state, target) == query_oracle(
                state, target
            ), sorted(target)


@pytest.mark.parametrize("label", sorted(ALL_SCHEMES))
def test_paper_schemes_compiled_equals_interpreted(label):
    assert_engines_agree(ALL_SCHEMES[label]())


@pytest.mark.parametrize("seed", SEEDS)
def test_random_reducible_schemes(seed):
    scheme, _ = random_reducible_scheme(random.Random(seed))
    assert_engines_agree(scheme)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_key_equivalent_schemes(seed):
    rng = random.Random(seed)
    scheme = random_key_equivalent_scheme(
        rng, n_relations=5, composite_members=1
    )
    assert_engines_agree(scheme)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_independent_schemes(seed):
    assert_engines_agree(random_independent_scheme(random.Random(seed)))


def test_repeated_queries_hit_the_program_memo():
    scheme = ALL_SCHEMES["example4"]()
    engine = WeakInstanceEngine(scheme)
    state = saturated_state(scheme)
    first = engine.query(state, "AE")
    assert engine.query(state, "AE") == first
    assert engine.cache_info()["compiled"].size >= 1
