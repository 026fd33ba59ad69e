"""Shared test configuration: hypothesis profiles, reusable strategies
and the interpreted query oracle.

The strategies here generate the structured inputs the property-based
tests need — attribute sets, fd sets, schemes of the constructive random
families, and consistent states — all deterministic under hypothesis's
own seeding.
"""

from __future__ import annotations

import functools
import os
import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.core.reducible import recognize_independence_reducible
from repro.fd.fd import FD
from repro.fd.fdset import FDSet
from repro.foundations.attrs import attrs
from repro.oracle import total_projection_reducible
from repro.state.consistency import chase_state
from repro.workloads.random_schemes import (
    random_berge_acyclic_scheme,
    random_independent_scheme,
    random_key_equivalent_scheme,
    random_reducible_scheme,
    random_scheme,
)
from repro.workloads.scaling import tiled_university

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Select with HYPOTHESIS_PROFILE=thorough for a deeper (slower) run.
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

ATTRS = "ABCDEF"


@st.composite
def attribute_sets(draw, alphabet: str = ATTRS, min_size: int = 1):
    """A non-empty frozenset of single-character attributes."""
    subset = draw(
        st.sets(st.sampled_from(list(alphabet)), min_size=min_size)
    )
    return frozenset(subset)


@st.composite
def fds(draw, alphabet: str = ATTRS):
    """A random functional dependency over the alphabet."""
    lhs = draw(attribute_sets(alphabet))
    rhs = draw(attribute_sets(alphabet))
    return FD(lhs, rhs)


@st.composite
def fd_sets(draw, alphabet: str = ATTRS, max_size: int = 6):
    """A random fd set over the alphabet."""
    members = draw(st.lists(fds(alphabet), max_size=max_size))
    return FDSet(members)


@st.composite
def seeded_rng(draw):
    """A reproducible random.Random derived from a hypothesis integer."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random.Random(seed)


@st.composite
def key_equivalent_schemes(draw):
    rng = draw(seeded_rng())
    n = draw(st.integers(min_value=2, max_value=5))
    return random_key_equivalent_scheme(rng, n_relations=n)


@st.composite
def independent_schemes(draw):
    rng = draw(seeded_rng())
    n = draw(st.integers(min_value=2, max_value=5))
    return random_independent_scheme(rng, n_relations=n)


@st.composite
def reducible_schemes(draw):
    rng = draw(seeded_rng())
    n_blocks = draw(st.integers(min_value=1, max_value=3))
    per_block = draw(st.integers(min_value=2, max_value=3))
    scheme, expected = random_reducible_scheme(
        rng, n_blocks=n_blocks, relations_per_block=per_block
    )
    return scheme, expected


@st.composite
def berge_acyclic_schemes(draw):
    rng = draw(seeded_rng())
    n = draw(st.integers(min_value=2, max_value=6))
    return random_berge_acyclic_scheme(rng, n_relations=n)


@st.composite
def arbitrary_schemes(draw):
    rng = draw(seeded_rng())
    n_rel = draw(st.integers(min_value=1, max_value=4))
    n_attr = draw(st.integers(min_value=2, max_value=6))
    return random_scheme(rng, n_attributes=n_attr, n_relations=n_rel)


@st.composite
def wide_random_schemes(draw):
    """``random_scheme`` with more members than ``arbitrary_schemes``,
    so rejected schemes carry violations between many pairs."""
    rng = draw(seeded_rng())
    n_rel = draw(st.integers(min_value=2, max_value=8))
    n_attr = draw(st.integers(min_value=3, max_value=9))
    return random_scheme(rng, n_attributes=n_attr, n_relations=n_rel)


#: A scheme from every generator in ``repro.workloads.random_schemes``,
#: plus the tiled university scheme.
every_generator = st.one_of(
    arbitrary_schemes(),
    wide_random_schemes(),
    key_equivalent_schemes(),
    independent_schemes(),
    reducible_schemes().map(lambda drawn: drawn[0]),
    berge_acyclic_schemes(),
    st.integers(min_value=1, max_value=4).map(tiled_university),
)


@pytest.fixture
def rng() -> random.Random:
    """A per-test deterministic RNG."""
    return random.Random(20260704)


@functools.lru_cache(maxsize=64)
def _recognition(scheme):
    return recognize_independence_reducible(scheme)


def query_oracle(state, target) -> set:
    """``[X]`` by the paper's interpreted routes — Theorem 4.1's block
    evaluation on a reducible scheme, the chase outside the class — the
    reference every engine, router and replica answer is checked
    against."""
    target = attrs(target)
    recognition = _recognition(state.scheme)
    if recognition.accepted:
        return total_projection_reducible(state, target, recognition)
    return chase_state(state).tableau.total_projection(target)
