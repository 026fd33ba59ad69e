"""E12 — Theorem 5.5 + Algorithm 5: ctm maintenance.

Regenerates the headline performance shape: on split-free
independence-reducible schemes the probes per insert are independent of
the state size (flat series), while the full-chase baseline's work grows
linearly; wall-clock timings of both are measured for the same inserts.
The wall time of one validated insert is recorded next to its probe
count over a wider size sweep: the probes read key indexes the stored
relations carry from write to write, so no insert rebuilds one.
"""

import random
import statistics
import time

import pytest

from repro.core.ctm import InsertMaintainer
from repro.state.consistency import maintain_by_chase
from repro.workloads.paper import example1_university
from repro.workloads.states import dense_consistent_state, universe_tuple

SIZES = [32, 128, 512]
WALL_SIZES = [32, 128, 512, 2048]
WALL_SAMPLES = 51


def _insert_for(scheme, n):
    """A fresh entity's R4 tuple: not yet stored, consistent to add."""
    full = universe_tuple(scheme, n + 1)
    member = scheme["R4"]
    return member.name, {a: full[a] for a in member.attributes}


@pytest.mark.parametrize("n", SIZES)
def test_ctm_probes_flat(benchmark, record, n):
    scheme = example1_university()
    maintainer = InsertMaintainer(scheme)
    state = dense_consistent_state(scheme, n)
    name, values = _insert_for(scheme, n)

    outcome = benchmark(lambda: maintainer.insert(state, name, values))
    assert outcome.consistent
    record("E12", f"ctm probes at n={n}", outcome.tuples_examined)
    assert outcome.tuples_examined <= 8


@pytest.mark.parametrize("n", SIZES)
def test_chase_examines_everything(benchmark, record, n):
    scheme = example1_university()
    state = dense_consistent_state(scheme, n)
    name, values = _insert_for(scheme, n)

    outcome = benchmark(lambda: maintain_by_chase(state, name, values))
    assert outcome.consistent
    record("E12", f"chase tuples at n={n}", outcome.tuples_examined)
    assert outcome.tuples_examined == state.total_tuples() + 1


def test_probe_series_is_flat(benchmark, record):
    """The claim in one assertion: the probe count is the same across a
    16x state growth."""
    scheme = example1_university()
    maintainer = InsertMaintainer(scheme)

    def sweep():
        probes = []
        for n in SIZES:
            name, values = _insert_for(scheme, n)
            state = dense_consistent_state(scheme, n)
            probes.append(
                maintainer.insert(state, name, values).tuples_examined
            )
        return probes

    probes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record("E12", "probe series over sizes", dict(zip(SIZES, probes)))
    assert len(set(probes)) == 1


@pytest.mark.parametrize("n", WALL_SIZES)
def test_ctm_insert_wall_time(benchmark, record, n):
    """Median wall time of one fresh-entity insert beside its probe
    count.  The first insert on the state builds the probed indexes;
    every timed one reuses them, so what remains is the probes plus
    the copy of the written relation (and its carried indexes) that an
    immutable state pays per write."""
    scheme = example1_university()
    maintainer = InsertMaintainer(scheme)
    state = dense_consistent_state(scheme, n)
    name, values = _insert_for(scheme, n)
    maintainer.insert(state, name, values)

    def sample():
        seconds = []
        for _ in range(WALL_SAMPLES):
            started = time.perf_counter()
            outcome = maintainer.insert(state, name, values)
            seconds.append(time.perf_counter() - started)
        return outcome, statistics.median(seconds)

    outcome, median = benchmark.pedantic(sample, rounds=1, iterations=1)
    assert outcome.consistent and outcome.tuples_examined == 0
    record("E12", f"ctm insert wall ms at n={n}", round(median * 1e3, 4))
