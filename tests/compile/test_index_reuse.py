"""Count gate: a write to one relation costs the ``[C,S]`` plan no
index rebuild on the relations it did not touch.

``[C0,S0]`` on ``tiled_university(2)`` is
``π_CS(π_HRS(R5) ⋈ (π_CHR(R1) ∪ π_CHR(R2 ⋈ R3))) ∪ π_CS(R4)``.  With
R2 and R3 empty, the inner union has one non-empty branch and hands it
on unchanged, ``base`` tag included, so the join probes R1's cached
``(H, R)`` index.  A write to R4 replaces only R4's relation object, so
re-running the plan must reuse every index it built on R1 and R5.
"""

import pytest

from repro.compile.program import UnionOp
from repro.core.engine import WeakInstanceEngine
from repro.workloads.scaling import tiled_university


def seeded_state(engine):
    """The ``read_hot`` shape at a smaller size: every R1 row has its R5
    partner, R4 shares R1's C values."""
    state = engine.empty_state()
    for n in range(48):
        state = state.insert(
            "T0R1", {"H0": f"h{n}", "R0": f"r{n}", "C0": f"c{n % 5}"}
        )
        state = state.insert(
            "T0R5", {"H0": f"h{n}", "S0": f"s{n % 7}", "R0": f"r{n}"}
        )
    for n in range(15):
        state = state.insert(
            "T0R4", {"C0": f"c{n % 5}", "S0": f"s{n}", "G0": "g"}
        )
    return state


@pytest.fixture
def union_outputs(monkeypatch):
    """Every UnionOp's output register, in run order."""
    outputs = []
    run = UnionOp.run

    def recording_run(self, regs, ctx):
        run(self, regs, ctx)
        outputs.append(regs[self.dst])

    monkeypatch.setattr(UnionOp, "run", recording_run)
    return outputs


def indexes_on(store, relation):
    """``positions → index`` of every index the store holds on
    ``relation``."""
    return {
        positions: entry[1]
        for (_, positions), entry in store._indexes.items()
        if entry[0] is relation
    }


def test_r4_write_rebuilds_no_index_on_r1_or_r5(union_outputs):
    engine = WeakInstanceEngine(tiled_university(2))
    store = engine.kernels.store
    target = ("C0", "S0")
    state = seeded_state(engine)
    expected = engine.evaluate(state, target)
    before = {
        name: indexes_on(store, state[name]) for name in ("T0R1", "T0R5")
    }
    # The join probed R1's (H, R) index through the union.
    assert before["T0R1"]

    written = state.insert("T0R4", {"C0": "c1", "S0": "s-new", "G0": "g"})
    assert written["T0R1"] is state["T0R1"]
    assert written["T0R5"] is state["T0R5"]
    union_outputs.clear()
    assert engine.evaluate(written, target) == expected | {("c1", "s-new")}

    for name in ("T0R1", "T0R5"):
        after = indexes_on(store, written[name])
        assert after.keys() == before[name].keys(), name
        for positions, index in after.items():
            assert index is before[name][positions], (name, positions)
    inner = next(output for output in union_outputs if output.base is not None)
    assert inner.base is written["T0R1"]
