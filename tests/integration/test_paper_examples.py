"""Golden walk-throughs: every worked example of the paper, executed
end-to-end with the exact outcomes the paper states."""

import pytest

from repro.analysis.report import analyze_scheme
from repro.core.ctm import InsertMaintainer, is_ctm
from repro.core.key_equivalent import (
    is_key_equivalent,
    key_equivalent_representative_instance,
    total_projection_expression,
)
from repro.core.maintenance import algebraic_insert, ctm_insert
from repro.core.query import total_projection_plan
from repro.core.reducible import (
    key_equivalent_partition,
    recognize_independence_reducible,
)
from repro.core.split import is_split_free, split_keys
from repro.core.independence import is_independent
from repro.hypergraph.acyclicity import is_alpha_acyclic, is_gamma_acyclic
from repro.oracle import (
    ChaseRILookup,
    ExpressionRILookup,
    total_projection_reducible,
)
from repro.state.consistency import is_consistent, maintain_by_chase
from repro.state.database_state import DatabaseState, tuples_from_rows
from repro.workloads import paper


class TestExample1:
    """The university database: neither independent nor γ-acyclic, yet
    bounded and constant-time-maintainable."""

    def test_not_independent(self):
        assert not is_independent(paper.example1_university())

    def test_not_gamma_acyclic(self):
        edges = [m.attributes for m in paper.example1_university().relations]
        assert not is_gamma_acyclic(edges)

    def test_accepted_and_ctm(self):
        scheme = paper.example1_university()
        result = recognize_independence_reducible(scheme)
        assert result.accepted
        assert is_ctm(scheme, result)

    def test_intro_s_scheme_is_independent_with_same_fds(self):
        s = paper.intro_scheme_s()
        assert is_independent(s)
        assert s.fds.equivalent_to(paper.example1_university().fds)


class TestExample2:
    """{AB, BC, AC} with {A→C, B→C} is not algebraic-maintainable: the
    adversarial chain forces any refutation to read the whole state."""

    def test_rejected_by_recognition(self):
        assert not recognize_independence_reducible(
            paper.example2_not_algebraic()
        ).accepted

    def test_chain_construction(self):
        from repro.workloads.adversarial import (
            example2_chain_state,
            example2_killer_insert,
        )

        state = example2_chain_state(3)
        assert is_consistent(state)
        name, values = example2_killer_insert(3)
        assert not maintain_by_chase(state, name, values).consistent


class TestExample3:
    def test_key_equivalent_but_nothing_else(self):
        scheme = paper.example3_triangle()
        assert is_key_equivalent(scheme)
        assert not is_independent(scheme)
        edges = [m.attributes for m in scheme.relations]
        assert not is_gamma_acyclic(edges)
        assert not is_alpha_acyclic(edges)  # "not even α-acyclic"


class TestExample4:
    """[AE] = R3 ∪ π_AE(AB ⋈ AC ⋈ (BE ⋈ CE)) — a union of projections
    of extension joins."""

    def test_expression_contains_paper_branches(self):
        expression = str(
            total_projection_expression(paper.example4_split_scheme(), "AE")
        )
        assert "π_AE(R3)" in expression
        assert "π_AE(R1 ⋈ R2 ⋈ R4 ⋈ R5)" in expression


class TestExample5:
    """Key-equivalent but split: not ctm."""

    def test_key_equivalent_and_split(self):
        scheme = paper.example4_split_scheme()
        assert is_key_equivalent(scheme)
        assert split_keys(scheme) == [frozenset("BC")]
        assert not is_ctm(scheme)

    def test_state_and_insert(self):
        state = paper.example5_state()
        assert is_consistent(state)
        assert not maintain_by_chase(
            state, "R3", {"A": "a", "E": "e"}
        ).consistent


class TestExample6:
    """Algorithm 2's walk-through: keys A, B, E extend the inserted
    tuple to <a, b, c, d, e'>; the CD step empties the join."""

    def test_rejection(self):
        state = paper.example6_state()
        outcome = algebraic_insert(
            state,
            "R1",
            {"A": "a", "B": "b", "E": "e'"},
            lookup=ChaseRILookup(state),
        )
        assert not outcome.consistent
        assert not maintain_by_chase(
            state, "R1", {"A": "a", "B": "b", "E": "e'"}
        ).consistent

    def test_state_tableau_is_already_chased(self):
        """The paper notes no fd-rule applies to this state tableau."""
        from repro.state.consistency import chase_state

        assert chase_state(paper.example6_state()).steps == 0


class TestExample7:
    """Algorithm 2 via relational expressions: the total tuple for 'a'
    is <a, b, c, e1>, computed by σ_{A='a'}(R1 ⋈ R2 ⋈ (R4 ⋈ R5))."""

    def test_ri_tuple_for_a(self):
        state = paper.example5_state(chain_length=5)
        row = ExpressionRILookup(state).find(frozenset("A"), {"A": "a"})
        assert row == {"A": "a", "B": "b", "C": "c", "E": "e1"}

    def test_insert_rejected(self):
        state = paper.example5_state(chain_length=5)
        outcome = algebraic_insert(
            state,
            "R3",
            {"A": "a", "E": "e"},
            lookup=ExpressionRILookup(state),
        )
        assert not outcome.consistent


class TestExample8:
    def test_bc_split(self):
        scheme = paper.example8_split()
        assert not is_split_free(scheme)
        assert split_keys(scheme) == [frozenset("BC")]


class TestExample9:
    def test_single_attribute_keys_split_free(self):
        assert is_split_free(paper.example9_chain())


class TestExample10:
    """Algorithm 5's walk-through: inserting <a, c'> into s3 yields
    t'_1 = <a,b,c>, t'_2 = <c'>, and the join is empty — output no."""

    def test_walkthrough(self):
        state = paper.example10_state()
        outcome = ctm_insert(state, "S3", {"A": "a", "C": "c'"})
        assert not outcome.consistent
        # ... and the chase agrees the state is inconsistent.
        assert not maintain_by_chase(
            state, "S3", {"A": "a", "C": "c'"}
        ).consistent


class TestExample11:
    def test_partition_and_induced_scheme(self):
        result = recognize_independence_reducible(paper.example11_reducible())
        assert result.accepted
        blocks = sorted(
            tuple(sorted(m.name for m in block.relations))
            for block in result.partition
        )
        assert blocks == [("R1", "R2", "R3", "R4"), ("R5", "R6")]
        attrs = sorted("".join(sorted(m.attributes)) for m in result.induced)
        assert attrs == ["ABCD", "DEFG"]
        assert is_independent(result.induced)


class TestExample12:
    """The ACG-total projection walk-through."""

    def test_plan_is_the_paper_expression(self):
        plan = total_projection_plan(paper.example12_reducible(), "ACG")
        assert str(plan.expression) == (
            "π_ACG((π_ACD(R1 ⋈ R2 ⋈ R4) ∪ π_ACD(R3 ⋈ R4)) ⋈ π_DG(R6))"
        )

    def test_evaluation(self):
        state = paper.example12_state()
        assert total_projection_reducible(state, "ACG") == {("a", "c", "g")}


class TestExample13:
    def test_kep_partition(self):
        blocks = key_equivalent_partition(paper.example13_kep())
        assert sorted(
            tuple(sorted(m.name for m in block.relations))
            for block in blocks
        ) == [("R1", "R3", "R4"), ("R2", "R5", "R6", "R7"), ("R8",)]


class TestSummaryTable:
    """The classification matrix across all paper schemes, as implied by
    the paper's statements."""

    EXPECTED = {
        # label: (independent, key_equivalent, reducible, ctm-or-None)
        "example1": (False, False, True, True),
        "intro_s": (True, False, True, True),
        "example2": (False, False, False, None),
        "example3": (False, True, True, True),
        "example4": (False, True, True, False),
        "example6": (False, True, True, False),
        "example8": (False, True, True, False),
        "example9": (True, True, True, True),
        "example10": (False, True, True, True),
        "example11": (False, False, True, True),
        "example12": (False, False, True, True),
        "example13": (False, False, False, None),
    }

    @pytest.mark.parametrize("label", sorted(EXPECTED))
    def test_classification(self, label):
        report = analyze_scheme(paper.ALL_SCHEMES[label]())
        independent, key_equivalent, reducible, ctm = self.EXPECTED[label]
        assert report.independent == independent
        assert report.key_equivalent == key_equivalent
        assert report.independence_reducible == reducible
        assert report.ctm == ctm
        # Every paper scheme is BCNF with respect to its embedded keys.
        assert report.bcnf
