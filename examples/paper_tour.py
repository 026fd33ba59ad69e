"""A guided tour of the paper: every worked example, executed.

Walks Examples 1-13 in order, running each example's scheme through the
library and printing the outcome the paper states next to the outcome
computed here.

Run:  python examples/paper_tour.py
"""

from repro.analysis.report import analyze_scheme
from repro.core.key_equivalent import total_projection_expression
from repro.core.maintenance import algebraic_insert, ctm_insert
from repro.core.query import total_projection_plan
from repro.core.reducible import (
    key_equivalent_partition,
    recognize_independence_reducible,
)
from repro.core.split import find_split_witness
from repro.oracle import ChaseRILookup, ExpressionRILookup
from repro.workloads import paper
from repro.workloads.adversarial import (
    example2_chain_state,
    example2_killer_insert,
)
from repro.state.consistency import maintain_by_chase


def heading(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    heading("Example 1 — the university database")
    report = analyze_scheme(paper.example1_university())
    print("paper: neither independent nor γ-acyclic, yet bounded and ctm")
    print(
        f"here : independent={report.independent} "
        f"γ-acyclic={report.gamma_acyclic} "
        f"reducible={report.independence_reducible} ctm={report.ctm}"
    )

    heading("Example 2 — not algebraic-maintainable")
    state = example2_chain_state(4)
    name, values = example2_killer_insert(4)
    outcome = maintain_by_chase(state, name, values)
    print("paper: refuting the insert needs every tuple of the chain")
    print(
        f"here : insert rejected={not outcome.consistent} after examining "
        f"{outcome.tuples_examined} tuples (state holds "
        f"{state.total_tuples()})"
    )

    heading("Example 3 — key-equivalent triangle")
    report = analyze_scheme(paper.example3_triangle())
    print("paper: key-equivalent, not independent, not even α-acyclic")
    print(
        f"here : key-equivalent={report.key_equivalent} "
        f"independent={report.independent} α-acyclic={report.alpha_acyclic}"
    )

    heading("Example 4 — [AE] by a union of extension-join projections")
    expression = total_projection_expression(paper.example4_split_scheme(), "AE")
    print("paper: [AE] = R3 ∪ π_AE(AB ⋈ AC ⋈ (BE ⋈ CE))")
    print(f"here : [AE] = {expression}")

    heading("Example 5 — key-equivalent but not ctm (key BC is split)")
    witness = find_split_witness(paper.example4_split_scheme(), "BC")
    print("paper: the value e can only be found by scanning σ_B='b'(R4)")
    print(f"here : {witness}")

    heading("Example 6 — Algorithm 2 rejects <a, b, e'>")
    state = paper.example6_state()
    outcome = algebraic_insert(
        state,
        "R1",
        {"A": "a", "B": "b", "E": "e'"},
        lookup=ChaseRILookup(state),
    )
    print("paper: q = <a,b,c,d,e'> ⋈ <c,d,e> = ∅, output no")
    print(f"here : consistent={outcome.consistent}")

    heading("Example 7 — the total tuple for 'a' via expressions")
    state = paper.example5_state(chain_length=5)
    row = ExpressionRILookup(state).find(frozenset("A"), {"A": "a"})
    print("paper: σ_A='a'(R1 ⋈ R2 ⋈ (R4 ⋈ R5)) = <a, b, c, e1>")
    print(f"here : {tuple(row[a] for a in 'ABCE')}")

    heading("Example 8 — the key BC is split")
    report = analyze_scheme(paper.example8_split())
    print("paper: BC is split in R1+, R2+ or R5+")
    print(f"here : split keys = "
          f"{[ ''.join(sorted(k)) for k in report.split_keys ]}")

    heading("Example 9 — single-attribute-key chain is split-free")
    report = analyze_scheme(paper.example9_chain())
    print(f"here : split-free={not report.split_keys} ctm={report.ctm}")

    heading("Example 10 — Algorithm 5 rejects <a, c'>")
    outcome = ctm_insert(paper.example10_state(), "S3", {"A": "a", "C": "c'"})
    print("paper: {<a,c'>} ⋈ {<a,b,c>} ⋈ {<c'>} = ∅, output no")
    print(f"here : consistent={outcome.consistent}")

    heading("Examples 11/13 — partitions")
    result = recognize_independence_reducible(paper.example11_reducible())
    print("Example 11 paper: T = {{R1..R4}, {R5, R6}}, D = {ABCD, DEFG}")
    print("Example 11 here :")
    print(result.describe())
    print()
    blocks = key_equivalent_partition(paper.example13_kep())
    names = sorted(
        tuple(sorted(m.name for m in block.relations)) for block in blocks
    )
    print("Example 13 paper: {{R8}, {R1,R3,R4}, {R2,R5,R6,R7}}")
    print(f"Example 13 here : {names}")

    heading("Example 12 — the ACG-total projection plan")
    plan = total_projection_plan(paper.example12_reducible(), "ACG")
    print("paper: π_ACG((π_ACD(R1⋈R2⋈R4) ∪ π_ACD(R3⋈R4)) ⋈ π_DG(R6))")
    print(f"here : {plan.expression}")


if __name__ == "__main__":
    main()
