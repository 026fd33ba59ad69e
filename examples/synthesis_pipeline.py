"""From raw fds to a running database: the full pipeline.

1. 3NF-synthesize a cover-embedding scheme from a constraint set,
2. explain why each declared key holds (Armstrong derivations),
3. classify the result with the paper's machinery,
4. run updates and queries through the WeakInstanceEngine.

Run:  python examples/synthesis_pipeline.py
"""

from repro import (
    FDSet,
    WeakInstanceEngine,
    analyze_scheme,
    explain_key,
    synthesize_3nf,
)

# An order-management constraint set:
#   order -> customer, date        (O -> C, D)
#   order, product -> quantity     (OP -> Q)
#   customer -> region             (C -> R)
FDS = FDSet("O->C, O->D, OP->Q, C->R")


def main() -> None:
    print("constraints:", FDS)
    print()

    scheme = synthesize_3nf(FDS, name_prefix="T")
    print("synthesized 3NF scheme:")
    for member in scheme.relations:
        print("   ", member)
    print()

    print("why is O a key of its relation?")
    member = next(
        m for m in scheme.relations if frozenset("O") in m.keys
    )
    print(explain_key(member.attributes, "O", FDS).render())
    print()

    report = analyze_scheme(scheme)
    print(report.describe())
    print()

    def relation_keyed_by(key: str) -> str:
        return next(
            m.name for m in scheme.relations if frozenset(key) in m.keys
        )

    orders = relation_keyed_by("O")       # T(OCD)
    lines = relation_keyed_by("OP")       # T(OPQ)
    customers = relation_keyed_by("C")    # T(CR)

    engine = WeakInstanceEngine(scheme)
    state = engine.empty_state()
    batch = engine.batch(
        state,
        [
            ("insert", orders, {"O": "o1", "C": "acme", "D": "jan3"}),
            ("insert", lines, {"O": "o1", "P": "widget", "Q": "5"}),
            ("insert", customers, {"C": "acme", "R": "emea"}),
        ],
    )
    assert batch, "the batch should be consistent"
    state = batch.state
    print(f"loaded {state.total_tuples()} tuples")

    # The region of each order, via the weak-instance model — no stored
    # relation links O and R directly.
    print("explain [OR]:", engine.explain("OR"))
    print("[OR] =", sorted(engine.query(state, "OR")))

    # A violating insert: order o1 re-dated.
    outcome = engine.insert(
        state, orders, {"O": "o1", "C": "acme", "D": "feb9"}
    )
    print(
        "re-dating order o1:",
        "accepted" if outcome else "REJECTED (key O would be violated)",
    )


if __name__ == "__main__":
    main()
