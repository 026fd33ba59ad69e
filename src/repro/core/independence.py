"""Independent database schemes (paper, Section 2.7).

``R`` is *independent* with respect to ``F`` when local satisfaction
implies global consistency: ``LSAT(R, F) = WSAT(R, F)``.  Under the
paper's standing assumption — a cover of ``F`` embedded as key
dependencies — independence is characterized by Sagiv's *uniqueness
condition*: for all ``Ri ≠ Rj``, the closure of ``Ri`` under ``F − Fj``
contains no key dependency embedded in ``Rj``.

The characterization is the production test; an exhaustive small-state
falsifier is provided for cross-validation in the test suite, and the
per-pair definition it prunes is
:func:`repro.oracle.uniqueness_violations_naive`.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from repro.fd.fdset import FDSet
from repro.foundations.attrs import fmt_attrs
from repro.schema.database_scheme import DatabaseScheme
from repro.schema.relation_scheme import RelationScheme
from repro.state.consistency import is_consistent, is_locally_consistent
from repro.state.database_state import DatabaseState


def uniqueness_violations(
    scheme: DatabaseScheme,
) -> list[tuple[str, str, frozenset[str], str]]:
    """All violations of the uniqueness condition.

    Each violation is ``(Ri, Rj, K, A)``: the closure of ``Ri`` under
    ``F − Fj`` contains the key dependency ``K → A`` embedded in ``Rj``
    (``K`` a declared key of ``Rj``, ``A ∈ Rj − K``), listed in member,
    key and attribute order.

    Closure is monotone in the fd set, so the closure of ``Ri`` under
    ``F − Fj`` lies inside its closure under ``F``.  A pair whose ``Rj``
    has no declared key inside ``Ri⁺`` (under ``F``) cannot violate the
    condition and is skipped; ``F − Fj`` is built once per ``Rj``, and
    only for ``Rj`` that some surviving pair needs.
    """
    full_closures = [
        scheme.fds.closure(member.attributes) for member in scheme.relations
    ]
    excluding: dict[str, FDSet] = {}
    violations: list[tuple[str, str, frozenset[str], str]] = []
    for left, reach in zip(scheme.relations, full_closures):
        for right in scheme.relations:
            if left.name == right.name:
                continue
            if not any(key <= reach for key in right.keys):
                continue
            if right.name not in excluding:
                excluding[right.name] = scheme.fds_excluding(right)
            closure = excluding[right.name].closure(left.attributes)
            for key in right.keys:
                if not key <= closure:
                    continue
                for attribute in sorted(right.attributes - key):
                    if attribute in closure:
                        violations.append(
                            (left.name, right.name, key, attribute)
                        )
    return violations


def satisfies_uniqueness_condition(scheme: DatabaseScheme) -> bool:
    """Sagiv's uniqueness condition (paper, Section 2.7)."""
    return not uniqueness_violations(scheme)


def is_independent(scheme: DatabaseScheme) -> bool:
    """Independence test for cover-embedding schemes with embedded key
    dependencies — the uniqueness condition."""
    return satisfies_uniqueness_condition(scheme)


def find_independence_counterexample(
    scheme: DatabaseScheme,
    domain_size: int = 2,
    max_tuples_per_relation: int = 2,
) -> Optional[DatabaseState]:
    """Search tiny states for a member of ``LSAT − WSAT`` — a locally
    consistent but globally inconsistent state.

    Exhaustive over bounded states; exponential and meant only for
    cross-validating the uniqueness condition on small schemes in tests.
    Returns a counterexample state or None.
    """
    domains = {
        attribute: [f"{attribute.lower()}{i}" for i in range(domain_size)]
        for attribute in sorted(scheme.universe)
    }

    def candidate_tuples(member: RelationScheme) -> list[dict[str, str]]:
        ordered = sorted(member.attributes)
        return [
            dict(zip(ordered, combo))
            for combo in product(*(domains[a] for a in ordered))
        ]

    def candidate_relations(member: RelationScheme) -> list[list[dict[str, str]]]:
        tuples = candidate_tuples(member)
        options: list[list[dict[str, str]]] = [[]]
        # Singletons and unordered pairs, capped.
        for i, first in enumerate(tuples):
            options.append([first])
            if max_tuples_per_relation >= 2:
                for second in tuples[i + 1 :]:
                    options.append([first, second])
        return options

    members = list(scheme.relations)
    per_member = [candidate_relations(member) for member in members]
    for assignment in product(*per_member):
        state = DatabaseState(
            scheme,
            {
                member.name: choice
                for member, choice in zip(members, assignment)
            },
        )
        if state.is_empty():
            continue
        if is_locally_consistent(state) and not is_consistent(state):
            return state
    return None


def describe_violations(scheme: DatabaseScheme) -> list[str]:
    """Human-readable uniqueness-condition violations."""
    return [
        f"({left})+ under F−F_{right} embeds the key dependency "
        f"{fmt_attrs(key)}→{attribute} of {right}"
        for left, right, key, attribute in uniqueness_violations(scheme)
    ]
