"""Paths and connectivity in hypergraphs (paper, Section 2.4).

A path between two nodes is a sequence of edges, consecutive ones
intersecting, that is minimal under subsequence; for *connectivity*
purposes plain edge-intersection reachability is equivalent and is what
is implemented here.  A family of sets is connected when the hypergraph
it induces is connected.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.foundations.attrs import AttrsLike, attrs, union_all


def component_positions(edges: Iterable[AttrsLike]) -> list[list[int]]:
    """The positions of a family of sets grouped into
    intersection-connected components: components ordered by their
    first position, positions ascending within each.  Linear in the
    total size of the sets."""
    edge_sets = [attrs(edge) for edge in edges]
    parent = list(range(len(edge_sets)))

    def find(position: int) -> int:
        while parent[position] != position:
            parent[position] = parent[parent[position]]
            position = parent[position]
        return position

    holder: dict[str, int] = {}
    for position, edge in enumerate(edge_sets):
        for node in edge:
            parent[find(position)] = find(holder.setdefault(node, position))
    grouped: dict[int, list[int]] = {}
    for position in range(len(edge_sets)):
        grouped.setdefault(find(position), []).append(position)
    return list(grouped.values())


def connected_components(
    edges: Iterable[AttrsLike],
) -> list[list[frozenset[str]]]:
    """Partition a family of sets into intersection-connected components.

    Components are returned in a deterministic order; edges within a
    component keep their input order.
    """
    edge_sets = [attrs(edge) for edge in edges]
    return [
        [edge_sets[position] for position in positions]
        for positions in component_positions(edge_sets)
    ]


def is_connected_family(edges: Sequence[AttrsLike]) -> bool:
    """True iff the family of sets is connected (paper, Section 2.4).

    The empty family is vacuously disconnected; a singleton is connected.
    """
    materialized = [attrs(edge) for edge in edges]
    if not materialized:
        return False
    return len(connected_components(materialized)) == 1


def find_path(
    edges: Sequence[AttrsLike], source: str, target: str
) -> Optional[list[frozenset[str]]]:
    """A shortest edge-path from a node to a node, or None.

    Shortest paths satisfy the paper's minimal-subsequence condition
    automatically.
    """
    edge_sets = [attrs(edge) for edge in edges]
    starts = [i for i, edge in enumerate(edge_sets) if source in edge]
    frontier = list(starts)
    predecessor: dict[int, Optional[int]] = {i: None for i in starts}
    while frontier:
        current = frontier.pop(0)
        if target in edge_sets[current]:
            path = [current]
            while predecessor[path[-1]] is not None:
                path.append(predecessor[path[-1]])  # type: ignore[arg-type]
            return [edge_sets[i] for i in reversed(path)]
        for index, edge in enumerate(edge_sets):
            if index not in predecessor and edge & edge_sets[current]:
                predecessor[index] = current
                frontier.append(index)
    return None


def family_union(edges: Iterable[AttrsLike]) -> frozenset[str]:
    """Union of a family of sets."""
    return union_all(attrs(edge) for edge in edges)
