"""Scheme partitioning for block-local evaluation.

An accepted recognition (Algorithm 6) certifies more than membership:
the uniqueness condition forces every key of a block to stay outside the
attribute closure of every other block, so no fd-rule can fire across
blocks and the chase of a state decomposes exactly into the chases of
its block substates.  The partition is therefore a *parallelization
certificate* — updates and total projections route to one block each,
and distinct blocks share nothing.

:func:`partition_scheme` computes the decomposition once per scheme and
memoizes it by :func:`scheme_fingerprint`, so every engine, maintainer
and server bound to (a copy of) the same scheme shares one recognition
run and one routing table.
"""

from __future__ import annotations

import hashlib
import json
from typing import Hashable, Mapping, Optional, Sequence, Tuple

from repro.core.reducible import (
    RecognitionResult,
    recognize_independence_reducible,
)
from repro.core.split import is_split_free
from repro.foundations.cache import MISSING, LRUCache
from repro.foundations.errors import StateError
from repro.io import scheme_to_dict
from repro.schema.database_scheme import DatabaseScheme
from repro.state.database_state import DatabaseState

#: One batch operation routed to a block:
#: ``(global index, "insert" | "delete", relation name, tuple)``.
RoutedUpdate = Tuple[int, str, str, Mapping[str, Hashable]]


def scheme_fingerprint(scheme: DatabaseScheme) -> str:
    """A stable content hash of a scheme.

    Canonical JSON (sorted keys, sorted attribute lists — see
    :func:`repro.io.scheme_to_dict`) hashed with SHA-256, so two equal
    schemes fingerprint identically across processes and sessions.  Used
    to key the partition cache and to tag benchmark records."""
    payload = json.dumps(
        scheme_to_dict(scheme), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SchemePartition:
    """The independence decomposition of one scheme, with routing.

    ``blocks`` are the key-equivalent partition blocks (sub-schemes);
    ``block_ctm[i]`` says whether block ``i`` is split-free (Algorithm 5
    applies); ``parallelizable`` is true when the scheme was accepted
    and has at least two blocks, i.e. when block-local work is provably
    independent.
    """

    def __init__(self, scheme: DatabaseScheme) -> None:
        self.scheme = scheme
        self.fingerprint = scheme_fingerprint(scheme)
        self.recognition: RecognitionResult = (
            recognize_independence_reducible(scheme)
        )
        self.blocks: tuple[DatabaseScheme, ...] = self.recognition.partition
        self.block_names: tuple[tuple[str, ...], ...] = tuple(
            tuple(member.name for member in block.relations)
            for block in self.blocks
        )
        self.block_ctm: tuple[bool, ...] = tuple(
            is_split_free(block) for block in self.blocks
        )
        self._block_index: dict[str, int] = {}
        for index, names in enumerate(self.block_names):
            for name in names:
                self._block_index[name] = index

    @property
    def accepted(self) -> bool:
        return self.recognition.accepted

    @property
    def parallelizable(self) -> bool:
        """Block-local evaluation is sound and there is more than one
        block to spread work over."""
        return self.recognition.accepted and len(self.blocks) > 1

    def block_index_of(self, relation_name: str) -> int:
        """The index of the block containing the named relation."""
        try:
            return self._block_index[relation_name]
        except KeyError:
            raise StateError(f"no relation named {relation_name!r}") from None

    def substate(self, state: DatabaseState, block_index: int) -> DatabaseState:
        """The state restricted to one block's relations.

        Relation objects are reused as-is (states are immutable), so
        extraction is one small dict build, not a re-normalization of
        every stored tuple."""
        names = self.block_names[block_index]
        return DatabaseState(
            self.blocks[block_index], {name: state[name] for name in names}
        )

    def route_updates(
        self, operations: Sequence[RoutedUpdate]
    ) -> Optional[dict[int, list[RoutedUpdate]]]:
        """Group operations (each carrying its global batch index) by
        target block, preserving their order.

        Returns ``None`` when the batch cannot be routed — an unknown
        operation or relation — so callers fall back to the serial path
        and surface the error with its original semantics (an unknown
        op after a rejected insert must still report the rejection)."""
        grouped: dict[int, list[RoutedUpdate]] = {}
        for routed in operations:
            if routed[1] not in ("insert", "delete"):
                return None
            block = self._block_index.get(routed[2])
            if block is None:
                return None
            grouped.setdefault(block, []).append(routed)
        return grouped


#: Partitions are pure functions of scheme content; a handful of schemes
#: is plenty for any one process.
_PARTITIONS: LRUCache = LRUCache(64)


def partition_scheme(scheme: DatabaseScheme) -> SchemePartition:
    """The memoized :class:`SchemePartition` for a scheme.

    Keyed by content fingerprint, so equal schemes (even distinct
    objects, e.g. one per server restart) share one recognition run."""
    fingerprint = scheme_fingerprint(scheme)
    cached = _PARTITIONS.get(fingerprint, MISSING)
    if cached is MISSING:
        cached = SchemePartition(scheme)
        _PARTITIONS.put(fingerprint, cached)
    return cached
