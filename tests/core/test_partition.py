"""Tests for the scheme partitioner: fingerprinting, the memoized
decomposition, update routing and substate extraction."""

import random

import pytest

from repro.core.partition import (
    SchemePartition,
    partition_scheme,
    scheme_fingerprint,
)
from repro.foundations.errors import StateError
from repro.io import scheme_from_dict, scheme_to_dict
from repro.state.database_state import DatabaseState
from repro.workloads.paper import example1_university, example2_not_algebraic
from repro.workloads.scaling import tiled_university
from repro.workloads.states import random_consistent_state


class TestFingerprint:
    def test_equal_schemes_fingerprint_identically(self):
        """A round-trip through dicts yields a distinct object with the
        same content — the fingerprint must not see the difference."""
        scheme = example1_university()
        clone = scheme_from_dict(scheme_to_dict(scheme))
        assert clone is not scheme
        assert scheme_fingerprint(clone) == scheme_fingerprint(scheme)

    def test_different_schemes_fingerprint_differently(self):
        assert scheme_fingerprint(example1_university()) != scheme_fingerprint(
            example2_not_algebraic()
        )
        assert scheme_fingerprint(tiled_university(2)) != scheme_fingerprint(
            tiled_university(3)
        )

    def test_fingerprint_is_stable_across_calls(self):
        scheme = tiled_university(2)
        assert scheme_fingerprint(scheme) == scheme_fingerprint(scheme)


class TestPartitionCache:
    def test_equal_schemes_share_one_partition(self):
        """Two engines bound to copies of the same scheme must share
        recognition work: the cache is keyed by content, not identity."""
        scheme = example1_university()
        clone = scheme_from_dict(scheme_to_dict(scheme))
        assert partition_scheme(scheme) is partition_scheme(clone)

    def test_partition_carries_the_recognition(self):
        partition = partition_scheme(example1_university())
        assert partition.accepted
        assert partition.recognition.accepted
        assert len(partition.blocks) == 3  # Example 1's three blocks
        assert all(partition.block_ctm)  # the university scheme is ctm

    def test_unaccepted_scheme_is_not_parallelizable(self):
        partition = partition_scheme(example2_not_algebraic())
        assert not partition.accepted
        assert not partition.parallelizable

    def test_single_block_is_not_parallelizable(self):
        """Accepted but with one block: nothing to spread work over."""
        scheme = tiled_university(1)
        partition = partition_scheme(scheme)
        if len(partition.blocks) > 1:
            assert partition.parallelizable
        else:  # pragma: no cover - shape depends on the workload
            assert not partition.parallelizable

    def test_tiled_scheme_scales_blocks(self):
        partition = partition_scheme(tiled_university(4))
        assert partition.parallelizable
        assert len(partition.blocks) == 12  # 3 blocks per tile


class TestRouting:
    def test_block_index_of_covers_every_relation(self):
        partition = partition_scheme(tiled_university(3))
        for index, names in enumerate(partition.block_names):
            for name in names:
                assert partition.block_index_of(name) == index

    def test_unknown_relation_raises(self):
        partition = partition_scheme(example1_university())
        with pytest.raises(StateError):
            partition.block_index_of("NOPE")

    def test_route_preserves_global_order_within_blocks(self):
        partition = partition_scheme(tiled_university(2))
        updates = [
            (0, "insert", "T0R4", {"C0": "c", "S0": "s", "G0": "g"}),
            (1, "insert", "T1R4", {"C1": "c", "S1": "s", "G1": "g"}),
            (2, "delete", "T0R4", {"C0": "c", "S0": "s", "G0": "g"}),
        ]
        routed = partition.route_updates(updates)
        assert routed is not None
        flattened = sorted(
            (global_index, op, name)
            for ops in routed.values()
            for global_index, op, name, _ in ops
        )
        assert flattened == [
            (0, "insert", "T0R4"),
            (1, "insert", "T1R4"),
            (2, "delete", "T0R4"),
        ]
        block_of_t0 = partition.block_index_of("T0R4")
        assert [i for i, *_ in routed[block_of_t0]] == [0, 2]

    def test_unroutable_batches_return_none(self):
        partition = partition_scheme(example1_university())
        assert (
            partition.route_updates([(0, "upsert", "R4", {})]) is None
        )  # unknown op
        assert (
            partition.route_updates([(0, "insert", "NOPE", {})]) is None
        )  # unknown relation


class TestSubstate:
    def test_substate_reuses_relation_objects(self):
        scheme = example1_university()
        partition = partition_scheme(scheme)
        state = random_consistent_state(scheme, random.Random(3), 3)
        for index in range(len(partition.blocks)):
            substate = partition.substate(state, index)
            for name in partition.block_names[index]:
                assert substate[name] is state[name]

    def test_substates_cover_the_scheme_disjointly(self):
        scheme = tiled_university(2)
        partition = partition_scheme(scheme)
        seen: list[str] = []
        for names in partition.block_names:
            seen.extend(names)
        assert sorted(seen) == sorted(scheme.names)

    def test_substate_schemes_keep_block_fds(self):
        """Each block substate validates against the block sub-scheme:
        inserting through it sees the block's own fds only."""
        scheme = example1_university()
        partition = partition_scheme(scheme)
        state = DatabaseState(scheme)
        for index, block in enumerate(partition.blocks):
            substate = partition.substate(state, index)
            assert substate.scheme is block
