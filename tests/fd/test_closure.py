"""Tests for attribute closure: textbook cases and the equivalence of
the naive and linear algorithms (property-based)."""

from hypothesis import given

from repro.fd.closure import ClosureIndex, closure_linear
from repro.fd.fd import FD
from repro.fd.fdset import FDSet
from repro.oracle import closure_naive
from tests.conftest import attribute_sets, fd_sets


class TestTextbookCases:
    FDS = [FD("A", "B"), FD("B", "C"), FD("CD", "E")]

    def test_transitive_chain(self):
        assert closure_linear("A", self.FDS) == frozenset("ABC")

    def test_compound_lhs_requires_all_attributes(self):
        assert closure_linear("AD", self.FDS) == frozenset("ABCDE")
        assert closure_linear("D", self.FDS) == frozenset("D")

    def test_closure_contains_start(self):
        assert frozenset("AD") <= closure_linear("AD", self.FDS)

    def test_empty_fd_set(self):
        assert closure_linear("AB", []) == frozenset("AB")

    def test_naive_matches_on_textbook_case(self):
        assert closure_naive("A", self.FDS) == closure_linear("A", self.FDS)


class TestClosureIndex:
    def test_index_is_reusable(self):
        index = ClosureIndex([FD("A", "B"), FD("B", "C")])
        assert index.closure("A") == frozenset("ABC")
        assert index.closure("B") == frozenset("BC")
        assert index.closure("C") == frozenset("C")

    def test_implies(self):
        index = ClosureIndex([FD("A", "B"), FD("B", "C")])
        assert index.implies(FD("A", "C"))
        assert not index.implies(FD("C", "A"))

    def test_determines(self):
        index = ClosureIndex([FD("A", "BC")])
        assert index.determines("A", "C")
        assert not index.determines("B", "A")


class TestProperties:
    @given(attribute_sets(), fd_sets())
    def test_linear_equals_naive(self, start, fds):
        assert closure_linear(start, fds) == closure_naive(start, fds)

    @given(attribute_sets(), fd_sets())
    def test_extensive(self, start, fds):
        assert start <= closure_linear(start, fds)

    @given(attribute_sets(), fd_sets())
    def test_idempotent(self, start, fds):
        once = closure_linear(start, fds)
        assert closure_linear(once, fds) == once

    @given(attribute_sets(), attribute_sets(), fd_sets())
    def test_monotone(self, left, right, fds):
        if left <= right:
            assert closure_linear(left, fds) <= closure_linear(right, fds)
        merged = left | right
        assert closure_linear(left, fds) <= closure_linear(merged, fds)

    @given(fd_sets(), attribute_sets())
    def test_closure_respects_every_member_fd(self, fds, start):
        result = FDSet(fds).closure(start)
        for dependency in fds:
            if dependency.lhs <= result:
                assert dependency.rhs <= result
