"""Tests for 3NF synthesis: dependency preservation, losslessness, 3NF,
and the bridge into the paper's classifiers."""

import pytest
from hypothesis import given

from repro.fd.fdset import FDSet
from repro.fd.normal_forms import scheme_is_3nf
from repro.schema.embedded import is_cover_embedding
from repro.schema.synthesis import synthesize_3nf
from repro.tableau.scheme_tableau import is_lossless
from tests.conftest import fd_sets


class TestTextbookCases:
    def test_simple_chain(self):
        scheme = synthesize_3nf("A->B, B->C")
        attribute_sets = sorted(
            "".join(sorted(m.attributes)) for m in scheme.relations
        )
        assert attribute_sets == ["AB", "BC"]

    def test_equivalent_lhs_merged(self):
        # A<->B yields one relation AB with both keys, plus B->C's group
        # ... B->C has lhs equivalent to A, so everything merges.
        scheme = synthesize_3nf("A->B, B->A, B->C")
        assert len(scheme.relations) == 1
        member = scheme.relations[0]
        assert member.attributes == frozenset("ABC")
        assert set(member.keys) == {frozenset("A"), frozenset("B")}

    def test_merge_that_breaks_3nf_is_split(self):
        # ABC and ACF are equivalent (ACF->E->B with F); merging them
        # would put B->E (B no key, E not prime) into one ABCEF scheme.
        fds = "ABC->F, ACF->E, B->E, EF->B"
        scheme = synthesize_3nf(fds)
        for member in scheme.relations:
            assert scheme_is_3nf(member.attributes, FDSet(fds))
        assert is_cover_embedding(
            [m.attributes for m in scheme.relations], FDSet(fds)
        )

    def test_lossless_key_relation_added(self):
        # F = {C->D}: groups give CD only; A, B are key attributes of
        # the universe ABCD and must appear for losslessness.
        scheme = synthesize_3nf("C->D", universe="ABCD")
        assert any(
            frozenset("ABC") <= member.attributes
            for member in scheme.relations
        )
        assert is_lossless(
            [(m.name, m.attributes) for m in scheme.relations],
            scheme.fds,
            universe="ABCD",
        )

    def test_leftover_attributes_housed(self):
        scheme = synthesize_3nf("A->B", universe="ABX")
        assert "X" in scheme.universe

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            synthesize_3nf([], universe="")

    def test_fds_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            synthesize_3nf("A->B", universe="A")


class TestClassifierBridge:
    def test_synthesized_scheme_feeds_recognition(self):
        from repro.core.reducible import recognize_independence_reducible

        scheme = synthesize_3nf("A->B, B->A, B->C, D->E")
        result = recognize_independence_reducible(scheme)
        # The synthesized scheme for this fd set happens to be in the
        # class; the point is the pipeline composes.
        assert result.accepted


class TestProperties:
    @given(fd_sets())
    def test_dependency_preserving(self, fds):
        scheme = synthesize_3nf(fds, universe="ABCDEF")
        assert scheme.fds.covers(FDSet(fds))

    @given(fd_sets())
    def test_cover_embedding(self, fds):
        scheme = synthesize_3nf(fds, universe="ABCDEF")
        assert is_cover_embedding(
            [m.attributes for m in scheme.relations], FDSet(fds)
        )

    @given(fd_sets())
    def test_lossless(self, fds):
        scheme = synthesize_3nf(fds, universe="ABCDEF")
        assert is_lossless(
            [(m.name, m.attributes) for m in scheme.relations],
            FDSet(fds),
            universe="ABCDEF",
        )

    @given(fd_sets())
    def test_every_member_in_3nf(self, fds):
        scheme = synthesize_3nf(fds, universe="ABCDEF")
        for member in scheme.relations:
            assert scheme_is_3nf(member.attributes, FDSet(fds)), (
                f"{member} violates 3NF"
            )

    @given(fd_sets())
    def test_no_redundant_contained_member(self, fds):
        """A member contained in another survives only when dropping it
        would lose a key dependency (see {A→B, BC→A}: AB must stay
        beside ABC because A is not a key of ABC)."""
        scheme = synthesize_3nf(fds, universe="ABCDEF")
        for member in scheme.relations:
            contained = any(
                member.attributes < other.attributes
                for other in scheme.relations
                if other.name != member.name
            )
            if not contained:
                continue
            remaining = FDSet()
            for other in scheme.relations:
                if other.name != member.name:
                    remaining = remaining | other.key_dependencies
            assert not remaining.covers(member.key_dependencies), (
                f"{member} is redundant but was kept"
            )
