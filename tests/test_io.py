"""Tests for JSON serialization of schemes and states."""

import json
import random

import pytest

from repro.foundations.errors import SchemaError, StateError
from repro.io import (
    dump_scheme,
    dump_state,
    load_scheme,
    load_state,
    row_key,
    scheme_from_dict,
    scheme_to_dict,
    state_from_dict,
    sorted_rows,
    state_to_dict,
)
from repro.state.database_state import DatabaseState, tuples_from_rows
from repro.workloads.paper import ALL_SCHEMES, example1_university


class TestSchemeRoundtrip:
    @pytest.mark.parametrize("label", sorted(ALL_SCHEMES))
    def test_roundtrip_all_paper_schemes(self, label):
        scheme = ALL_SCHEMES[label]()
        assert scheme_from_dict(scheme_to_dict(scheme)) == scheme

    def test_file_roundtrip(self, tmp_path):
        scheme = example1_university()
        path = tmp_path / "scheme.json"
        dump_scheme(scheme, path)
        assert load_scheme(path) == scheme

    def test_compact_string_form(self):
        scheme = scheme_from_dict(
            {"relations": {"R1": "AB", "R2": {"attributes": "BC", "keys": ["B"]}}}
        )
        assert scheme["R1"].is_all_key()
        assert scheme["R2"].keys == (frozenset("B"),)

    def test_missing_relations_rejected(self):
        with pytest.raises(SchemaError):
            scheme_from_dict({})

    def test_empty_relations_rejected(self):
        with pytest.raises(SchemaError):
            scheme_from_dict({"relations": {}})

    def test_missing_attributes_rejected(self):
        with pytest.raises(SchemaError):
            scheme_from_dict({"relations": {"R1": {"keys": ["A"]}}})


class TestStateRoundtrip:
    def make_state(self):
        return DatabaseState(
            example1_university(),
            {
                "R1": tuples_from_rows("HRC", [("h", "r", "c")]),
                "R4": tuples_from_rows("CSG", [("c", "s", "g")]),
            },
        )

    def test_dict_roundtrip(self):
        state = self.make_state()
        data = state_to_dict(state)
        assert state_from_dict(state.scheme, data) == state

    def test_file_roundtrip(self, tmp_path):
        state = self.make_state()
        path = tmp_path / "state.json"
        dump_state(state, path)
        assert load_state(state.scheme, path) == state

    def test_json_is_plain(self, tmp_path):
        path = tmp_path / "state.json"
        dump_state(self.make_state(), path)
        data = json.loads(path.read_text())
        assert data["R1"] == [{"C": "c", "H": "h", "R": "r"}]

    def test_non_object_rejected(self):
        with pytest.raises(StateError):
            state_from_dict(example1_university(), ["nope"])


class TestRowKey:
    def test_mixed_kinds_rank_numbers_then_strings_then_none(self):
        rows = [("b",), (None,), (2,), ("a",), (1.5,), (1,)]
        assert sorted(rows, key=row_key) == [
            (1,),
            (1.5,),
            (2,),
            ("a",),
            ("b",),
            (None,),
        ]

    @pytest.mark.parametrize(
        "rows",
        [
            [("b", 2), ("a", 9), ("b", 1), ("a", 3)],
            [(3, "x"), (1, "y"), (2.5, "z"), (True, "w")],
            [(None, "b"), (None, "a")],
        ],
    )
    def test_agrees_with_plain_sorted_where_it_can_compare(self, rows):
        assert sorted(rows, key=row_key) == sorted(rows)

    def test_sorted_rows_is_the_row_key_order(self):
        # Mixed kinds in the second column: plain sorted raises on some
        # streams and not on others (the first column can decide every
        # comparison); either way the result is the row_key order.
        rng = random.Random(7)
        kinds = [None, 0, 1, 2.5, "0", "a", "b", True]
        for _ in range(300):
            rows = [
                (rng.choice("xyz"), rng.choice(kinds))
                for _ in range(rng.randrange(1, 8))
            ]
            assert sorted_rows(rows) == sorted(rows, key=row_key)

    def test_state_with_a_mixed_column_serializes(self):
        state = DatabaseState(
            example1_university(),
            {
                "R4": [
                    {"C": 1, "S": "s", "G": "g"},
                    {"C": "c", "S": "s", "G": "g"},
                ]
            },
        )
        assert [row["C"] for row in state_to_dict(state)["R4"]] == [1, "c"]
