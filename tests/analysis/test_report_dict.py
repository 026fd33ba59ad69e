"""Tests for the machine-readable report form and engine conveniences."""

import json

import pytest

from repro.analysis.report import analyze_scheme
from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import NotApplicableError
from repro.workloads.paper import (
    example1_university,
    example2_not_algebraic,
    example4_split_scheme,
)


class TestToDict:
    def test_university(self):
        data = analyze_scheme(example1_university()).to_dict()
        assert data["independence_reducible"] is True
        assert data["ctm"] is True
        assert data["split_keys"] == []
        names = {block["name"] for block in data["partition"]}
        assert names == {"D1", "D2", "D3"}
        assert json.dumps(data)  # serializable

    def test_split_scheme_reports_keys(self):
        data = analyze_scheme(example4_split_scheme()).to_dict()
        assert data["ctm"] is False
        assert data["split_keys"] == [["B", "C"]]

    def test_outside_class(self):
        data = analyze_scheme(example2_not_algebraic()).to_dict()
        assert data["independence_reducible"] is False
        assert data["partition"] is None
        assert data["ctm"] is None


class TestEngineStreaming:
    def test_plan_raises_outside_class(self):
        engine = WeakInstanceEngine(example2_not_algebraic())
        with pytest.raises(NotApplicableError):
            engine.plan("AC")
