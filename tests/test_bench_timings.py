"""The benchmark suite's timing merge keeps live node ids and the
scenario records, and drops the timings of deleted benchmark files."""

import importlib.util
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timings_of_deleted_files_are_dropped(bench_conftest, tmp_path):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_live.py").write_text("")
    scenarios = {"ratio": {"speedup": 3.0, "floor": 2.0}}
    report = {
        "scenarios": scenarios,
        "tests": {
            "benchmarks/bench_live.py::test_kept": 1.0,
            "benchmarks/bench_live.py::test_param[4]": 2.0,
            "benchmarks/bench_gone.py::test_dropped": 3.0,
            "benchmarks/bench_gone.py::test_param[4]": 4.0,
        },
    }
    merged = bench_conftest.merge_test_timings(
        report, {"benchmarks/bench_live.py::test_new": 0.1234567}, tmp_path
    )
    assert merged["tests"] == {
        "benchmarks/bench_live.py::test_kept": 1.0,
        "benchmarks/bench_live.py::test_param[4]": 2.0,
        "benchmarks/bench_live.py::test_new": 0.123457,
    }
    assert merged["scenarios"] is scenarios
    assert merged["scenarios"] == {"ratio": {"speedup": 3.0, "floor": 2.0}}


def test_fresh_timings_overwrite_and_start_an_empty_record(
    bench_conftest, tmp_path
):
    (tmp_path / "bench_x.py").write_text("")
    merged = bench_conftest.merge_test_timings(
        {}, {"bench_x.py::test_a": 2.0}, tmp_path
    )
    assert merged == {"tests": {"bench_x.py::test_a": 2.0}}
    merged = bench_conftest.merge_test_timings(
        merged, {"bench_x.py::test_a": 1.5}, tmp_path
    )
    assert merged["tests"] == {"bench_x.py::test_a": 1.5}
