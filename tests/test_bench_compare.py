"""The benchmark regression gate refuses speedup records from different
host shapes, compares the rest, and always gates exact invariants."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_records_at_different_cpu_counts_are_refused(bench_compare):
    baseline = {
        "ratio": {"speedup": 4.0, "cpu_count": 1},
        "routing": {"single_block_query_rpcs": 1, "cpu_count": 1},
    }
    fresh = {
        "ratio": {"speedup": 1.0, "cpu_count": 4},
        "routing": {"single_block_query_rpcs": 3, "cpu_count": 4},
    }
    lines, regressions, refused = bench_compare.compare(baseline, fresh)
    # The timing is refused; the RPC count is a routing promise and is
    # still gated exactly.
    assert refused == ["ratio"]
    assert regressions == ["routing:single_block_query_rpcs"]
    assert any("REFUSED: cpu_count differs (baseline 1, fresh 4)" in line
               for line in lines)


def test_records_without_cpu_count_compare_as_before(bench_compare):
    baseline = {
        "ratio": {"speedup": 4.0},
        "steady": {"speedup": 2.0, "cpu_count": 2},
        "routing": {"single_block_query_rpcs": 1},
    }
    fresh = {
        "ratio": {"speedup": 2.9, "cpu_count": 2},
        "steady": {"speedup": 1.6, "cpu_count": 2},
        "routing": {"single_block_query_rpcs": 2, "cpu_count": 2},
    }
    _, regressions, refused = bench_compare.compare(baseline, fresh)
    assert refused == []
    # 2.9 < 4.0 * 0.75; 1.6 >= 2.0 * 0.75; RPC counts match exactly.
    assert regressions == ["ratio", "routing:single_block_query_rpcs"]


def test_matching_cpu_counts_compare(bench_compare):
    record = {"speedup": 3.0, "cpu_count": 2}
    _, regressions, refused = bench_compare.compare(
        {"ratio": record}, {"ratio": dict(record)}
    )
    assert (regressions, refused) == ([], [])


def test_both_sides_seconds_print_beside_each_ratio(bench_compare):
    baseline = {
        "batch": {
            "speedup": 4.373,
            "naive_seconds": 0.015818,
            "optimized_seconds": 0.003617,
        },
        "failover": {
            "speedup": 26.203,
            "cold_open_seconds": 0.176034,
            "promote_seconds": 0.006718,
        },
        "plain": {"speedup": 2.0},
    }
    fresh = {
        "batch": {
            "speedup": 1.462,
            "naive_seconds": 0.0038,
            "optimized_seconds": 0.0026,
        },
        "failover": {"speedup": 30.0, "promote_seconds": 0.0048},
        "plain": {"speedup": 2.0},
    }
    lines, regressions, refused = bench_compare.compare(baseline, fresh)
    # The verdict still reads the ratio alone: a slow side that got
    # faster fails the gate exactly as before.
    assert regressions == ["batch"]
    assert refused == []
    assert lines == [
        "batch     baseline   4.37x  fresh   1.46x  floor   3.28x  REGRESSED",
        "            naive_seconds 0.015818 -> 0.003800  "
        "optimized_seconds 0.003617 -> 0.002600",
        "failover  baseline  26.20x  fresh  30.00x  floor  19.65x  ok",
        "            cold_open_seconds 0.176034 -> n/a  "
        "promote_seconds 0.006718 -> 0.004800",
        "plain     baseline   2.00x  fresh   2.00x  floor   1.50x  ok",
    ]
