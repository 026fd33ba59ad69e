"""The paired-benchmark summary: quartiles per side, and the pairs the
change won, with ties counting for neither side."""

import argparse
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_pairs.py"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def records(**metrics):
    """One record per position of the value lists."""
    count = len(next(iter(metrics.values())))
    return [
        {
            "metrics": {
                name: {"value": values[index], "unit": "-"}
                for name, values in metrics.items()
            }
        }
        for index in range(count)
    ]


def test_quartiles_are_inclusive(perf_pairs):
    assert perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert perf_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_the_metric_direction_and_ties_count_for_neither(
    perf_pairs,
):
    base = records(
        query_p50_ms=[0.75, 0.70, 0.80, 0.60],
        throughput_ops_s=[900.0, 1000.0, 950.0, 1100.0],
    )
    new = records(
        query_p50_ms=[0.55, 0.70, 0.50, 0.65],
        throughput_ops_s=[1200.0, 1000.0, 900.0, 1300.0],
    )
    better = {"query_p50_ms": "lower", "throughput_ops_s": "higher"}
    rows = {
        row["metric"]: row
        for row in perf_pairs.summarize(base, new, better)
    }
    query = rows["query_p50_ms"]
    assert (query["wins"], query["losses"], query["pairs"]) == (2, 1, 4)
    throughput = rows["throughput_ops_s"]
    assert (throughput["wins"], throughput["losses"]) == (2, 1)
    assert query["base"] == pytest.approx((0.675, 0.725, 0.7625))
    assert query["new"] == pytest.approx((0.5375, 0.6, 0.6625))
    # The medians are 0.125 apart, past the base's 0.0875 spread.
    assert query["clear"]


def test_a_gap_inside_the_base_spread_is_not_clear(perf_pairs):
    base = records(setup_s=[0.8, 1.0, 1.2])
    new = records(setup_s=[0.9, 0.95, 1.1])
    (row,) = perf_pairs.summarize(base, new, {})
    assert row["better"] == "lower"
    assert (row["wins"], row["losses"]) == (2, 1)
    assert not row["clear"]


def test_only_metrics_every_record_has_are_summarized(perf_pairs):
    base = records(a=[1.0], b=[2.0])
    new = records(a=[0.5])
    assert [row["metric"] for row in perf_pairs.summarize(base, new, {})] == [
        "a"
    ]


def test_directions_read_both_metric_sections(perf_pairs):
    benchmark = {
        "end_to_end": [{"name": "throughput_ops_s", "better": "higher"}],
        "per_layer": [{"name": "router.rpc_ms", "better": "lower"}],
    }
    assert perf_pairs.directions(benchmark) == {
        "throughput_ops_s": "higher",
        "router.rpc_ms": "lower",
    }


def test_the_change_side_is_exported_as_the_tree_stands(
    perf_pairs, tmp_path, monkeypatch
):
    for variable in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{variable}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{variable}_EMAIL", "bench@example.invalid")
    repo = tmp_path / "repo"
    repo.mkdir()
    perf_pairs.git(repo, "init", "-q")
    (repo / "run.py").write_text("committed\n")
    perf_pairs.git(repo, "add", "run.py")
    perf_pairs.git(repo, "commit", "-q", "-m", "seed")
    head = perf_pairs.git(repo, "rev-parse", "HEAD")
    # A clean tree exports HEAD itself.
    assert perf_pairs.change_revision(repo) == head
    (repo / "run.py").write_text("edited\n")
    (repo / "new.py").write_text("staged\n")
    perf_pairs.git(repo, "add", "new.py")
    (repo / "stray.py").write_text("untracked\n")
    rev = perf_pairs.change_revision(repo)
    assert rev != head
    dest = tmp_path / "export"
    perf_pairs.export(rev, dest, root=repo)
    assert (dest / "run.py").read_text() == "edited\n"
    assert (dest / "new.py").read_text() == "staged\n"
    assert not (dest / "stray.py").exists()
    # Exporting touched neither the working tree nor the index.
    assert (repo / "run.py").read_text() == "edited\n"
    assert perf_pairs.git(repo, "diff", "--cached", "--name-only") == "new.py"


def test_each_set_of_pairs_gets_its_own_directory(perf_pairs, tmp_path):
    """A second set with the same workload, seed, trace and revisions
    does not overwrite the first set's records."""
    args = argparse.Namespace(workload="read_hot", seed=3, trace=0)
    base, new = "a" * 40, "b" * 40
    first = perf_pairs.set_directory(tmp_path, args, base, new)
    (first / "base-1.json").write_text("{}")
    second = perf_pairs.set_directory(tmp_path, args, base, new)
    assert first != second
    assert first.name == f"read_hot-seed3-trace0-{'a' * 12}-{'b' * 12}-set1"
    assert second.name.endswith("-set2")
    assert (first / "base-1.json").read_text() == "{}"
    assert list(second.iterdir()) == []
