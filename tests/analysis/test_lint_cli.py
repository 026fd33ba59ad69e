"""The ``repro lint`` front door, including the repo self-check."""

import json
import subprocess
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


class TestSelfCheck:
    def test_repo_is_clean_against_committed_baseline(self, capsys):
        """The gate CI runs: the linter over the default sweep (src/,
        scripts/, benchmarks/, examples/) must be clean modulo the
        committed baseline."""
        code = main(
            [
                "lint",
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(REPO_ROOT / "lint-baseline.json"),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0, f"repro lint found new violations:\n{output}"

    def test_committed_baseline_is_empty(self):
        """The baseline is a ratchet for emergencies, not a dumping
        ground: the committed file must stay empty (every real finding
        gets fixed or per-line allowed, never baselined away)."""
        payload = json.loads(
            (REPO_ROOT / "lint-baseline.json").read_text(encoding="utf-8")
        )
        assert payload["findings"] == {}

    def test_span_catalogue_and_code_agree(self, capsys):
        # Run only the span rule: any drift between docs/ARCHITECTURE.md
        # and the span() literals in src/ fails here with the offender
        # named.
        code = main(
            [
                "lint",
                str(REPO_ROOT / "src" / "repro"),
                "--root",
                str(REPO_ROOT),
                "--rules",
                "span-hygiene",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0, f"span catalogue drift:\n{output}"


class TestFixtureGate:
    def test_seeded_violation_exits_nonzero(self, capsys):
        code = main(
            [
                "lint",
                str(FIXTURES / "fixture_determinism.py"),
                "--root",
                str(REPO_ROOT),
                "--rules",
                "determinism",
            ]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "error[determinism]" in output

    def test_json_output(self, capsys):
        code = main(
            [
                "lint",
                str(FIXTURES / "fixture_resources.py"),
                "--root",
                str(REPO_ROOT),
                "--rules",
                "resource-safety",
                "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3
        assert payload["suppressed"] == 0
        assert all(
            f["rule"] == "resource-safety" for f in payload["findings"]
        )
        assert all(f["fingerprint"] for f in payload["findings"])

    def test_baseline_suppresses_and_new_finding_fails(
        self, capsys, tmp_path
    ):
        # Baseline and later mutation share one path, so fingerprints
        # (which embed the path) line up across the two runs.
        target = tmp_path / "fixture_locks.py"
        target.write_text(
            (FIXTURES / "fixture_locks.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        baseline_path = tmp_path / "baseline.json"
        args = ["lint", str(target), "--root", str(tmp_path), "--rules",
                "lock-discipline"]

        code = main(args + ["--write-baseline", "--baseline",
                            str(baseline_path)])
        assert code == 0
        capsys.readouterr()

        code = main(args + ["--baseline", str(baseline_path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "suppressed" in output

        # A finding added after the baseline was written must fail.
        target.write_text(
            target.read_text(encoding="utf-8")
            + "\n    def sneak(self) -> int:\n        return self._pending\n",
            encoding="utf-8",
        )
        code = main(args + ["--baseline", str(baseline_path)])
        output = capsys.readouterr().out
        assert code == 1
        # Exactly the new finding surfaces; the seven baselined ones
        # stay suppressed.
        assert output.count("error[lock-discipline]") == 1
        assert "sneak" not in output  # message names the field, not the method
        assert "_pending" in output

    def test_missing_baseline_warns_but_reports(self, capsys, tmp_path):
        code = main(
            [
                "lint",
                str(FIXTURES / "fixture_locks.py"),
                "--root",
                str(REPO_ROOT),
                "--rules",
                "lock-discipline",
                "--baseline",
                str(tmp_path / "absent.json"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "not found" in captured.err
        assert "error[lock-discipline]" in captured.out

    def test_new_packs_gate_their_fixtures(self, capsys):
        expected = {
            "fixture_asyncio.py": ("async-discipline", 8),
            "fixture_lockorder.py": ("lock-order", 3),
        }
        for name, (rule, count) in expected.items():
            code = main(
                [
                    "lint",
                    str(FIXTURES / name),
                    "--root",
                    str(REPO_ROOT),
                    "--rules",
                    rule,
                ]
            )
            assert code == 1, name
            output = capsys.readouterr().out
            assert output.count(f"error[{rule}]") == count, name

    def test_new_pack_baseline_round_trip(self, capsys, tmp_path):
        """Baselines written for the new packs suppress exactly their
        findings on the next run (fingerprint round-trip)."""
        for name in ("fixture_asyncio.py", "fixture_lockorder.py"):
            target = tmp_path / name
            target.write_text(
                (FIXTURES / name).read_text(encoding="utf-8"),
                encoding="utf-8",
            )
        baseline_path = tmp_path / "baseline.json"
        args = [
            "lint",
            str(tmp_path),
            "--root",
            str(tmp_path),
            "--rules",
            "async-discipline,lock-order",
        ]
        code = main(
            args + ["--write-baseline", "--baseline", str(baseline_path)]
        )
        assert code == 0
        capsys.readouterr()

        code = main(args + ["--baseline", str(baseline_path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "11 baselined finding(s) suppressed" in output

    def test_unknown_rule_rejected(self, capsys):
        code = main(
            [
                "lint",
                str(FIXTURES / "fixture_locks.py"),
                "--root",
                str(REPO_ROOT),
                "--rules",
                "no-such-rule",
            ]
        )
        assert code == 1
        assert "unknown rule" in capsys.readouterr().err


def _git(repo: Path, *argv: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=lint-test", "-c",
         "user.email=lint@test.invalid", *argv],
        cwd=repo,
        check=True,
        capture_output=True,
    )


class TestChanged:
    def _seed_repo(self, tmp_path: Path) -> Path:
        """A tiny git repo: one committed-clean file later made dirty,
        one committed file with a pre-existing violation left alone,
        and one brand-new untracked file with a violation."""
        repo = tmp_path / "repo"
        (repo / "src").mkdir(parents=True)
        (repo / "src" / "touched.py").write_text(
            "async def handler():\n    return 1\n", encoding="utf-8"
        )
        (repo / "src" / "stable.py").write_text(
            "import time\n\n\n"
            "async def slow():\n    time.sleep(1)\n",
            encoding="utf-8",
        )
        _git(repo, "init", "--quiet")
        _git(repo, "add", "-A")
        _git(repo, "commit", "--quiet", "-m", "seed")

        # Dirty one tracked file, add one untracked file.
        (repo / "src" / "touched.py").write_text(
            "import time\n\n\n"
            "async def handler():\n    time.sleep(1)\n",
            encoding="utf-8",
        )
        (repo / "src" / "fresh.py").write_text(
            "import threading\n\n"
            "LOCK = threading.Lock()\n\n\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0  # guarded-by: _lock\n\n"
            "    def bump(self):\n"
            "        self._n += 1\n",
            encoding="utf-8",
        )
        return repo

    def test_changed_matches_full_run_on_touched_files(
        self, capsys, tmp_path
    ):
        repo = self._seed_repo(tmp_path)

        main(["lint", "--root", str(repo), "--changed", "--json"])
        changed = json.loads(capsys.readouterr().out)

        main(["lint", "--root", str(repo), "--json"])
        full = json.loads(capsys.readouterr().out)

        touched = {"src/touched.py", "src/fresh.py"}
        full_on_touched = {
            f["fingerprint"]
            for f in full["findings"]
            if f["path"] in touched
        }
        changed_prints = {f["fingerprint"] for f in changed["findings"]}
        assert changed_prints == full_on_touched
        assert changed["count"] == 2  # sleep in touched.py, lock in fresh.py
        # The pre-existing violation in the untouched file stays out of
        # the changed run but is seen by the full sweep.
        assert any(f["path"] == "src/stable.py" for f in full["findings"])
        assert not any(
            f["path"] == "src/stable.py" for f in changed["findings"]
        )

    def test_changed_with_no_changes_is_a_no_op(self, capsys, tmp_path):
        repo = self._seed_repo(tmp_path)
        _git(repo, "add", "-A")
        _git(repo, "commit", "--quiet", "-m", "absorb")
        code = main(["lint", "--root", str(repo), "--changed"])
        assert code == 0
        assert "no changed python files" in capsys.readouterr().out

    def test_changed_rejects_explicit_paths(self, capsys, tmp_path):
        repo = self._seed_repo(tmp_path)
        code = main(
            ["lint", str(repo / "src"), "--root", str(repo), "--changed"]
        )
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_changed_ignores_files_outside_lint_dirs(
        self, capsys, tmp_path
    ):
        repo = self._seed_repo(tmp_path)
        _git(repo, "add", "-A")
        _git(repo, "commit", "--quiet", "-m", "absorb")
        (repo / "tests").mkdir()
        (repo / "tests" / "fixture_bad.py").write_text(
            "import time\n\n\nasync def nap():\n    time.sleep(1)\n",
            encoding="utf-8",
        )
        code = main(["lint", "--root", str(repo), "--changed"])
        assert code == 0
        assert "no changed python files" in capsys.readouterr().out
