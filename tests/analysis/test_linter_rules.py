"""Golden tests: each rule pack against its seeded fixture."""

from pathlib import Path

import pytest

from repro.analysis.astcheck import SourceFile
from repro.analysis import (
    rules_asyncio,
    rules_determinism,
    rules_locks,
    rules_resources,
)
from repro.analysis.rules_invalidation import (
    InvalidationConfig,
    check_project as check_invalidation,
)
from repro.analysis.rules_spans import SpanConfig, check_project, load_catalogue

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str) -> SourceFile:
    return SourceFile.load(FIXTURES / name, display=name)


def by_line(findings):
    return sorted((f.line, f.severity) for f in findings)


def clean_lines_of(source: SourceFile) -> set:
    return {
        index + 1
        for index, line in enumerate(source.text.splitlines())
        if "# clean" in line
    }


class TestLockDiscipline:
    def test_expected_findings(self):
        source = load("fixture_locks.py")
        findings = rules_locks.check(source)
        assert len(findings) == 7
        assert all(f.rule == "lock-discipline" for f in findings)
        assert all(f.severity == "error" for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert "read of Account._balance" in messages
        assert "write to Account._balance" in messages
        assert "write to Account._pending" in messages
        assert "write to Account._snapshot" in messages
        assert "write to Account._audit" in messages

    def test_acquire_finally_idiom_counts_as_held(self):
        # `drain` (acquire before the try) and `late_acquire` (acquire
        # inside the try body) are both clean; the broken pairings are
        # the only acquire/release lines flagged.
        source = load("fixture_locks.py")
        flagged = {f.line for f in rules_locks.check(source)}
        text = source.text.splitlines()
        assert not flagged & {
            index + 1
            for index, line in enumerate(text)
            if "idiom" in line or "acquired inside" in line
        }
        assert {
            index + 1
            for index, line in enumerate(text)
            if "VIOLATION: finally releases nothing" in line
            or "VIOLATION: and this write is bare too" in line
            or "VIOLATION: release without an acquire" in line
        } <= flagged

    def test_clean_accesses_not_flagged(self):
        source = load("fixture_locks.py")
        flagged_lines = {f.line for f in rules_locks.check(source)}
        text = source.text.splitlines()
        clean_lines = {
            index + 1
            for index, line in enumerate(text)
            if "clean:" in line
        }
        assert not flagged_lines & clean_lines

    def test_writes_mode_skips_reads(self):
        source = load("fixture_locks.py")
        findings = rules_locks.check(source)
        snapshot = [f for f in findings if "_snapshot" in f.message]
        assert len(snapshot) == 1
        assert "write to" in snapshot[0].message


class TestDeterminism:
    def test_expected_findings(self):
        source = load("fixture_determinism.py")
        findings = rules_determinism.check(source)
        errors = [f for f in findings if f.severity == "error"]
        warnings = [f for f in findings if f.severity == "warning"]
        assert len(errors) == 5
        assert len(warnings) == 1
        assert "os.listdir" in warnings[0].message

    def test_clean_constructs_not_flagged(self):
        source = load("fixture_determinism.py")
        flagged_lines = {f.line for f in rules_determinism.check(source)}
        text = source.text.splitlines()
        clean_lines = {
            index + 1
            for index, line in enumerate(text)
            if "clean:" in line
        }
        assert not flagged_lines & clean_lines

    def test_messages_name_the_fix(self):
        source = load("fixture_determinism.py")
        for finding in rules_determinism.check(source):
            assert "sorted" in finding.message


class TestResourceSafety:
    def test_expected_findings(self):
        source = load("fixture_resources.py")
        findings = rules_resources.check(source)
        assert len(findings) == 3
        messages = "\n".join(f.message for f in findings)
        assert "`handle` from open(...)" in messages
        assert "anonymous" in messages
        assert "`pool` from ThreadPoolExecutor(...)" in messages

    def test_clean_patterns_not_flagged(self):
        source = load("fixture_resources.py")
        flagged_lines = {f.line for f in rules_resources.check(source)}
        text = source.text.splitlines()
        clean_lines = {
            index + 1
            for index, line in enumerate(text)
            if "clean:" in line
        }
        assert not flagged_lines & clean_lines


SPAN_CONFIG = SpanConfig(
    required={
        "fixture_spans.py::Gadget.insert": ("gadget.insert",),
        "fixture_spans.py::Gadget.query": ("gadget.query",),
    },
    surface=("fixture_spans.py::Gadget",),
    exempt={"fixture_spans.py::Gadget.close": "teardown"},
    catalogue=None,
)


class TestSpanHygiene:
    def test_expected_findings(self):
        findings = check_project([load("fixture_spans.py")], SPAN_CONFIG)
        assert len(findings) == 2
        messages = "\n".join(f.message for f in findings)
        assert 'Gadget.query must open span("gadget.query")' in messages
        assert "unreviewed public entry point Gadget.stats" in messages

    def test_delegation_and_exemptions_hold(self):
        findings = check_project([load("fixture_spans.py")], SPAN_CONFIG)
        messages = "\n".join(f.message for f in findings)
        assert "batch" not in messages  # delegates to insert
        assert "close" not in messages  # exempt
        assert "size" not in messages  # property accessor

    def test_missing_entry_point_warns(self):
        config = SpanConfig(
            required={"fixture_spans.py::Gadget.vanish": ("gadget.vanish",)},
        )
        findings = check_project([load("fixture_spans.py")], config)
        assert len(findings) == 1
        assert "no longer exists" in findings[0].message

    def test_stale_config_entries_warn(self):
        """Entries naming a deleted module, class or method are
        reported, not silently skipped."""
        config = SpanConfig(
            required={"gone.py::Widget.insert": ("widget.insert",)},
            surface=("fixture_spans.py::Vanished", "gone.py::Widget"),
            exempt={
                "fixture_spans.py::Gadget.retired": "teardown",
                "gone.py::Widget.close": "teardown",
            },
        )
        findings = check_project([load("fixture_spans.py")], config)
        assert all(f.severity == "warning" for f in findings)
        assert all("no longer exists" in f.message for f in findings)
        messages = sorted(f.message for f in findings)
        assert len(messages) == 5, messages
        joined = "\n".join(messages)
        assert "surface class Vanished" in joined
        assert "exemption Gadget.retired" in joined
        for key in (
            "gone.py::Widget.insert",
            "gone.py::Widget",
            "gone.py::Widget.close",
        ):
            assert f"module of {key} no longer" in joined
        assert {f.path for f in findings} == {"fixture_spans.py", "gone.py"}

    def test_catalogue_cross_check(self, tmp_path):
        catalogue = tmp_path / "ARCH.md"
        catalogue.write_text(
            "### Span catalogue\n\n"
            "| span | where | counters |\n"
            "|---|---|---|\n"
            "| `gadget.insert` | fixture | - |\n"
            "| `gadget.retired` | nowhere | - |\n",
            encoding="utf-8",
        )
        assert load_catalogue(catalogue) == {"gadget.insert", "gadget.retired"}
        config = SpanConfig(catalogue=catalogue)
        findings = check_project([load("fixture_spans.py")], config)
        messages = "\n".join(f.message for f in findings)
        assert 'catalogued span "gadget.retired" is never opened' in messages
        assert "gadget.insert" not in messages

    def test_undocumented_span_is_an_error(self, tmp_path):
        catalogue = tmp_path / "ARCH.md"
        catalogue.write_text(
            "### Span catalogue\n\n| span | where |\n|---|---|\n",
            encoding="utf-8",
        )
        config = SpanConfig(catalogue=catalogue)
        findings = check_project([load("fixture_spans.py")], config)
        errors = [f for f in findings if f.severity == "error"]
        assert any(
            'span "gadget.insert" is not documented' in f.message
            for f in errors
        )


class TestAsyncDiscipline:
    def test_expected_findings(self):
        findings = rules_asyncio.check(load("fixture_asyncio.py"))
        assert len(findings) == 8
        assert all(f.rule == "async-discipline" for f in findings)
        assert all(f.severity == "error" for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert "time.sleep(...) inside async function bad_sleep" in messages
        assert "open(...) inside async function bad_open" in messages
        assert "os.fsync(...)" in messages
        assert "subprocess.run(...)" in messages
        assert "self._lock.acquire(...)" in messages
        assert "sync `with self._lock:`" in messages
        assert "await while holding sync lock lock" in messages

    def test_clean_constructs_not_flagged(self):
        source = load("fixture_asyncio.py")
        flagged = {f.line for f in rules_asyncio.check(source)}
        assert not flagged & clean_lines_of(source)

    def test_allow_blocking_marker_suppresses(self):
        source = load("fixture_asyncio.py")
        messages = "\n".join(
            f.message for f in rules_asyncio.check(source)
        )
        assert "good_allowed" not in messages

    def test_executor_routes_and_sync_defs_excluded(self):
        source = load("fixture_asyncio.py")
        messages = "\n".join(
            f.message for f in rules_asyncio.check(source)
        )
        assert "good_executor" not in messages
        assert "good_thunk" not in messages
        assert "sync_method" not in messages


class TestLockOrder:
    def test_single_file_cycles(self):
        findings = rules_locks.check_order([load("fixture_lockorder.py")])
        assert len(findings) == 3
        assert all(f.rule == "lock-order" for f in findings)
        assert all(f.severity == "error" for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert (
            "Transfer._accounts_lock → Transfer._journal_lock" in messages
        )
        assert "ManualCycle._a_lock → ManualCycle._b_lock" in messages
        assert "GuardedBridge._x_lock → GuardedBridge._y_lock" in messages
        # The consistent hierarchy and the allowed reverse edge stay out.
        assert "Hierarchy" not in messages
        assert "Allowed" not in messages

    def test_cross_file_cycle_needs_both_files(self):
        main_only = rules_locks.check_order([load("fixture_lockorder.py")])
        assert not any("CrossFile" in f.message for f in main_only)
        both = rules_locks.check_order(
            [load("fixture_lockorder.py"), load("fixture_lockorder_peer.py")]
        )
        assert len(both) == 4
        cross = [f for f in both if "CrossFile" in f.message]
        assert len(cross) == 1
        # The message names both files: one per edge of the cycle.
        assert "fixture_lockorder.py" in cross[0].message
        assert "fixture_lockorder_peer.py" in cross[0].message

    def test_cycle_message_spells_out_the_path(self):
        findings = rules_locks.check_order([load("fixture_lockorder.py")])
        for finding in findings:
            assert "lock-order cycle" in finding.message
            assert "deadlock" in finding.message
            assert "→" in finding.message


INVALIDATION_CONFIG = InvalidationConfig(
    required={
        "fixture_invalidation.py::MiniEngine.insert": ("_note_write",),
        "fixture_invalidation.py::MiniEngine.delete": ("_note_write",),
        "fixture_invalidation.py::MiniEngine.batch": ("insert",),
        "fixture_invalidation.py::replay_records": ("insert", "delete"),
    },
)


class TestCacheInvalidation:
    def test_expected_findings(self):
        findings = check_invalidation(
            [load("fixture_invalidation.py")], INVALIDATION_CONFIG
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "cache-invalidation"
        assert finding.severity == "error"
        assert "MiniEngine.delete never invalidates the relation mirror" in (
            finding.message
        )

    def test_delegation_holds(self):
        findings = check_invalidation(
            [load("fixture_invalidation.py")], INVALIDATION_CONFIG
        )
        messages = "\n".join(f.message for f in findings)
        assert "batch" not in messages  # delegates to insert
        assert "replay_records" not in messages  # applies via engine

    def test_vanished_sites_warn(self):
        import dataclasses

        config = dataclasses.replace(
            INVALIDATION_CONFIG,
            required={
                **INVALIDATION_CONFIG.required,
                "fixture_invalidation.py::vanished": ("_note_write",),
            },
        )
        findings = check_invalidation(
            [load("fixture_invalidation.py")], config
        )
        warnings = [f for f in findings if f.severity == "warning"]
        messages = "\n".join(f.message for f in warnings)
        assert len(warnings) == 1
        assert "configured mutation site vanished no longer exists" in (
            messages
        )

    def test_router_write_path_skipping_the_bump_is_flagged(self):
        config = InvalidationConfig(
            required={
                f"fixture_invalidation_router.py::MiniRouter.{name}": (
                    "_invalidate",
                )
                for name in ("insert", "delete", "apply_batch")
            }
        )
        findings = check_invalidation(
            [load("fixture_invalidation_router.py")], config
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("cache-invalidation", "error")
        ]
        assert "MiniRouter.delete never invalidates" in findings[0].message
        assert "_invalidate(...)" in findings[0].message

    def test_real_map_covers_the_router_write_paths(self):
        from repro.analysis import default_invalidation_config

        required = default_invalidation_config().required
        for name in ("insert", "delete", "apply_batch"):
            assert required[f"shard/router.py::ShardRouter.{name}"] == (
                "_publish",
            )

    def test_real_map_is_clean_on_src(self):
        """The committed state-mutation map holds over the real tree."""
        from repro.analysis import (
            default_invalidation_config,
            lint_paths,
        )

        repo_root = Path(__file__).resolve().parents[2]
        findings = lint_paths(
            [repo_root / "src"],
            root=repo_root,
            rules=("cache-invalidation",),
            invalidation_config=default_invalidation_config(),
        )
        assert findings == []


class TestFingerprintStability:
    """Renamed-line immunity: padding lines inserted above a finding
    must not change its fingerprint (messages carry no line numbers)."""

    CASES = (
        ("fixture_asyncio.py", lambda s: rules_asyncio.check(s)),
        (
            "fixture_lockorder.py",
            lambda s: rules_locks.check_order([s]),
        ),
        (
            "fixture_invalidation.py",
            lambda s: check_invalidation([s], INVALIDATION_CONFIG),
        ),
    )

    @pytest.mark.parametrize("name,run", CASES, ids=[c[0] for c in CASES])
    def test_padding_preserves_fingerprints(self, name, run, tmp_path):
        original = load(name)
        before = run(original)
        assert before, f"{name} must seed at least one finding"

        lines = original.text.splitlines(keepends=True)
        # Pad right below the module docstring so every finding moves.
        padded = tmp_path / name
        padded.write_text(
            "".join(lines[:4]) + "# padding\n" * 7 + "".join(lines[4:]),
            encoding="utf-8",
        )
        after = run(SourceFile.load(padded, display=name))

        assert {f.line for f in before} != {f.line for f in after}
        assert {f.fingerprint for f in before} == {
            f.fingerprint for f in after
        }

    @pytest.mark.parametrize("name,run", CASES, ids=[c[0] for c in CASES])
    def test_finding_counts_bounded(self, name, run):
        # Ceilings: a rule-pack regression that sprays findings over
        # its own fixture fails loudly here.
        counts = {
            "fixture_asyncio.py": 8,
            "fixture_lockorder.py": 3,
            "fixture_invalidation.py": 1,
        }
        assert len(run(load(name))) == counts[name]


class TestRegistry:
    def test_rule_codes_and_registry_agree(self):
        from repro.analysis import ALL_RULES, RULE_CODES
        from repro.analysis.linter import FILE_RULES, PROJECT_RULES

        assert set(ALL_RULES) == set(RULE_CODES)
        assert set(FILE_RULES) | set(PROJECT_RULES) == set(ALL_RULES)
        assert not set(FILE_RULES) & set(PROJECT_RULES)


class TestFindings:
    def test_fingerprint_is_line_independent(self):
        from repro.analysis.findings import Finding

        a = Finding("p.py", 10, 1, "determinism", "error", "msg")
        b = Finding("p.py", 99, 7, "determinism", "error", "msg")
        assert a.fingerprint == b.fingerprint
        c = Finding("p.py", 10, 1, "determinism", "error", "other msg")
        assert a.fingerprint != c.fingerprint

    def test_unknown_severity_rejected(self):
        from repro.analysis.findings import Finding

        with pytest.raises(ValueError):
            Finding("p.py", 1, 1, "rule", "fatal", "msg")
