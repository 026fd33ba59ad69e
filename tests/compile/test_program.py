"""Compiled-program behavior: kernel output vs. the interpreted
expression walk, ``CompileError`` for shapes outside the kernel set,
and the ``KernelSpace`` memo layers."""

import pytest

from repro.compile import (
    CompileError,
    KernelSpace,
    compile_expression,
    plan_fingerprint,
)
from repro.core.engine import WeakInstanceEngine
from repro.foundations.attrs import attrs
from repro.oracle import total_projection_reducible
from repro.state.database_state import DatabaseState, tuples_from_rows
from repro.workloads.paper import example4_split_scheme, example5_state


class TestCompiledProgram:
    def test_compiled_plan_matches_interpreted_evaluate(self):
        engine = WeakInstanceEngine(example4_split_scheme())
        state = example5_state(4)
        for target in ("AE", "AB", "BC", "ABE"):
            plan = engine.plan(target)
            program = compile_expression(plan.expression)
            compiled = program.run_decoded(engine.kernels.store, state)
            interpreted = set(plan.expression.evaluate(state).row_vectors)
            assert compiled == interpreted, target

    def test_unknown_expression_raises_compile_error(self):
        class Exotic:
            attributes = frozenset("AB")

        with pytest.raises(CompileError, match="no columnar kernel"):
            compile_expression(Exotic())

    def test_engine_query_falls_back_when_target_has_no_plan(self):
        # An attribute outside every relation has no predetermined
        # expression; the engine answers ∅ without a kernel program,
        # exactly as the interpreted block route does.
        engine = WeakInstanceEngine(example4_split_scheme())
        state = example5_state(3)
        assert engine.query(state, "AZ") == set()
        assert total_projection_reducible(state, "AZ") == set()
        assert engine.cache_info()["compiled"].size == 0


class TestKernelSpace:
    def test_identity_fast_path_returns_the_same_program(self):
        engine = WeakInstanceEngine(example4_split_scheme())
        expression = engine.plan("AE").expression
        kernels = engine.kernels
        fingerprint = engine.partition.fingerprint
        first = kernels.expression_program(fingerprint, expression)
        second = kernels.expression_program(fingerprint, expression)
        assert first is second

    def test_equal_expressions_share_one_program(self):
        # Two engines over the same scheme build distinct plan trees;
        # one KernelSpace dedupes them through the plan fingerprint.
        scheme = example4_split_scheme()
        one = WeakInstanceEngine(scheme)
        two = WeakInstanceEngine(scheme)
        expr_one = one.plan("AE").expression
        expr_two = two.plan("AE").expression
        assert expr_one is not expr_two
        assert plan_fingerprint(expr_one) == plan_fingerprint(expr_two)
        kernels = KernelSpace()
        assert kernels.expression_program(
            "fp", expr_one
        ) is kernels.expression_program("fp", expr_two)

    def test_cache_info_reports_the_compiled_layer(self):
        engine = WeakInstanceEngine(example4_split_scheme())
        state = example5_state(3)
        engine.query(state, "AE")
        info = engine.cache_info()
        assert "compiled" in info
        assert info["compiled"].size >= 1

    def test_selection_programs_memoized_per_key(self):
        scheme = example4_split_scheme()
        kernels = KernelSpace()
        fingerprint = kernels.scheme_fp(scheme)
        key = attrs("A")
        first = kernels.selection_programs(fingerprint, scheme, key)
        second = kernels.selection_programs(fingerprint, scheme, key)
        assert first is second
        assert len(first) >= 1

    def test_compiled_selection_matches_interpreted_branch(self):
        # The σ_{K='k'} programs behind the RI lookup agree with the
        # interpreted evaluation of their own branch expressions.
        from repro.compile import _ri_branches

        scheme = example4_split_scheme()
        state = DatabaseState(
            scheme,
            {
                "R1": tuples_from_rows("AB", [("a", "b")]),
                "R2": tuples_from_rows("AC", [("a", "c")]),
            },
        )
        kernels = KernelSpace()
        fingerprint = kernels.scheme_fp(scheme)
        key = attrs("A")
        programs = kernels.selection_programs(fingerprint, scheme, key)
        branches = _ri_branches(scheme, key)
        assert len(programs) == len(branches)
        for program, branch in zip(programs, branches):
            compiled = program.run_decoded(
                kernels.store, state, params={"A": "a"}
            )
            interpreted = {
                row
                for row in branch.evaluate(state).row_vectors
            }
            selected = {
                row
                for row in interpreted
                if row[sorted(branch.attributes).index("A")] == "a"
            }
            assert compiled == selected
