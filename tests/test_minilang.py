"""Parser, interpreter, controls, and patching."""
import sys
import threading

import pytest

from condfix.errors import (
    ControlError, KindMismatchError, MiniLangSyntaxError, PatchScopeError,
    ResolutionError,
)
from condfix.minilang import (
    Binary, ExecutionControls, Obj, Patch, PatchKind, StatementKind, Unary,
    VarRef, apply_patch, execute, parse_expression, parse_program,
    render_expr, render_program,
)
from condfix.minilang.interp import MAX_CALL_DEPTH
from conftest import GCD_BUGGY

BIG = 1 << 32  # BIG * BIG wraps to 0 in 64-bit arithmetic


class TestParsing:
    def test_minimal_program(self):
        program = parse_program("fn f(x: int) -> int { return x; }")
        assert list(program.functions) == ["f"]
        assert program.locations() == [1]

    def test_gcd_condition_location(self, gcd_program):
        assert gcd_program.kind_of(1) == StatementKind.IF
        # locations are dense and in source order
        assert gcd_program.locations() == list(range(1, 13))

    def test_undefined_variable_is_reported_by_name(self):
        with pytest.raises(ResolutionError, match="'y'"):
            parse_program("fn f(x: int) -> int { return y; }")

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(MiniLangSyntaxError) as err:
            parse_program("fn f(x: int) -> int {\n  return x +; }")
        assert err.value.line == 2

    def test_duplicate_function_name(self):
        source = "fn f() -> int { return 1; }\nfn f() -> int { return 2; }"
        with pytest.raises(MiniLangSyntaxError, match="duplicate function"):
            parse_program(source)

    def test_unregistered_method_rejected(self):
        with pytest.raises(ResolutionError, match="reverse"):
            parse_program("fn f(s: Str) -> int { return s.reverse(); }")

    def test_statement_kinds(self, gcd_program):
        kinds = {loc: gcd_program.kind_of(loc) for loc in gcd_program.locations()}
        assert kinds[1] == StatementKind.IF
        assert kinds[3] == StatementKind.PLAIN
        assert kinds[5] == StatementKind.LOOP

    def test_render_round_trips(self, gcd_program):
        text = render_program(gcd_program)
        again = parse_program(text)
        assert render_program(again) == text


# Binary operators loosest to tightest, written out independently of
# printer.PRECEDENCE so that the round-trip tests pin the order itself.
LEVELS = [("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="), ("+", "-"), ("*", "/", "%")]
LEVEL_OF = {op: level for level, ops in enumerate(LEVELS) for op in ops}
A, B, C = VarRef("a"), VarRef("b"), VarRef("c")


class TestPrecedenceRoundTrip:
    """parse_expression(render_expr(e)) == e with minimal parentheses: a
    tighter operand needs none, a looser one does, and an equal-level right
    operand does because every binary operator is left-associative."""

    @pytest.mark.parametrize("outer", list(LEVEL_OF))
    def test_every_pair_in_both_groupings(self, outer):
        for inner in LEVEL_OF:
            left_nested = Binary(outer, Binary(inner, A, B), C)
            left = f"a {inner} b"
            if LEVEL_OF[inner] < LEVEL_OF[outer]:
                left = f"({left})"
            right_nested = Binary(outer, A, Binary(inner, B, C))
            right = f"b {inner} c"
            if LEVEL_OF[inner] <= LEVEL_OF[outer]:
                right = f"({right})"
            for expr, text in ((left_nested, f"{left} {outer} c"),
                               (right_nested, f"a {outer} {right}")):
                assert render_expr(expr) == text
                assert parse_expression(text) == expr

    @pytest.mark.parametrize("op", list(LEVEL_OF))
    def test_unary_operands(self, op):
        for unary in ("!", "-"):
            cases = [
                (Binary(op, Unary(unary, A), Unary(unary, B)), f"{unary}a {op} {unary}b"),
                (Unary(unary, Binary(op, A, B)), f"{unary}(a {op} b)"),
                (Unary(unary, Unary(unary, A)), f"{unary}{unary}a"),
            ]
            for expr, text in cases:
                assert render_expr(expr) == text
                assert parse_expression(text) == expr


class TestExecution:
    def test_gcd_of_zero_hand_trace(self, gcd_program):
        # gcd(0, 6): product is 0, the condition is true, result |0| + |6|.
        result = execute(gcd_program, "gcd", [0, 6])
        assert result.value == 6
        assert result.hits[1] == 1
        assert result.cond_values[1] == [True]

    def test_gcd_coprime(self, gcd_program):
        assert execute(gcd_program, "gcd", [3, 5]).value == 1

    def test_overflow_reproduces_the_bug(self, gcd_program):
        result = execute(gcd_program, "gcd", [BIG, BIG])
        assert result.value == 2 * BIG  # |u| + |v| instead of gcd

    def test_determinism(self, gcd_program):
        a = execute(gcd_program, "gcd", [12, 18])
        b = execute(gcd_program, "gcd", [12, 18])
        assert (a.value, a.hits, a.cond_values) == (b.value, b.hits, b.cond_values)

    def test_division_by_zero_is_captured(self):
        program = parse_program("fn f(x: int) -> int { return 1 / x; }")
        result = execute(program, "f", [0])
        assert result.error == "DivisionByZero"
        assert result.value is None

    def test_step_budget_flags_timeout(self):
        program = parse_program(
            "fn f() -> int { while (true) { let x: int = 1; } return 0; }"
        )
        result = execute(program, "f", [], step_budget=500)
        assert result.timed_out
        assert result.error == "TimeoutDuringExecution"

    def test_missing_return(self):
        program = parse_program("fn f(b: bool) -> int { if (b) { return 1; } }")
        assert execute(program, "f", [False]).error == "MissingReturn"

    def test_thrown_error_is_a_value_not_an_exception(self):
        program = parse_program("fn f() -> int { throw Boom; }")
        result = execute(program, "f", [])
        assert result.error == "Boom"


class TestControls:
    def test_override_forces_every_evaluation(self, gcd_program):
        controls = ExecutionControls(condition_overrides={1: True})
        result = execute(gcd_program, "gcd", [3, 5], controls)
        # forced true on a nonzero pair takes the early-return branch
        assert result.value == 8
        assert result.cond_values[1] == [True]

    def test_override_repairs_the_overflow_case(self, gcd_program):
        controls = ExecutionControls(condition_overrides={1: False})
        assert execute(gcd_program, "gcd", [BIG, BIG], controls).value == BIG

    def test_skip_removes_hit_and_effect(self):
        program = parse_program(
            "fn f() -> int { let x: int = 1; x = x + 10; return x; }"
        )
        controls = ExecutionControls(skip_set=frozenset({2}))
        result = execute(program, "f", [], controls)
        assert result.value == 1
        assert 2 not in result.hits

    def test_skip_only_applies_to_plain_statements(self, gcd_program):
        with pytest.raises(ControlError):
            execute(gcd_program, "gcd", [1, 2], ExecutionControls(skip_set=frozenset({1})))

    def test_probe_snapshot_contents(self, probe_program):
        controls = ExecutionControls(probes=frozenset({1}))
        result = execute(probe_program, "peek", [3, Obj("Str", "abc")], controls)
        snapshot = result.snapshots[1][0]
        assert snapshot.values["n"] == 3
        assert snapshot.null_flags["s"] is False
        assert snapshot.queries["s.length()"] == 3
        assert snapshot.queries["s.isEmpty()"] is False

    def test_probe_capture_precedes_the_statement(self, probe_program):
        controls = ExecutionControls(probes=frozenset({2}))
        result = execute(probe_program, "peek", [4, Obj("Str", "")], controls)
        assert result.snapshots[2][0].values["doubled"] == 8


STEPS_FIXTURE = """\
const K: int = 5;

fn f(x: int, y: int, b: bool, s: Str) -> int {
  BODY
}

fn g(n: int) -> int {
  return n;
}
"""


def run_body(body, controls=None, step_budget=1000):
    """Execute ``body`` as the body of f(3, 4, true, "ab")."""
    program = parse_program(STEPS_FIXTURE.replace("BODY", body))
    return execute(program, "f", [3, 4, True, Obj("Str", "ab")], controls, step_budget)


class TestStepAccounting:
    """One step per statement entry and per expression node; ``return e``
    costs one step plus the nodes of ``e``."""

    @pytest.mark.parametrize("expr, steps", [
        ("7", 2), ("2.5", 2), ("true", 2), ("null", 2),
        ("x", 2), ("K", 2),
        ("-x", 3), ("!b", 3),
        ("false && b", 3), ("true && b", 4), ("true || b", 3), ("false || b", 4),
        ("x + y", 4), ("x < y", 4), ("x == y", 4), ("(x + y) * (x - 1)", 8),
        ("s.length()", 3),  # the call and its receiver variable
        ("g(x)", 5),  # call, argument, and g's return of its parameter
    ])
    def test_return_of_expression(self, expr, steps):
        result = run_body(f"return {expr};")
        assert result.error is None
        assert result.steps == steps

    def test_if_statement(self):
        # if, its condition, then the return in the taken branch
        assert run_body("if (b) { return 1; } return 2;").steps == 4
        assert run_body("if (!b) { return 1; } return 2;").steps == 5

    @pytest.mark.parametrize("iterations, steps", [(0, 8), (1, 16), (3, 32)])
    def test_while_loop(self, iterations, steps):
        # let (2) + entry (1) + 3 per condition check + 4 per body run
        # + 1 per finished body run + return (2)
        result = run_body(
            f"let i: int = 0; while (i < {iterations}) {{ i = i + 1; }} return i;"
        )
        assert result.value == iterations
        assert result.steps == steps

    def test_skipped_statement_takes_no_step(self):
        body = "let z: int = 1; z = z + 10; return z;"
        assert run_body(body).steps == 8
        skipped = run_body(body, ExecutionControls(skip_set=frozenset({2})))
        assert (skipped.value, skipped.steps) == (1, 4)

    def test_forced_condition_is_not_evaluated(self):
        forced = run_body("if (x < y) { return 1; } return 2;",
                          ExecutionControls(condition_overrides={1: False}))
        assert (forced.value, forced.steps) == (2, 3)

    def test_type_mismatch_fires_after_both_operands(self):
        # return, outer +, inner +, x, b: the right operand never runs
        result = run_body("return (x + b) + (y * 1000);")
        assert (result.error, result.steps) == ("TypeMismatch", 5)

    @pytest.mark.parametrize("budget", [1, 7, 100])
    def test_timeout_fires_on_the_step_after_the_budget(self, budget):
        result = run_body("while (true) { x = x + 1; } return x;", step_budget=budget)
        assert result.timed_out and result.error == "TimeoutDuringExecution"
        assert result.steps == budget + 1


FACT = """\
fn fact(n: int) -> int {
  if (n < 0) {
    return 1;
  }
  return n * fact(n - 1);
}
"""


NESTED_DOWN = (
    "fn down(n: int) -> int { "
    + "if (n > -1000) { " * 40 + "return 1 + down(n - 1);" + " }" * 40
    + " return 0; }"
)


class TestCallDepth:
    def test_unbounded_recursion_times_out(self):
        controls = ExecutionControls(condition_overrides={1: False})
        result = execute(parse_program(FACT), "fact", [3], controls)
        assert result.timed_out and result.error == "TimeoutDuringExecution"
        assert result.hits[1] == MAX_CALL_DEPTH

    def test_recursion_within_the_limit_runs(self):
        program = parse_program(FACT)
        assert execute(program, "fact", [MAX_CALL_DEPTH - 2]).error is None

    def test_recursion_in_nested_blocks_times_out(self):
        # Deep block nesting per call can use up Python's stack before the
        # call-depth limit; the run still ends as an exhausted budget.
        program = parse_program(NESTED_DOWN)
        result = execute(program, "down", [5])
        assert result.timed_out and result.error == "TimeoutDuringExecution"

    def test_nested_recursion_stops_at_the_same_point_at_any_stack_depth(self):
        # Each call reserves its body's closure-nesting depth, so the run
        # ends on the call-depth budget, never on Python's recursion limit.
        program = parse_program(NESTED_DOWN)

        def run_below(extra_frames):
            if extra_frames:
                return run_below(extra_frames - 1)
            result = execute(program, "down", [5])
            return result.error, result.steps, result.hits

        shallow = run_below(0)
        assert shallow[0] == "TimeoutDuringExecution"
        assert run_below(200) == shallow


class TestCompiledCache:
    def test_reindex_after_in_place_edit_takes_effect(self, gcd_program):
        assert execute(gcd_program, "gcd", [BIG, BIG]).value == 2 * BIG
        gcd_program.statement_at(1).cond = parse_expression("u == 0 || v == 0")
        gcd_program.reindex()
        assert execute(gcd_program, "gcd", [BIG, BIG]).value == BIG

    def test_clone_starts_uncompiled(self, gcd_program):
        execute(gcd_program, "gcd", [1, 2])
        assert gcd_program.compiled is not None
        assert gcd_program.clone().compiled is None

    def test_concurrent_runs_share_the_compiled_program(self):
        # Threads start on an uncompiled program, so they race to lower it
        # and then share its closures; every run must match a lone run.
        points = [(u, v) for u in range(-4, 5) for v in (0, 6, BIG)]
        lone = parse_program(GCD_BUGGY)
        expected = [(r.value, r.steps, r.hits) for r in
                    (execute(lone, "gcd", list(p)) for p in points)]
        shared = parse_program(GCD_BUGGY)
        results = {}

        def worker(n):
            results[n] = [(r.value, r.steps, r.hits) for r in
                          (execute(shared, "gcd", list(p)) for p in points * 5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(results[n] == expected * 5 for n in range(8))


class TestPatching:
    def test_condition_update_matches_fixed_gcd(self, gcd_program):
        patch = Patch(PatchKind.CONDITION_UPDATE, 1, parse_expression("u == 0 || v == 0"))
        fixed = apply_patch(gcd_program, patch)
        assert execute(fixed, "gcd", [BIG, BIG]).value == BIG
        assert execute(fixed, "gcd", [0, 6]).value == 6
        assert "u == 0 || v == 0" in render_program(fixed)

    def test_precondition_wraps_statement(self):
        program = parse_program(
            "fn f(specific: Str) -> int {\n"
            "  let n: int = 0;\n"
            "  n = n + 2;\n"
            "  return n;\n"
            "}\n"
        )
        patch = Patch(
            PatchKind.PRECONDITION_ADDITION, 2, parse_expression("specific != null")
        )
        fixed = apply_patch(program, patch)
        assert "if (specific != null) {" in render_program(fixed)
        from condfix.minilang import NULL

        assert execute(fixed, "f", [NULL]).value == 0
        assert execute(fixed, "f", [Obj("Str", "x")]).value == 2

    def test_kind_mismatch_rejected(self, gcd_program):
        patch = Patch(PatchKind.PRECONDITION_ADDITION, 1, parse_expression("u == 0"))
        with pytest.raises(KindMismatchError):
            apply_patch(gcd_program, patch)

    def test_out_of_scope_name_rejected(self, gcd_program):
        patch = Patch(PatchKind.CONDITION_UPDATE, 1, parse_expression("w == 0"))
        with pytest.raises(PatchScopeError):
            apply_patch(gcd_program, patch)

    def test_locations_stable_after_condition_update(self, gcd_program):
        patch = Patch(PatchKind.CONDITION_UPDATE, 1, parse_expression("u == 0"))
        fixed = apply_patch(gcd_program, patch)
        assert fixed.locations() == gcd_program.locations()

    def test_precondition_moves_only_the_wrapped_statement(self, gcd_program):
        patch = Patch(PatchKind.PRECONDITION_ADDITION, 3, parse_expression("u == 0"))
        fixed = apply_patch(gcd_program, patch)
        assert fixed.kind_of(3) == StatementKind.IF
        assert set(fixed.locations()) == set(gcd_program.locations()) | {13}
