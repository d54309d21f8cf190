"""Parser, interpreter, decisions, probes, and patching."""
import dataclasses
import gc
import random
import re
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from condfix.corpus import (
    builtin_seeded_bundles, default_corpus_dir, load_bundle, load_corpus, run_harness,
)
from condfix.errors import (
    CondfixError, DeadlineExceeded, KindMismatchError, MiniLangSyntaxError, PatchScopeError,
    ResolutionError,
)
from condfix.minilang import (
    INT_MAX, INT_MIN, NULL, SKIP, AssignStmt, Binary, BoolLit, CallStmt, IfStmt, LetStmt, Obj,
    Patch, PatchKind, Program, StatementKind, Unary, VarRef, apply_patch, decide, execute, parse_expression,
    format_real, parse_program, parse_value_literal, probe, render_expr, render_program,
    shadow_merge, wrap_int,
)
from condfix.minilang import interp
from condfix.minilang.ast import BLOCKS, depth
from condfix.minilang.interp import CALL_FRAMES, MAX_CALL_DEPTH, _Lowering
from condfix.minilang.lexer import tokenize
from condfix.minilang.parser import MAX_INT_DIGITS, MAX_NESTING
from condfix.synth import REAL
from condfix.synth.smtlib import _smt_literal
from condfix.testkit import parse_suite, render_suite
from conftest import CALLS, GCD_BUGGY
from test_reference_eval import BUDGET, COMPARISONS, LOOPS, edits, loop_variants
from test_reference_eval import check as check_reference

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

    def test_render_then_parse_gives_an_equal_program(self):
        # A program equals another with equal consts and functions.
        bundles = load_corpus(default_corpus_dir()) + builtin_seeded_bundles()
        assert len(bundles) == 18
        for bundle in bundles:
            assert parse_program(render_program(bundle.program)) == bundle.program, bundle.id


# The lexer's contract: each text gives these (kind, text, line, column)
# tokens, eof last, or raises this (message, line, column).
LEXER_CASES = {
    "1..5": [("int", "1", 1, 1), ("op", ".", 1, 2), ("op", ".", 1, 3), ("int", "5", 1, 4),
             ("eof", "", 1, 5)],
    "-12..12": [("op", "-", 1, 1), ("int", "12", 1, 2), ("op", ".", 1, 4), ("op", ".", 1, 5),
                ("int", "12", 1, 6), ("eof", "", 1, 8)],
    "1.e5": [("int", "1", 1, 1), ("op", ".", 1, 2), ("ident", "e5", 1, 3), ("eof", "", 1, 5)],
    "1e": [("int", "1", 1, 1), ("ident", "e", 1, 2), ("eof", "", 1, 3)],
    "1.5e+3": [("real", "1.5e+3", 1, 1), ("eof", "", 1, 7)],
    "1e5 2E-3 0.25": [("real", "1e5", 1, 1), ("real", "2E-3", 1, 5), ("real", "0.25", 1, 10),
                      ("eof", "", 1, 14)],
    "if x1 _y": [("keyword", "if", 1, 1), ("ident", "x1", 1, 4), ("ident", "_y", 1, 7),
                 ("eof", "", 1, 9)],
    "x<=-1->y": [("ident", "x", 1, 1), ("op", "<=", 1, 2), ("op", "-", 1, 4), ("int", "1", 1, 5),
                 ("op", "->", 1, 6), ("ident", "y", 1, 8), ("eof", "", 1, 9)],
    "a | b || c": [("ident", "a", 1, 1), ("op", "|", 1, 3), ("ident", "b", 1, 5),
                   ("op", "||", 1, 7), ("ident", "c", 1, 10), ("eof", "", 1, 11)],
    '"\\\\ \\" \\n \\t \\q \\u{41}"': [("string", '\\ " \n \t q A', 1, 1), ("eof", "", 1, 24)],
    '"\\u{0}"': [("string", "\0", 1, 1), ("eof", "", 1, 8)],
    '"\\u{10FFFF}"': [("string", "\U0010ffff", 1, 1), ("eof", "", 1, 13)],
    'x "\\u{110000}"': ("bad \\u{hex} escape in string literal", 1, 3),
    'x "\\u{d800}"': ("bad \\u{hex} escape in string literal", 1, 3),
    'x "\\u41"': ("bad \\u{hex} escape in string literal", 1, 3),
    'x\n "a\nb"': ("unterminated string literal", 2, 2),
    'x\n "a\\\nb"': ("unterminated string literal", 2, 2),
    '"a\\"': ("unterminated string literal", 1, 1),
    '"\\u{d800}': ("unterminated string literal", 1, 1),
    "a # b\nc // d": [("ident", "a", 1, 1), ("ident", "c", 2, 1), ("eof", "", 2, 7)],
    "#x": [("eof", "", 1, 3)],
    "a\r\nb": [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 2, 2)],
    "\ta\tb": [("ident", "a", 1, 2), ("ident", "b", 1, 4), ("eof", "", 1, 5)],
    "a\x0cb": ("unexpected character '\\x0c'", 1, 2),
    "té": ("unexpected character 'é'", 1, 2),
    "1²": ("unexpected character '²'", 1, 2),
    "١٢": ("unexpected character '١'", 1, 1),
    '"té²" # é': [("string", "té²", 1, 1), ("eof", "", 1, 10)],
}

# Literals no value can come from: a character outside the ASCII grammar,
# an int longer than MAX_INT_DIGITS, a real that overflows to inf (which
# format_real would write as the identifier ``inf``).
NO_VALUE = {
    "superscript": ("²", "unexpected character '²'"),
    "arabic-indic": ("١٢", "unexpected character '١'"),
    "5000-digits": ("9" * 5000, "int literal longer than 4300 digits"),
    "1e999": ("1e999", "real literal out of range"),
}

# Pieces of programs, suites and literals, for texts that are almost input.
FRAGMENTS = [
    "fn ", "f", "(", ")", "x", ":", " int", " Str", "->", "{", "}", "return ", ";", "let ",
    "if ", "while ", "const ", "=", "==", "&&", "!", "-", "+", "null", "true", "1", "9" * 30,
    "9" * 4301, "1e999", "1e-999", "2.5", ".", "..", "|", '"', "\\", "u{", "d800", "110000",
    "Str(", "²", "١", "é", "\n", "#", " ", "error ",
]


class TestLexer:
    @pytest.mark.parametrize("text, expected", LEXER_CASES.items(), ids=map(repr, LEXER_CASES))
    def test_contract(self, text, expected):
        if isinstance(expected, list):
            assert tokenize(text) == expected
        else:
            with pytest.raises(MiniLangSyntaxError) as err:
                tokenize(text)
            message = str(err.value).rsplit(" (line", 1)[0]
            assert (message, err.value.line, err.value.column) == expected

    @pytest.mark.parametrize("literal, message", NO_VALUE.values(), ids=NO_VALUE)
    def test_a_literal_with_no_value_is_a_syntax_error_at_its_position(self, literal, message):
        with pytest.raises(MiniLangSyntaxError, match=message) as err:
            parse_program(f"fn f(x: int) -> int {{\n  return {literal};\n}}\n")
        assert (err.value.line, err.value.column) == (2, 10)
        with pytest.raises(MiniLangSyntaxError, match=message) as err:
            parse_expression(f"x + {literal}")
        assert (err.value.line, err.value.column) == (1, 5)
        with pytest.raises(MiniLangSyntaxError, match=message) as err:
            parse_value_literal(f"-{literal}")
        assert (err.value.line, err.value.column) == (1, 2)

    def test_the_longest_int_literal_wraps(self):
        text = "7" * MAX_INT_DIGITS
        assert parse_value_literal(text) == wrap_int(int(text))
        assert parse_value_literal("-" + text) == wrap_int(-int(text))

    def test_every_parse_entry_raises_only_condfix_errors(self):
        rng = random.Random(19)
        programs = [render_program(b.program) for b in load_corpus(default_corpus_dir())]
        for _ in range(1500):
            junk = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randrange(25)))
            program = rng.choice(programs)
            at = rng.randrange(len(program) + 1)
            for text in (junk, program[:at] + junk + program[at:]):
                for parse in (parse_program, parse_expression, parse_value_literal,
                              lambda t: parse_suite("t: " + t)):
                    try:
                        parse(text)
                    except CondfixError:
                        pass


# Reals and the text every writer gives them: the shortest digits that read
# back as the same double, never an exponent.
REAL_TEXTS = {
    1e-07: "0.0000001",
    -1e-07: "-0.0000001",
    1.2345e-05: "0.000012345",
    1e16: "10000000000000000.0",
    5e-324: "0." + "0" * 323 + "5",
    1.7976931348623157e308: "17976931348623157" + "0" * 292 + ".0",
}


class TestRealFormat:
    @pytest.mark.parametrize("value, text", REAL_TEXTS.items(), ids=map(repr, REAL_TEXTS))
    def test_every_writer_keeps_the_value(self, value, text):
        assert format_real(value) == text
        assert parse_value_literal(text) == value
        program = parse_program(f"const EPS: real = {text};\nfn f() -> real {{ return EPS; }}")
        assert f"const EPS: real = {text};" in render_program(program)
        suite = parse_suite(f"t: f() -> {text}\n")
        assert suite[0].expected_value == value and render_suite(suite) == f"t: f() -> {text}\n"
        assert _smt_literal(value, REAL) == (f"(- {text[1:]})" if value < 0 else text)


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
        snapshots = execute(probe(gcd_program, 1), "gcd", [0, 6]).snapshots
        assert [s.condition for s in snapshots] == [True]

    def test_gcd_coprime(self, gcd_program):
        assert execute(gcd_program, "gcd", [3, 5]).value == 1

    def test_overflow_reproduces_the_bug(self, gcd_program):
        result = execute(gcd_program, "gcd", [BIG, BIG])
        assert result.value == 2 * BIG  # |u| + |v| instead of gcd

    def test_determinism(self, gcd_program):
        a = execute(gcd_program, "gcd", [12, 18])
        b = execute(gcd_program, "gcd", [12, 18])
        assert (a.value, a.hits, a.steps) == (b.value, b.hits, b.steps)

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
    """Decisions and the probe are program edits (``decide``, ``probe``)."""

    def test_override_forces_every_evaluation(self, gcd_program):
        result = execute(probe(decide(gcd_program, 1, True), 1), "gcd", [3, 5])
        # forced true on a nonzero pair takes the early-return branch
        assert result.value == 8
        assert [s.condition for s in result.snapshots] == [True]

    def test_override_repairs_the_overflow_case(self, gcd_program):
        assert execute(decide(gcd_program, 1, False), "gcd", [BIG, BIG]).value == BIG

    def test_skip_removes_hit_and_effect(self):
        program = parse_program(
            "fn f() -> int { let x: int = 1; x = x + 10; return x; }"
        )
        result = execute(decide(program, 2, SKIP), "f", [])
        assert result.value == 1
        assert 2 not in result.hits

    def test_skip_only_applies_to_plain_statements(self, gcd_program):
        with pytest.raises(KindMismatchError):
            decide(gcd_program, 1, SKIP)
        with pytest.raises(KindMismatchError):
            decide(gcd_program, 3, True)
        with pytest.raises(KindMismatchError):
            decide(gcd_program, 5, False)  # a loop condition is never forced

    def test_probe_snapshot_contents(self, probe_program):
        # Values only: trace.collect derives nullness and state queries
        # (pinned by test_trace.py::TestObjectColumns).
        result = execute(probe(probe_program, 1), "peek", [3, Obj("Str", "abc")])
        [snapshot] = result.snapshots
        assert snapshot.values == {"n": 3, "s": Obj("Str", "abc")}
        assert snapshot.condition is None  # not an if

    def test_probe_capture_precedes_the_statement(self, probe_program):
        result = execute(probe(probe_program, 2), "peek", [4, Obj("Str", "")])
        assert result.snapshots[0].values["doubled"] == 8

    PARITY = parse_program(
        "fn f(n: int) -> int { let i: int = 0; let c: int = 0; "
        "while (i < n) { if (i % 2 == 0) { c = c + 1; } i = i + 1; } return c; }"
    )

    def test_a_probed_if_stores_its_condition_for_each_evaluation(self):
        result = execute(probe(self.PARITY, 4), "f", [5])
        assert result.value == 3
        assert [s.values["i"] for s in result.snapshots] == [0, 1, 2, 3, 4]
        assert [s.condition for s in result.snapshots] == [True, False, True, False, True]

    def test_a_probed_while_snapshots_once_on_entry(self):
        result = execute(probe(self.PARITY, 3), "f", [5])
        assert [s.values["i"] for s in result.snapshots] == [0]
        assert result.hits[3] == 1  # a while counts its hit on entry, too

    def test_a_probed_if_whose_condition_ends_the_run_stores_none(self):
        program = parse_program("fn f(x: int) -> int { if (1 / x > 0) { return 1; } return 0; }")
        result = execute(probe(program, 1), "f", [0])
        assert result.error == "DivisionByZero"
        assert [s.condition for s in result.snapshots] == [None]

    def test_probe_copies_the_path_and_compares_equal(self, gcd_program):
        probed = probe(gcd_program, 4)
        assert probed.statement_at(4).probe and not gcd_program.statement_at(4).probe
        assert probed.statement_at(1) is gcd_program.statement_at(1)
        assert probed.functions == gcd_program.functions
        assert repr(probed.statement_at(4)) == repr(gcd_program.statement_at(4))
        with pytest.raises(KeyError):
            probe(gcd_program, 99)


STEPS_FIXTURE = """\
const K: int = 5;

fn f(x: int, y: int, b: bool, s: Str) -> int {
  BODY
}

fn g(n: int) -> int {
  return n;
}
"""


def run_body(body, decision=None, step_budget=1000):
    """Execute ``body`` as the body of f(3, 4, true, "ab"), with the
    ``(location, decision)`` pair ``decision`` applied if given, and check
    the run against the reference evaluator."""
    program = parse_program(STEPS_FIXTURE.replace("BODY", body))
    if decision is not None:
        program = decide(program, *decision)
    args = [3, 4, True, Obj("Str", "ab")]
    check_reference(program, "f", args, step_budget)
    return execute(program, "f", args, step_budget=step_budget)


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
        ("s == s", 4),
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
        skipped = run_body(body, (2, SKIP))
        assert (skipped.value, skipped.steps) == (1, 4)

    def test_forced_condition_is_not_evaluated(self):
        forced = run_body("if (x < y) { return 1; } return 2;", (1, False))
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

    @pytest.mark.parametrize("function, args, message", [
        ("h", [3], "undefined function 'h'"),
        ("g", [3, 4], "g\\(\\) takes 1 arguments, got 2"),
    ], ids=["undefined-function", "wrong-arity"])
    def test_a_call_the_program_cannot_make_is_a_value_error(self, function, args, message):
        program = parse_program(STEPS_FIXTURE.replace("BODY", "return x;"))
        with pytest.raises(ValueError, match=message):
            execute(program, function, args)


FUSED_FIXTURE = """\
const K: int = 5;
const H: real = 0.5;
const T: bool = true;

fn f(x: int, y: int, r: real, b: bool, s: Str) -> int {
  BODY
}
"""
TIMEOUT = "TimeoutDuringExecution"
NAN = float("nan")


def run_fused(body, x=3, y=4, r=1.5, step_budget=1000, unbound=()):
    """Execute ``body`` as the body of f(x, y, r, true, null), and check the
    run against the reference evaluator. The parameters named in
    ``unbound`` are dropped from f and its call, so reading or assigning
    them fails at run time as the resolver would not let it."""
    program = parse_program(FUSED_FIXTURE.replace("BODY", body))
    fn = program.functions["f"]
    kept = [(p, a) for p, a in zip(fn.params, [x, y, r, True, NULL]) if p.name not in unbound]
    fn = dataclasses.replace(fn, params=tuple(p for p, _ in kept))
    program = Program(program.consts, {"f": fn})
    args = [a for _, a in kept]
    check_reference(program, "f", args, step_budget)
    result = execute(program, "f", args, step_budget=step_budget)
    return result.value, result.error, result.timed_out, result.steps


def run_return(expr, **kwargs):
    return run_fused(f"return {expr};", **kwargs)


# The operators of the pair rule that fused expression trees replaced; of
# them, only the comparisons fused into a condition.
PAIR_OPERATORS = ("<", "<=", ">", ">=", "==", "!=", "+", "-", "*")


def is_pair(shape, condition=False):
    """Whether a tree shape is a pair as the pair rule fused it: a frame
    variable on the left, a variable or an int or real constant on the
    right."""
    operators = PAIR_OPERATORS[:6] if condition else PAIR_OPERATORS
    return (shape is not None and shape[0] == "binary" and shape[1] in operators
            and shape[2] == ("slot",) and shape[3] in (("slot",), ("const", "int"),
                                                       ("const", "float")))


class TestFusedOperands:
    """A pure expression tree (here mostly a binary node over a variable
    and a variable or constant) runs as one generated function, or in line
    in its statement; every outcome must match the closures' step
    accounting: in ``return expr;`` step 1 is the return, steps 2-4 the
    node and its two operands."""

    @pytest.mark.parametrize("expr, pair", [
        ("x < y", True), ("x + 1", True), ("x - K", True), ("r * H", True),
        ("r >= 0.5", True), ("x == y", True), ("x != 0", True), ("s == x", True),
        ("x / y", False), ("x % 2", False), ("1 + x", False), ("K < x", False),
        ("x < -1", False), ("b == true", False), ("x < y + 1", False), ("b == T", False),
    ])
    def test_which_nodes_fuse(self, expr, pair):
        # Every node here is a pure tree: the expression lowers to a
        # generated function and the let to a generated store, whether or
        # not the pair rule fused it; the pairs are the two-leaf trees.
        body = f"let z: int = {expr}; return {expr};"
        program = parse_program(FUSED_FIXTURE.replace("BODY", body))
        let, ret = program.functions["f"].body
        lowering = _Lowering(program)
        assert lowering.expr(ret.value).__name__ == "tree"
        assert lowering.stmt(ret).__name__ == "tree"
        assert lowering.stmt(let).__name__ == "fused_store"
        assert is_pair(lowering.tree(let.value, [])) == pair

    @pytest.mark.parametrize("body, pair", [
        ("let z: int = x + 1; return z;", True), ("x = y * K; return x;", True),
        ("if (x < y) { return 1; } return 2;", True), ("while (r != H) { r = H; } return 1;", True),
        ("let z: int = x / y; return z;", False), ("x = 1 + y; return x;", False),
        ("if (x + y) { return 1; } return 2;", False), ("if (b) { return 1; } return 2;", False),
        ("while (x < y && b) { x = y; } return 1;", False),
    ])
    def test_which_statements_fuse(self, body, pair):
        # A statement fuses when its value or condition is a pure tree
        # whose root is an operator: all of these but ``if (b)``, the pairs
        # and the trees the pair rule left to closures alike.
        program = parse_program(FUSED_FIXTURE.replace("BODY", body))
        stmt = program.functions["f"].body[0]
        store = isinstance(stmt, (LetStmt, AssignStmt))
        shape = _Lowering(program).tree(stmt.value if store else stmt.cond, [])
        closure = _Lowering(program).stmt(stmt)
        assert closure.__name__.startswith("fused") == (shape is not None)
        assert is_pair(shape, condition=not store) == pair
        # a probed if runs its condition's tree under a snapshot wrapper
        if shape is not None and isinstance(stmt, IfStmt):
            probed = probe(program, stmt.loc).functions["f"].body[0]
            assert not _Lowering(program).stmt(probed).__name__.startswith("fused")

    # (body, x, y, r, the full run's value, error and steps)
    STATEMENTS = [
        ("let z: int = x + y; return z;", 3, 4, 1.5, 7, None, 6),
        ("x = x - K; return x;", 3, 4, 1.5, -2, None, 6),
        ("x = y * 2; return x;", 3, 4, 1.5, 8, None, 6),
        ("r = r * H; return 1;", 3, 4, 1.5, 1, None, 6),
        ("if (x < y) { return 1; } return 2;", 3, 4, 1.5, 1, None, 6),
        ("if (x >= K) { return 1; } return 2;", 3, 4, 1.5, 2, None, 6),
        ("while (x < y) { x = x + 1; } return x;", 3, 5, 1.5, 5, None, 22),
        # mixed int and real, and bool, operands: the closures decide
        ("let z: int = x + r; return z;", 3, 4, 1.5, None, "TypeMismatch", 4),
        ("x = x * r; return x;", 3, 4, 1.5, None, "TypeMismatch", 4),
        ("if (x < r) { return 1; } return 2;", 3, 4, 1.5, None, "TypeMismatch", 4),
        ("while (r >= x) { r = H; } return 1;", 3, 4, 1.5, None, "TypeMismatch", 4),
        ("if (b == b) { return 1; } return 2;", 3, 4, 1.5, 1, None, 6),
        ("while (b != b) { b = true; } return 1;", 3, 4, 1.5, 1, None, 6),
        ("let z: bool = b == b; return 1;", 3, 4, 1.5, 1, None, 6),
        # an int result out of range is assigned wrapped
        ("x = x + 1; return x;", INT_MAX, 4, 1.5, INT_MIN, None, 6),
        ("let z: int = x * y; return z;", INT_MAX, 2, 1.5, -2, None, 6),
        # NaN compares false, except with !=
        ("if (r < H) { return 1; } return 2;", 3, 4, NAN, 2, None, 6),
        ("if (r != r) { return 1; } return 2;", 3, 4, NAN, 1, None, 6),
        ("while (r >= H) { r = H; } return 1;", 3, 4, NAN, 1, None, 6),
        ("while (r != r) { r = H; } return 1;", 3, 4, NAN, 1, None, 12),
        # the condition changes type mid-loop: ints, then reals, then mixed
        ("while (x != y) { x = r; y = r; } return 1;", 3, 4, 1.5, 1, None, 14),
        ("while (x < y) { x = r; } return 1;", 3, 4, 1.5, None, "TypeMismatch", 10),
        # a condition that is not a tree, and trees whose closures decide
        ("if (b == T) { return 1; } return 2;", 3, 4, 1.5, 1, None, 6),
        ("while (b) { return x; } return 2;", 3, 4, 1.5, 3, None, 4),
        ("return -r;", 3, 4, 1.5, -1.5, None, 3),
        ("return -b;", 3, 4, 1.5, None, "TypeMismatch", 3),
        ("return !x;", 3, 4, 1.5, None, "TypeMismatch", 3),
        ("return x || b;", 3, 4, 1.5, None, "TypeMismatch", 3),
        ("let t: Str = x; return t.length();", 3, 4, 1.5, None, "TypeMismatch", 5),
        # a parameter is checked against its declared type before any step
        ("return x;", 1.5, 4, 1.5, None, "TypeMismatch", 0),
    ]

    @pytest.mark.parametrize("body, x, y, r, value, error, steps", STATEMENTS)
    def test_fused_statements_at_every_budget(self, body, x, y, r, value, error, steps):
        assert run_fused(body, x=x, y=y, r=r) == (value, error, False, steps)
        for budget in range(steps):
            assert run_fused(body, x=x, y=y, r=r, step_budget=budget) == (
                None, TIMEOUT, True, budget + 1)

    @pytest.mark.parametrize("body, unbound, steps", [
        # the target: after the node's three steps
        ("x = y + 1; return 0;", {"x"}, 4),
        ("x = y; return 0;", {"x"}, 2),
        # an operand: at its read
        ("x = x + 1; return 0;", {"x"}, 3),
        ("let z: int = x + y; return z;", {"y"}, 4),
        ("if (x < K) { return 1; } return 2;", {"x"}, 3),
        ("while (x != y) { x = y; } return 1;", {"y"}, 4),
    ])
    def test_unbound_statement_target_or_operand(self, body, unbound, steps):
        assert run_fused(body, unbound=unbound) == (None, "UnboundVariable", False, steps)
        for budget in range(steps):
            assert run_fused(body, unbound=unbound, step_budget=budget) == (
                None, TIMEOUT, True, budget + 1)

    def test_a_probed_fused_if_snapshots_and_stores_its_condition(self):
        program = parse_program(
            "fn f(n: int) -> int { let i: int = 0; let c: int = 0; "
            "while (i < n) { if (i != 2) { c = c + 1; } i = i + 1; } return c; }"
        )
        plain = execute(program, "f", [4])
        result = execute(probe(program, 4), "f", [4])
        assert (result.value, result.steps) == (plain.value, plain.steps) == (3, 70)
        assert [s.values["i"] for s in result.snapshots] == [0, 1, 2, 3]
        assert [s.condition for s in result.snapshots] == [True, True, False, True]

    @pytest.mark.parametrize("expr, value", [
        ("x < y", True), ("x + 1", 4), ("x - K", -2), ("r * H", 0.75),
        ("r <= r", True), ("x != y", True), ("x == 3", True), ("r / H", 3.0),
    ])
    @pytest.mark.parametrize("budget", [1, 2, 3, 4])
    def test_budget_ending_on_each_step_of_the_node(self, expr, value, budget):
        expected = (value, None, False, 4) if budget == 4 else (None, TIMEOUT, True, budget + 1)
        assert run_return(expr, step_budget=budget) == expected

    @pytest.mark.parametrize("expr, unbound, budget, expected", [
        ("x < y", {"x"}, 1000, (None, "UnboundVariable", False, 3)),
        ("x < y", {"y"}, 1000, (None, "UnboundVariable", False, 4)),
        ("x + 1", {"x"}, 1000, (None, "UnboundVariable", False, 3)),
        ("x < y", {"x"}, 2, (None, TIMEOUT, True, 3)),
        ("x < y", {"y"}, 3, (None, TIMEOUT, True, 4)),
    ])
    def test_unbound_operand(self, expr, unbound, budget, expected):
        assert run_return(expr, step_budget=budget, unbound=unbound) == expected

    @pytest.mark.parametrize("expr", [
        "x < r", "r + x", "x == r", "x < H", "r < K", "b < 1", "true < 1", "s < x",
        "r % H", "b == x", "b && x",
    ])
    def test_mismatched_operands(self, expr):
        assert run_return(expr) == (None, "TypeMismatch", False, 4)

    @pytest.mark.parametrize("expr, x, y, value", [
        ("x + 1", INT_MAX, 0, INT_MIN),
        ("x + y", INT_MAX, 1, INT_MIN),
        ("x - y", INT_MIN, 1, INT_MAX),
        ("x * y", INT_MAX, 2, -2),
    ])
    def test_int_results_wrap(self, expr, x, y, value):
        assert run_return(expr, x=x, y=y) == (value, None, False, 4)

    @pytest.mark.parametrize("expr, y, r", [
        ("x / y", 0, 1.5), ("x % y", 0, 1.5), ("x / 0", 4, 1.5), ("x % 0", 4, 1.5),
        ("r / r", 4, 0.0),
    ])
    def test_division_by_zero(self, expr, y, r):
        assert run_return(expr, y=y, r=r) == (None, "DivisionByZero", False, 4)

    @pytest.mark.parametrize("expr, r, value", [
        ("null == x", 1.5, False), ("s == x", 1.5, False), ("s != s", 1.5, False),
        ("r != r", NAN, True), ("r == r", NAN, False), ("r < r", NAN, False),
    ])
    def test_null_and_nan_operands(self, expr, r, value):
        assert run_return(expr, r=r) == (value, None, False, 4)


KEYWORDS = {"fn", "let", "if", "else", "while", "return", "int", "real", "bool", "const",
            "true", "false", "null", "length"}


def disguised(text):
    """``text`` with each identifier renamed, each ``1`` made ``12345`` and
    an unused function in front, so that its names, its constants and its
    locations all differ and its shapes do not."""
    text = re.sub(r"\b[a-z]\w*\b",
                  lambda m: m.group() if m.group() in KEYWORDS else f"zq_{m.group()}", text)
    text = re.sub(r"\b1\b", "12345", text)
    return "fn zq_unused(zq_u: int) -> int { let zq_v: int = zq_u; return zq_v; }\n" + text


# Pure trees over every kind of leaf and node: variables, literals, a
# program constant as an operand and as a receiver, null, method calls,
# logical and unary operators.
TREES = """\
const p: Str = Str("abc");
const k: int = 1;

fn f(x: int, y: int, r: real, b: bool, s: Str) -> int {
  let t: bool = x * y == 0 != (x == 0 || y == 0);
  let n: int = p.length() + x * k;
  if (!(s == null) && s.length() > 1) {
    n = -n % 2;
  }
  while (r * 1.5 <= r / 2.5 && !b) {
    r = r + 1.0;
  }
  return n;
}
"""

# Runs one corpus pass and 300 diverge repairs as the benchmark makes them,
# on a fresh import, and prints the shape cache's misses and size.
SHAPE_COUNT_CHILD = """
import sys, tempfile
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
api = workloads.import_condfix()
from condfix.minilang import interp
with tempfile.TemporaryDirectory() as workdir:
    corpus = workloads.Corpus(api, 1, Path(workdir))
    for bundle in next(corpus.groups()):
        corpus._harness(bundle)
    diverge = workloads.Diverge(api, 1, Path(workdir))
    groups = diverge.groups()
    for _ in range(300):
        diverge._repair(next(groups))
info = interp._make.cache_info()
print(info.misses, info.currsize)
"""


class TestShapeCache:
    """A generated function's source depends on its shape alone, and each
    shape is compiled once while it stays in a bounded cache."""

    @pytest.fixture
    def rendered(self, monkeypatch):
        sources, render = [], interp._render
        monkeypatch.setattr(interp, "_render", lambda shape: sources.append(render(shape))
                            or sources[-1])
        interp._make.cache_clear()
        yield sources
        interp._make.cache_clear()

    def test_one_entry_per_shape_whatever_the_names_constants_and_locations(self, rendered):
        for text in LOOPS.values():
            for comparison in COMPARISONS:
                for program in loop_variants(text, comparison):
                    interp._lowered(program)
        # per loop, a shape per comparison operator (<, <=, >, >=) and per
        # decided branch, except meet's two branches, each a ``+ 1`` store
        assert len(rendered) == interp._make.cache_info().currsize == 3 * (4 + 2) - 1
        first = list(rendered)
        for text in LOOPS.values():
            for comparison in COMPARISONS:
                for program in loop_variants(disguised(text), comparison):
                    interp._lowered(program)
        assert rendered == first  # no new shape
        for source in rendered:
            assert "zq_" not in source and "12345" not in source

    def test_trees_of_one_shape_share_one_entry_and_hold_no_name_or_literal(self, rendered):
        args = [3, 0, 0.5, False, Obj("Str", "ab")]
        check_reference(parse_program(TREES), "f", args, BUDGET)
        first = list(rendered)
        assert first and len(first) == interp._make.cache_info().currsize
        check_reference(parse_program(disguised(TREES)), "zq_f", args, BUDGET)
        assert rendered == first  # no new shape
        for source in rendered:
            assert not re.search(r"zq_|12345|abc|1\.5|2\.5|length", source), source

    def test_a_corpus_pass_and_300_diverge_repairs_stay_within_the_bound(self):
        root = Path(__file__).resolve().parent.parent
        child = subprocess.run(
            [sys.executable, "-B", "-c", SHAPE_COUNT_CHILD, str(root / "perfbench"),
             str(root / "src")], capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        misses, size = map(int, child.stdout.split())
        assert misses == size <= interp._SHAPES  # every shape compiled once

    def test_the_cache_stays_within_its_bound(self, rendered):
        stores = [f"i = i {op} {right};" for op in ("+", "-", "*", "<", "==")
                  for right in ("1", "0.5", "j")]
        bodies = [(s, t) for s in stores for t in stores][:interp._SHAPES + 20]
        for first, second in bodies:
            program = parse_program(
                f"fn f(i: int, j: int) -> int {{ while (i < 0) {{ {first} {second} }} return i; }}")
            assert execute(program, "f", [1, 2]).value == 1
        assert len(rendered) == len(bodies) > interp._SHAPES
        assert interp._make.cache_info().currsize == interp._make.cache_info().maxsize
        assert interp._make.cache_info().maxsize == interp._SHAPES


# Locations: constant 1-2, skipped 3-7, siblings 8-17, sum 18-22, scoped 23-28.
FRAMES = """\
const P: Str = Str("ab");

fn constant(x: int) -> int {
  let n: int = P.length();
  return n + x;
}

fn skipped(x: int) -> int {
  let y: int = x + 1;
  let z: int = 2;
  y = y * x;
  z = x - 1;
  return y + z;
}

fn siblings(x: int) -> int {
  let t: int = 0;
  if (x > 0) {
    let d: int = x * 2;
    t = t + d;
  } else {
    let d: int = 0 - x;
    t = t - d;
  }
  while (t > 10) {
    let d: int = t - 7;
    t = d;
  }
  return t;
}

fn sum(n: int) -> int {
  if (n <= 0) {
    return 0;
  }
  let m: int = n - 1;
  let rest: int = sum(m);
  return rest + n * m;
}

fn scoped(x: int) -> int {
  if (x > 0) {
    let a: int = x;
    x = a - 1;
  }
  if (x < 5) {
    x = x + 1;
  }
  return x;
}
"""
FRAME_CALLS = [("constant", [3]), ("skipped", [4]), ("siblings", [9]), ("siblings", [-4]),
               ("scoped", [3]), ("scoped", [-2]), ("sum", [4])]


class TestFrames:
    """A call's frame holds a slot per local name, numbered once per
    closure table; every run must still agree with the reference
    evaluator, which keeps a dict per call."""

    @pytest.mark.parametrize("function, args", FRAME_CALLS)
    def test_every_edit_agrees_with_the_reference(self, function, args):
        for edited in edits(parse_program(FRAMES)):
            check_reference(edited, function, args, BUDGET)

    def test_a_method_call_on_a_program_constant(self):
        program = parse_program(FRAMES)
        result = execute(program, "constant", [3])
        assert (result.value, result.steps, result.hits) == (5, 7, {1: 1, 2: 1})
        assert "P" not in program.slots

    @pytest.mark.parametrize("skip, steps", [(3, 5), (4, 12)])
    def test_a_skipped_let_leaves_its_slot_unbound(self, skip, steps):
        # skipping y's let fails at the read of y, z's at the store to z
        result = execute(decide(parse_program(FRAMES), skip, SKIP), "skipped", [4])
        assert (result.error, result.steps) == ("UnboundVariable", steps)

    @pytest.mark.parametrize("function, args, value", [
        ("siblings", [9], 4), ("siblings", [-4], -4), ("sum", [4], 20),
    ])
    def test_names_declared_in_sibling_blocks_and_recursive_calls(self, function, args, value):
        assert execute(parse_program(FRAMES), function, args).value == value

    def test_a_snapshot_holds_only_the_names_in_scope(self):
        # the first if's block declared a, and unbound it when it completed
        result = execute(probe(parse_program(FRAMES), 27), "scoped", [3])
        [snapshot] = result.snapshots
        assert snapshot.values == {"P": Obj("Str", "ab"), "x": 2}

    def test_a_base_runs_alike_before_and_after_its_skip_child(self):
        base = parse_program(FRAMES)
        child = decide(base, 24, SKIP)
        for program in (base, child, base):
            for function, args in FRAME_CALLS:
                check_reference(program, function, args, BUDGET)
        assert child.closures is base.closures and child.slots is base.slots
        assert execute(child, "scoped", [3]).error == "UnboundVariable"


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


class TestDeadline:
    """A run reads the clock each time its step count reaches a multiple
    of 4096; the loop's ``i < n`` and ``i = i + 1`` are fused nodes, so
    some reads fall inside one and make it fall back."""

    COUNT = parse_program(
        "fn f(n: int) -> int { let i: int = 0; while (i < n) { i = i + 1; } return i; }"
    )

    def test_a_passed_deadline_raises_at_the_first_clock_read(self):
        passed = time.monotonic() - 1.0
        # a run cut before step 4096 never reads the clock
        result = execute(self.COUNT, "f", [10_000], step_budget=4095, deadline=passed)
        assert result.timed_out and result.steps == 4096
        with pytest.raises(DeadlineExceeded):
            execute(self.COUNT, "f", [10_000], step_budget=4096, deadline=passed)

    @pytest.mark.parametrize("budget", [*range(4093, 4101), *range(8189, 8197), 1_000_000])
    def test_a_distant_deadline_changes_no_run(self, budget):
        def outcome(result):
            return (result.value, result.error, result.timed_out, result.steps,
                    result.hits, result.snapshots)

        distant = time.monotonic() + 3600.0
        probed = probe(self.COUNT, 3)
        plain = execute(probed, "f", [10_000], step_budget=budget)
        timed = execute(probed, "f", [10_000], step_budget=budget, deadline=distant)
        assert outcome(timed) == outcome(plain)


class TestCallDepth:
    def test_unbounded_recursion_times_out(self):
        result = execute(decide(parse_program(FACT), 1, False), "fact", [3])
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

    def test_a_forced_if_keeps_its_call_depth_reservation(self):
        # A forced if runs only its taken branch, but its depth still counts
        # the condition level and both branches: the deep branch not taken
        # lowers the number of calls before the call-depth budget runs out.
        program = parse_program(
            "fn down(n: int) -> int { if (n > -1000) { return 1 + down(n - 1); } else { "
            + "if (n > 0) { " * 20 + "return 0;" + " }" * 20 + " } return 0; }"
        )
        plain = execute(program, "down", [5])
        assert plain.timed_out and plain.hits[1] == 13 < MAX_CALL_DEPTH
        forced = execute(decide(program, 1, True), "down", [5])
        assert forced.timed_out and forced.hits == plain.hits
        # each call skips the condition's four steps
        assert forced.steps == plain.steps - 4 * 13

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

    @staticmethod
    def reservations(program):
        """The Python frames each call of each function reserves."""
        return {fn.name: max(1 + depth(fn.body), CALL_FRAMES)
                for fn in program.functions.values()}

    def test_probing_or_forcing_keeps_the_program_reservation(self):
        # The reservation is a property of the program, not of its lowering.
        # Over the packaged and seeded bundles a probe moves no reservation,
        # and a forced condition reserves what the literal condition `true`
        # does, though its if lowers to the taken branch alone. A forced
        # condition replaces the condition, so it lowers the reservation
        # where the condition was its function's deepest part.
        lowered = set()
        for bundle in load_corpus(default_corpus_dir()) + builtin_seeded_bundles():
            program = bundle.program
            expected = self.reservations(program)
            for loc in program.locations():
                assert self.reservations(probe(program, loc)) == expected, (bundle.id, loc)
                if program.kind_of(loc) != StatementKind.IF:
                    continue
                literal = Patch(PatchKind.CONDITION_UPDATE, loc, BoolLit(True))
                want = self.reservations(apply_patch(program, literal))
                for decision in (True, False):
                    forced = decide(program, loc, decision)
                    assert self.reservations(forced) == want, (bundle.id, loc)
                    assert self.reservations(probe(forced, loc)) == want, (bundle.id, loc)
                    assert all(want[name] <= expected[name] for name in want)
                if want != expected:
                    lowered.add((bundle.id, loc))
        assert lowered == {("cl4", 9), ("cm1", 5), ("pl3", 5), ("grade-m03", 2), ("grade-m04", 2)}

    @pytest.mark.parametrize("bundle, loc, function, before, after", [
        ("cm2", 12, "binomial", 10, 8), ("pm2", 4, "describe", 8, 6),
    ])
    def test_skipping_a_deep_statement_lowers_the_reservation(
        self, bundle, loc, function, before, after
    ):
        program = load_bundle(default_corpus_dir() / bundle).program
        assert self.reservations(program)[function] == before
        assert self.reservations(decide(program, loc, SKIP))[function] == after


class TestCallStatement:
    """A call used as a statement, and an else-if chain."""

    def test_parse_and_print_round_trip(self):
        program = parse_program(CALLS)
        assert isinstance(program.statement_at(4), CallStmt)
        assert program.statement_at(5).else_body == (program.statement_at(7),)
        text = render_program(program)
        assert "  check(x);\n" in text and "  } else {\n    if (x == 0) {\n" in text
        assert render_program(parse_program(text)) == text

    @pytest.mark.parametrize("x, value, error, steps, hits", [
        # the call statement's entry, its call and argument, then check's
        # if, condition (3) and return (2): 9 steps before sign's if
        (-3, -1, None, 16, {1: 1, 3: 1, 4: 1, 5: 1, 6: 1}),
        (0, 0, None, 19, {1: 1, 3: 1, 4: 1, 5: 1, 7: 1, 8: 1}),
        (2, 1, None, 19, {1: 1, 3: 1, 4: 1, 5: 1, 7: 1, 9: 1}),
        (5, None, "TooBig", 8, {1: 1, 2: 1, 4: 1}),
    ])
    def test_steps_and_hits(self, x, value, error, steps, hits):
        program = parse_program(CALLS)
        result = execute(program, "sign", [x])
        assert (result.value, result.error, result.steps, result.hits) == (value, error, steps, hits)

    @pytest.mark.parametrize("argument, frames, calls", [
        ("n - 1", 8, 75), ("n - 1 + 0 * (n - n)", 10, 60), ("-(-(-(-(n - 1))))", 12, 50),
    ])
    def test_call_depth_reservation(self, argument, frames, calls):
        # A call statement's frame holds its call expression's nesting, so a
        # deeper argument reserves more frames per call and allows fewer.
        program = parse_program(
            f"fn down(n: int) -> int {{\n  if (n > 0) {{\n    down({argument});\n  }}\n"
            "  return 0;\n}\n"
        )
        assert TestCallDepth.reservations(program) == {"down": frames}
        result = execute(program, "down", [500])
        assert result.timed_out and result.hits[1] == calls == MAX_CALL_DEPTH * CALL_FRAMES // frames


class TestCompiledCache:
    def test_nodes_are_frozen_and_blocks_are_tuples(self, gcd_program):
        # A program's closures are lowered once and its statements are
        # shared with patched children, so no node can be edited in place.
        with pytest.raises(dataclasses.FrozenInstanceError):
            gcd_program.statement_at(1).cond = parse_expression("u == 0 || v == 0")
        for fn in gcd_program.functions.values():
            assert isinstance(fn.params, tuple) and isinstance(fn.body, tuple)
            with pytest.raises(dataclasses.FrozenInstanceError):
                fn.params[0].name = "w"
        for loc in gcd_program.locations():
            stmt = gcd_program.statement_at(loc)
            with pytest.raises(dataclasses.FrozenInstanceError):
                stmt.loc = 0
            for name in BLOCKS.get(type(stmt), ()):
                assert isinstance(getattr(stmt, name), tuple)

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


class TestLifetime:
    """A program, its children and its closures form no reference cycle,
    so the last reference to a program frees it even without the cyclic
    garbage collector."""

    @pytest.fixture(autouse=True)
    def no_cyclic_gc(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    @staticmethod
    def assert_freed(make):
        ref = weakref.ref(make())
        assert ref() is None

    def test_a_parsed_program(self):
        self.assert_freed(lambda: parse_program(GCD_BUGGY))

    def test_a_program_that_ran_under_a_probe(self):
        def ran():
            program = probe(parse_program(GCD_BUGGY), 1)
            execute(program, "gcd", [3, 5])
            return program

        self.assert_freed(ran)

    def test_edited_programs(self, gcd_program):
        update = Patch(PatchKind.CONDITION_UPDATE, 1, parse_expression("u == 0 || v == 0"))
        guard = Patch(PatchKind.PRECONDITION_ADDITION, 3, parse_expression("u != 0"))
        execute(gcd_program, "gcd", [3, 5])

        def ran(program):
            execute(program, "gcd", [3, 5])
            return program

        self.assert_freed(lambda: ran(apply_patch(gcd_program, update)))
        self.assert_freed(lambda: ran(decide(gcd_program, 1, True)))
        self.assert_freed(lambda: ran(decide(gcd_program, 3, SKIP)))
        children = apply_patch(gcd_program, update), apply_patch(gcd_program, guard)
        self.assert_freed(lambda: ran(shadow_merge(*children)))

    def test_a_harness_pass_leaves_no_cyclic_garbage(self):
        # Edits, synthesis problems and decoded expressions included.
        bundles = load_corpus(default_corpus_dir())
        run_harness(bundles)  # warm-up: lazy imports and caches
        gc.collect()
        run_harness(bundles)
        assert gc.collect() == 0


def deep_ifs(levels):
    """A program whose deepest nodes sit at ``levels``: ``levels - 3``
    nested ifs around ``x = x + 1;`` (the operands of ``+`` are the
    deepest) and ``return x;``."""
    ifs = levels - 3
    return ("fn f(x: int) -> int {\n" + "  if (x > 0) {\n" * ifs
            + "  x = x + 1;\n  return x;\n" + "  }\n" * ifs + "  return 0;\n}\n")


def deep_parentheses(levels):
    """``return`` of ``x`` in ``levels - 2`` pairs of parentheses."""
    pairs = levels - 2
    return "fn f(x: int) -> int {\n  return " + "(" * pairs + "x" + ")" * pairs + ";\n}\n"


def long_chain(levels):
    """``return`` of a left-nested sum whose first operand sits at ``levels``."""
    return "fn f(x: int) -> int {\n  return x" + " + x" * (levels - 2) + ";\n}\n"


class TestNesting:
    """The parser rejects input nested deeper than MAX_NESTING; everything
    at the limit, and up to two levels past it after patching, runs."""

    @pytest.mark.parametrize("build, value", [
        (deep_ifs, 2), (deep_parentheses, 1), (long_chain, MAX_NESTING - 1),
    ], ids=["ifs", "parentheses", "chain"])
    def test_the_limit_runs_and_patches(self, build, value):
        program = parse_program(build(MAX_NESTING))
        assert execute(program, "f", [1]).value == value
        again = parse_program(render_program(program))
        assert again.functions == program.functions
        # Guard the deepest plain statement once, then guard it again where
        # it moved: it and its expression sit one, then two levels deeper.
        loc = min(l for l in program.locations() if program.kind_of(l) == StatementKind.PLAIN)

        def guard(base, at, text):
            return apply_patch(base, Patch(PatchKind.PRECONDITION_ADDITION, at,
                                           parse_expression(text)))

        once = guard(program, loc, "x > 0")
        twice = guard(once, once.max_location(), "x > -1")
        merged = shadow_merge(once, guard(program, loc, "x > -1"))
        for edited in (once, twice, merged, decide(program, loc, SKIP)):
            # A RecursionError inside a run would end it as a timeout.
            assert not execute(edited, "f", [1]).timed_out
            render_program(edited)

    @pytest.mark.parametrize("build, line", [
        (deep_ifs, MAX_NESTING), (deep_parentheses, 2), (long_chain, 2),
    ], ids=["ifs", "parentheses", "chain"])
    def test_one_level_past_the_limit_is_a_syntax_error(self, build, line):
        with pytest.raises(MiniLangSyntaxError, match=f"nesting deeper than {MAX_NESTING}") as err:
            parse_program(build(MAX_NESTING + 1))
        assert err.value.line == line

    @pytest.mark.parametrize("text", [
        "(" * 500 + "x" + ")" * 500, "!" * 500 + "b", "x" + " + x" * 500,
    ], ids=["parentheses", "negations", "chain"])
    def test_far_past_the_limit_is_a_syntax_error(self, text):
        with pytest.raises(MiniLangSyntaxError, match="nesting deeper"):
            parse_expression(text)

    def test_a_method_call_receiver_is_one_level_deeper(self):
        def program(pairs):
            return ("fn f(s: Str) -> int {\n  return " + "(" * pairs + "s.length()"
                    + ")" * pairs + ";\n}\n")

        at_limit = parse_program(program(MAX_NESTING - 3))
        assert execute(at_limit, "f", [Obj("Str", "ab")]).value == 2
        with pytest.raises(MiniLangSyntaxError, match="nesting deeper"):
            parse_program(program(MAX_NESTING - 2))

    def test_a_deep_constant_is_a_syntax_error(self):
        with pytest.raises(MiniLangSyntaxError, match="nesting deeper"):
            parse_program("const K: int = " + "-" * 500 + "1;")


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
