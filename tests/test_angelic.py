"""Angelic fix localization for conditions and preconditions."""
import pytest

from condfix.angelic import (
    BUDGET_EXHAUSTED, NO_VALUE_WORKS, angelic_condition, angelic_precondition,
    search_space_size,
)
from condfix.minilang import ExecutionControls, execute, parse_program
from condfix.testkit import parse_suite, run_suite, verdict_holds
from condfix.trace import collect


class TestConditionAngelic:
    def test_forcing_repairs_failing_test(self, gcd_program, gcd_suite):
        failing = run_suite(gcd_program, gcd_suite).failing
        outcome = angelic_condition(gcd_program, gcd_suite, failing, 1)
        assert outcome.found
        assert outcome.tuples["overflow"].val is False

    def test_true_recorded_for_cm1_style_bug(self):
        # Forcing the condition true passes the failing boundary test.
        program = parse_program(
            "fn percentile(n: int, pos: int) -> int {\n"
            "  if (pos > n) {\n"
            "    return n - 1;\n"
            "  }\n"
            "  if (pos > n - 1) {\n"
            "    throw IndexOutOfBounds;\n"
            "  }\n"
            "  return pos - 1;\n"
            "}\n"
        )
        suite = parse_suite("edge: percentile(3, 3) -> 2\n")
        outcome = angelic_condition(program, suite, {"edge"}, 1)
        assert outcome.found
        assert outcome.tuples["edge"].val is True

    def test_neither_value_works(self):
        program = parse_program(
            "fn f(x: int) -> int {\n"
            "  if (x > 0) {\n"
            "    return 1;\n"
            "  }\n"
            "  return 2;\n"
            "}\n"
        )
        suite = parse_suite("want3: f(5) -> 3\n")
        outcome = angelic_condition(program, suite, {"want3"}, 1)
        assert not outcome.found
        assert outcome.reason == NO_VALUE_WORKS

    def test_forced_infinite_loop_reports_budget(self):
        program = parse_program(
            "fn f(x: int) -> int {\n"
            "  let i: int = 0;\n"
            "  while (i < x) {\n"
            "    if (i > 100) {\n"
            "      i = i - 1;\n"
            "    }\n"
            "    i = i + 1;\n"
            "  }\n"
            "  return 99;\n"
            "}\n"
        )
        # forcing the inner condition true makes i oscillate forever, and
        # neither forced value produces the expected output
        suite = parse_suite("t: f(5) -> 0\n")
        outcome = angelic_condition(program, suite, {"t"}, 3, step_budget=5000)
        assert not outcome.found
        assert outcome.reason == BUDGET_EXHAUSTED

    def test_two_trials_per_failing_test(self, gcd_program, gcd_suite):
        failing = run_suite(gcd_program, gcd_suite).failing
        outcome = angelic_condition(gcd_program, gcd_suite, failing, 1)
        assert len(outcome.trials) == 2 * len(failing)

    def test_soundness_of_recorded_tuples(self, gcd_program, gcd_suite):
        failing = run_suite(gcd_program, gcd_suite).failing
        outcome = angelic_condition(gcd_program, gcd_suite, failing, 1)
        by_id = {t.id: t for t in gcd_suite}
        for tup in outcome.tuples.values():
            controls = ExecutionControls(condition_overrides={tup.loc: tup.val})
            test = by_id[tup.test]
            result = execute(gcd_program, test.function, list(test.args), controls)
            assert verdict_holds(result, test)


PRECONDITION_FIXTURE = """\
fn describe(specific: Str, baseLen: int) -> int {
  let sbLen: int = baseLen;
  sbLen = sbLen + 2;
  if (specific != null) {
    sbLen = sbLen + specific.length();
  }
  return sbLen;
}
"""


class TestPreconditionAngelic:
    def test_skip_passes_null_case(self):
        program = parse_program(PRECONDITION_FIXTURE)
        suite = parse_suite("null_arg: describe(null, 5) -> 5\n")
        outcome = angelic_precondition(program, suite, {"null_arg"}, 2)
        assert outcome.found
        assert outcome.tuples["null_arg"].val is False

    def test_statement_hit_twice_cannot_be_skipped_once(self):
        program = parse_program(
            "fn addTwice(base: int) -> int {\n"
            "  let t1: int = step(base);\n"
            "  let t2: int = step(t1);\n"
            "  return t2;\n"
            "}\n"
            "fn step(acc: int) -> int {\n"
            "  acc = acc + 10;\n"
            "  return acc;\n"
            "}\n"
        )
        suite = parse_suite("double: addTwice(0) -> 10\n")
        outcome = angelic_precondition(program, suite, {"double"}, 4)
        assert not outcome.found
        assert outcome.reason == NO_VALUE_WORKS

    def test_uncovered_statement_cannot_help(self):
        program = parse_program(
            "fn f(x: int) -> int {\n"
            "  if (x > 0) {\n"
            "    x = x + 1;\n"
            "  }\n"
            "  return x;\n"
            "}\n"
        )
        suite = parse_suite("neg: f(-2) -> 0\n")  # never enters the branch
        outcome = angelic_precondition(program, suite, {"neg"}, 2)
        assert not outcome.found
        assert outcome.reason == NO_VALUE_WORKS

    def test_single_trial_per_failing_test(self):
        program = parse_program(PRECONDITION_FIXTURE)
        suite = parse_suite(
            "null_arg: describe(null, 5) -> 5\nnull_arg2: describe(null, 7) -> 7\n"
        )
        outcome = angelic_precondition(
            program, suite, {"null_arg", "null_arg2"}, 2
        )
        assert outcome.found
        assert len(outcome.trials) == 2


class TestSearchSpace:
    def test_condition_space_doubles(self, gcd_program):
        covered = {1, 3, 4, 10}  # one if (1), one if (10), two plain
        assert search_space_size(gcd_program, "condition", covered) == 4

    def test_precondition_space_counts_plain(self, gcd_program):
        covered = {1, 3, 4, 10}
        assert search_space_size(gcd_program, "precondition", covered) == 2

    def test_empty_coverage(self, gcd_program):
        assert search_space_size(gcd_program, "condition", set()) == 0

    def test_unknown_kind_rejected(self, gcd_program):
        with pytest.raises(ValueError, match="unknown repair kind"):
            search_space_size(gcd_program, "loop", {1})
        with pytest.raises(ValueError, match="unknown repair kind"):
            collect(gcd_program, [], 1, "loop", {})

    def test_wrong_statement_kind_rejected(self, gcd_program, gcd_suite):
        failing = run_suite(gcd_program, gcd_suite).failing
        with pytest.raises(ValueError, match="not a precondition candidate"):
            angelic_precondition(gcd_program, gcd_suite, failing, 1)
        with pytest.raises(ValueError, match="not a condition candidate"):
            angelic_condition(gcd_program, gcd_suite, failing, 3)
