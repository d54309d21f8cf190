"""Angelic fix localization for conditions and preconditions."""
import pytest

from condfix.angelic import (
    BUDGET_EXHAUSTED, NO_VALUE_WORKS, angelic_condition, angelic_precondition,
    check_candidate,
)
from condfix.minilang import decide, execute, parse_program
from condfix.pipeline import RepairConfig, repair
from condfix.testkit import parse_suite, run_suite, verdict_holds
from condfix.trace import collect

ONE_OR_TWO = """\
fn f(x: int) -> int {
  if (x > 0) {
    return 1;
  }
  return 2;
}
"""


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

    def test_first_passing_decision_ends_the_test(self):
        program = parse_program(ONE_OR_TWO)
        suite = parse_suite("neg: f(-5) -> 1\n")
        outcome = angelic_condition(program, suite, {"neg"}, 1)
        assert [(t.test, t.forced, t.passed) for t in outcome.trials] == [("neg", True, True)]

    def test_first_uncovered_test_ends_the_search(self):
        program = parse_program(ONE_OR_TWO)
        # a_want3 sorts first and no forced value passes it; b_want2 would
        # pass with false but is never run
        suite = parse_suite("b_want2: f(5) -> 2\na_want3: f(5) -> 3\n")
        outcome = angelic_condition(program, suite, {"a_want3", "b_want2"}, 1)
        assert outcome.reason == NO_VALUE_WORKS
        assert [(t.test, t.forced) for t in outcome.trials] == [
            ("a_want3", True), ("a_want3", False),
        ]

    @pytest.mark.parametrize("source, loc, covered, uncovered", [
        # forcing true returns x; forcing false spins without progress
        ("fn f(x: int) -> int {\n"
         "  while (x != 0) {\n"
         "    if (x < 0) {\n"
         "      return x;\n"
         "    }\n"
         "  }\n"
         "  return 7;\n"
         "}\n", 2, "a: f(5) -> 5", "b: f(0) -> 3"),
        # forcing true spins without progress; forcing false returns x
        ("fn f(x: int) -> int {\n"
         "  let i: int = 0;\n"
         "  while (i < x) {\n"
         "    if (x > 0) {\n"
         "      i = i - 1;\n"
         "    }\n"
         "    i = i + 1;\n"
         "  }\n"
         "  return x;\n"
         "}\n", 3, "a: f(5) -> 5", "b: f(0) -> 3"),
    ], ids=["false-run-times-out", "true-run-times-out"])
    def test_timeout_of_a_covered_test_is_not_the_reason(self, source, loc, covered, uncovered):
        # test a is covered, maybe after a timed-out run; test b fails under
        # both forced values without running out of budget
        program = parse_program(source)
        suite = parse_suite(f"{covered}\n{uncovered}\n")
        assert run_suite(program, suite, step_budget=2000).failing == {"a", "b"}
        outcome = angelic_condition(program, suite, {"a", "b"}, loc, step_budget=2000)
        assert not outcome.found
        assert outcome.reason == NO_VALUE_WORKS
        assert [t.test for t in outcome.trials][-2:] == ["b", "b"]
        assert not any(t.timed_out for t in outcome.trials if t.test == "b")

    def test_soundness_of_recorded_tuples(self, gcd_program, gcd_suite):
        failing = run_suite(gcd_program, gcd_suite).failing
        outcome = angelic_condition(gcd_program, gcd_suite, failing, 1)
        by_id = {t.id: t for t in gcd_suite}
        for tup in outcome.tuples.values():
            test = by_id[tup.test]
            result = execute(decide(gcd_program, tup.loc, tup.val), test.function,
                             list(test.args))
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
    """Which repair kinds and statements the angelic search accepts."""

    def test_unknown_kind_rejected(self, gcd_program):
        with pytest.raises(ValueError, match="unknown repair kind"):
            check_candidate(gcd_program, 1, "loop")
        with pytest.raises(ValueError, match="unknown repair kind"):
            collect(gcd_program, [], 1, "loop", {})

    @pytest.mark.parametrize("failing, error, message", [
        ({"nope"}, KeyError, "unknown failing test ids: \\['nope'\\]"),
        (set(), ValueError, "at least one failing test is required"),
    ], ids=["unknown-id", "no-failing-test"])
    def test_failing_ids_the_search_cannot_run_are_rejected(self, gcd_program, gcd_suite,
                                                            failing, error, message):
        with pytest.raises(error, match=message):
            angelic_condition(gcd_program, gcd_suite, failing, 1)

    def test_wrong_statement_kind_rejected(self, gcd_program, gcd_suite):
        failing = run_suite(gcd_program, gcd_suite).failing
        with pytest.raises(ValueError, match="not a precondition candidate"):
            angelic_precondition(gcd_program, gcd_suite, failing, 1)
        with pytest.raises(ValueError, match="not a condition candidate"):
            angelic_condition(gcd_program, gcd_suite, failing, 3)


# f(1) spins until the step budget runs out unless the if at 2 is forced
# false, and then returns 5; f(-1) returns 5 under every decision. So no
# decision passes either test that wants 7, and only f(1)'s trials can time
# out.
SPIN_OR_FIVE = (
    "fn f(x: int) -> int { let i: int = 0; "
    "if (x > 0) { while (i < x) { i = i + 0; } } return 5; }\n"
)


class TestIdOrder:
    """The first failing test, in sorted id order, that no decision passes
    ends a location's search, and its trials alone decide between
    ``execution-timeout`` and ``no-angelic-value`` (docs/formats.md)."""

    @pytest.mark.parametrize("spin, five, reason, statuses", [
        ("a", "b", "execution-timeout", ["no-angelic-value"] + ["execution-timeout"] * 3),
        ("b", "a", "no-angelic-value", ["no-angelic-value"] * 4),
    ], ids=["spinning-test-first", "spinning-test-second"])
    def test_the_first_uncovered_test_decides_the_reason(self, spin, five, reason, statuses):
        suite = parse_suite(f"{spin}: f(1) -> 7\n{five}: f(-1) -> 7\nc: f(0) -> 5\n")
        report = repair(parse_program(SPIN_OR_FIVE), suite, RepairConfig(step_budget=2000))
        assert (report.outcome, report.reason) == ("no-patch", reason)
        assert [(t.loc, t.status) for t in report.trials] == list(zip([1, 2, 4, 5], statuses))
