"""End-to-end repair orchestration."""
import dataclasses
import time

import pytest

from condfix import pipeline
from condfix.corpus import default_corpus_dir, load_corpus
from condfix.errors import NoFailingTestError
from condfix.minilang import Patch, PatchKind, parse_expression, parse_program
from condfix.pipeline import (
    CONFLICTING_TRACE, EXECUTION_TIMEOUT, EXHAUSTED, NO_ANGELIC_VALUE, SYNTHESIS_TIMEOUT,
    RepairConfig, render_patch_diff, repair, validate,
)
from condfix.synth import MAX_LEVEL, MIN_LEVEL, decode, solve
from condfix.synth import problem as synth_problem
from condfix.testkit import parse_suite
from conftest import FOREIGN_QUERY, MISTYPED


class TestRepair:
    def test_gcd_is_repaired_and_validates(self, gcd_program, gcd_suite):
        report = repair(gcd_program, gcd_suite, RepairConfig())
        assert report.patched
        assert validate(gcd_program, report.patch, gcd_suite)
        assert report.level is not None
        assert report.location_rank >= 1

    def test_a_patch_can_use_a_state_query(self):
        # Only the length of s separates the tests that need the early
        # return, so the patch decodes a query column.
        program = parse_program(
            "fn firstOr(s: Str, d: int) -> int { if (d < 0) { return s.length(); } return d; }"
        )
        suite = parse_suite(
            'a: firstOr(Str("abc"), 7) -> 3\n'
            'b: firstOr(Str(""), 7) -> 7\n'
            'c: firstOr(Str("x"), -2) -> 1\n'
            'd: firstOr(Str(""), -2) -> -2\n'
            'e: firstOr(Str("hello"), 0) -> 5\n'
        )
        report = repair(program, suite)
        assert (report.outcome, report.patch.location, report.level) == ("patched", 1, 1)
        assert report.to_dict()["patch"]["expression"] == "0 < s.length()"
        assert validate(program, report.patch, suite)

    def test_no_failing_test_is_an_error(self, gcd_program):
        suite = parse_suite("zero_u: gcd(0, 6) -> 6\n")
        with pytest.raises(NoFailingTestError):
            repair(gcd_program, suite)

    def test_condition_only_mode_skips_plain_candidates(self, gcd_program, gcd_suite):
        report = repair(gcd_program, gcd_suite, RepairConfig(mode="condition"))
        assert report.patched
        assert report.patch.kind == PatchKind.CONDITION_UPDATE

    def test_report_structure(self, gcd_program, gcd_suite):
        report = repair(gcd_program, gcd_suite, RepairConfig())
        body = report.to_dict()
        assert body["outcome"] == "patched"
        assert body["patch"]["location"] == report.patch.location
        assert isinstance(body["trials"], list)
        assert body["trials"]  # at least the patched location appears

    def test_report_counts_solver_nodes_per_rung(self, gcd_program, gcd_suite):
        report = repair(gcd_program, gcd_suite, RepairConfig(max_level=2))
        levels = [level for trial in report.to_dict()["trials"] for level in trial["levels"]]
        assert levels and all(level["nodes"] > 0 for level in levels)

    def test_global_timeout_bounds_every_rung(self, even_program, even_suite):
        # Parity is out of reach of every rung. Levels 1 and 2 are unsat
        # within a few hundred nodes, and level 3 alone takes longer than
        # the global timeout when given the per-rung timeout and a node
        # budget that no host spends in a second (the default 2M nodes can
        # take about 0.5 s).
        config = RepairConfig(global_timeout=1.0, solver_nodes=10**9)
        started = time.monotonic()
        report = repair(even_program, even_suite, config)
        elapsed = time.monotonic() - started
        assert not report.patched
        assert elapsed < config.global_timeout + 0.5
        timed_out = report.trials[0].levels[-1]
        assert timed_out.status == "timeout"
        assert timed_out.nodes < config.solver_nodes

    def test_global_timeout_stops_every_phase(self, h_program, h_suite):
        # With ten million steps per run and no deadline this repair patches
        # after about 17 s on a 2-core x86-64 host (under two seconds at the
        # default budget), so the 1 s deadline always ends it.
        config = RepairConfig(global_timeout=1.0, mode="condition", step_budget=10_000_000)
        started = time.monotonic()
        report = repair(h_program, h_suite, config)
        elapsed = time.monotonic() - started
        assert (report.outcome, report.reason) == ("no-patch", EXHAUSTED)
        assert report.trials[-1].status == EXHAUSTED
        assert elapsed < config.global_timeout + 0.5

    @pytest.mark.parametrize("bundle_id", ["pl3", "pm1"])
    def test_a_passed_deadline_stops_a_ranking_of_short_runs(self, bundle_id):
        # No run of these repairs reaches 4,096 steps, so no run reads the
        # clock; each ranked location does as it starts.
        bundle = next(b for b in load_corpus(default_corpus_dir()) if b.id == bundle_id)
        program, suite = bundle.program, bundle.suite
        full = repair(program, suite, RepairConfig())
        assert full.reason in (CONFLICTING_TRACE, NO_ANGELIC_VALUE)
        report = repair(program, suite, RepairConfig(global_timeout=1e-4))
        assert (report.outcome, report.reason) == ("no-patch", EXHAUSTED)
        assert report.trials[-1].status == EXHAUSTED
        assert len(report.trials) < len(full.trials)

    def test_determinism_modulo_wall_time(self, gcd_program, gcd_suite):
        def scrub(d):
            d = dict(d)
            d.pop("wall_time")
            for t in d["trials"]:
                for level in t["levels"]:
                    level.pop("seconds")
            return d

        a = repair(gcd_program, gcd_suite, RepairConfig()).to_dict()
        b = repair(gcd_program, gcd_suite, RepairConfig()).to_dict()
        assert scrub(a) == scrub(b)

    @pytest.mark.parametrize("name", sorted(MISTYPED))
    def test_a_name_bound_to_another_type_is_repaired(self, name):
        program_text, suite_text, _ = MISTYPED[name]
        report = repair(parse_program(program_text), parse_suite(suite_text))
        assert report.patched
        assert (report.patch.expression_text, report.level) == ("0 < x", 1)

    def test_each_sat_model_is_decoded_once(self, gcd_program, gcd_suite, monkeypatch):
        decoded = []

        def counting(problem, model):
            decoded.append(model)
            return decode(problem, model)

        monkeypatch.setattr(pipeline, "decode", counting)
        monkeypatch.setattr(synth_problem, "decode", counting)
        report = repair(gcd_program, gcd_suite, RepairConfig())
        answered = [level for trial in report.trials for level in trial.levels
                    if level.status in ("sat", "invalid-patch")]
        assert report.patched and answered
        assert len(decoded) == len(answered)

    def test_angelic_tuples_logged_are_sound(self, gcd_program, gcd_suite):
        from condfix.minilang import SKIP, decide, execute
        from condfix.testkit import verdict_holds

        report = repair(gcd_program, gcd_suite, RepairConfig())
        by_id = {t.id: t for t in gcd_suite}
        for trial in report.trials:
            for tup in trial.angelic_tuples:
                test = by_id[tup["test"]]
                decision = tup["val"] if trial.kind == "condition" else SKIP
                result = execute(decide(gcd_program, tup["loc"], decision), test.function,
                                 list(test.args))
                assert verdict_holds(result, test)


class TestConfig:
    @pytest.mark.parametrize("level", [MIN_LEVEL - 1, MAX_LEVEL + 1])
    def test_max_level_outside_ladder_is_rejected(self, level):
        with pytest.raises(ValueError, match="max_level"):
            RepairConfig(max_level=level)

    @pytest.mark.parametrize("level", [MIN_LEVEL, MAX_LEVEL])
    def test_max_level_at_ladder_ends_is_accepted(self, level):
        assert RepairConfig(max_level=level).max_level == level

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'x'"):
            RepairConfig(mode="x")

    def test_unknown_metric_is_rejected(self):
        with pytest.raises(ValueError, match="unknown metric 'nope'"):
            RepairConfig(metric="nope")

    @pytest.mark.parametrize("field", ["step_budget", "solver_nodes"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_budget_below_one_is_rejected(self, field, value):
        with pytest.raises(ValueError, match="at least 1"):
            RepairConfig(**{field: value})

    @pytest.mark.parametrize("field", ["level_timeout", "global_timeout"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("-inf")])
    def test_a_timeout_that_is_not_positive_is_rejected(self, field, value):
        with pytest.raises(ValueError, match="timeouts must be positive"):
            RepairConfig(**{field: value})

    @pytest.mark.parametrize("field", ["level_timeout", "global_timeout"])
    def test_an_infinite_timeout_is_accepted(self, field):
        assert getattr(RepairConfig(**{field: float("inf")}), field) == float("inf")

    @pytest.mark.parametrize("field", ["max_level", "step_budget", "solver_nodes"])
    @pytest.mark.parametrize("value", [2.0, True, "2", None])
    def test_a_count_that_is_not_an_integer_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RepairConfig(**{field: value})

    def test_budgets_of_one_are_accepted(self):
        config = RepairConfig(step_budget=1, solver_nodes=1)
        assert (config.step_budget, config.solver_nodes) == (1, 1)


class TestNoPatchReasons:
    def test_multiple_executions_block_angelic(self):
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
        report = repair(program, suite, RepairConfig())
        assert not report.patched
        assert report.reason == NO_ANGELIC_VALUE

    def test_conflicting_trace_reported(self):
        program = parse_program(
            "fn clampLower(strLen: int, lower: int) -> int {\n"
            "  lower = strLen;\n"
            "  return lower;\n"
            "}\n"
            "fn abbreviate(strLen: int, lower: int, upper: int) -> int {\n"
            "  let effLower: int = clampLower(strLen, lower);\n"
            "  let effUpper: int = upper;\n"
            "  if (effUpper == -1 || effUpper > strLen) {\n"
            "    effUpper = strLen;\n"
            "  }\n"
            "  if (effUpper < effLower) {\n"
            "    effUpper = effLower;\n"
            "  }\n"
            "  return effUpper;\n"
            "}\n"
        )
        suite = parse_suite(
            "keep_all: abbreviate(10, 0, -1) -> 10\n"
            "clamp_lower: abbreviate(10, 12, 5) -> 10\n"
            "clamp_big: abbreviate(10, 15, -1) -> 10\n"
            "cut: abbreviate(10, 0, 5) -> 5\n"
            "reorder: abbreviate(10, 3, 2) -> 3\n"
        )
        report = repair(program, suite, RepairConfig())
        assert not report.patched
        assert report.reason == CONFLICTING_TRACE

    def test_a_query_on_a_record_of_another_class_is_no_patch(self):
        # s.length() on a Foo throws TypeMismatch, and no decision at any
        # location makes the test that reaches it return 1.
        program_text, suite_text = FOREIGN_QUERY
        report = repair(parse_program(program_text), parse_suite(suite_text))
        assert not report.patched
        assert report.reason == NO_ANGELIC_VALUE
        assert {t.status for t in report.trials} == {NO_ANGELIC_VALUE}

    def test_unbounded_recursion_is_an_execution_timeout(self):
        # The base case is wrong; forcing it to false recurses without bound,
        # which the call-depth limit turns into an exhausted run.
        program = parse_program(
            "fn fact(n: int) -> int {\n"
            "  if (n < 0) {\n"
            "    return 1;\n"
            "  }\n"
            "  return n * fact(n - 1);\n"
            "}\n"
        )
        suite = parse_suite("".join(
            f"t{n}: fact({n}) -> {value}\n" for n, value in enumerate((1, 1, 2, 6, 24))
        ))
        report = repair(program, suite, RepairConfig())
        assert not report.patched
        assert report.reason == EXECUTION_TIMEOUT


def rungs(report):
    """(location, trial status, [(level, rung status)]) of each trial."""
    return [(t.loc, t.status, [(level.level, level.status) for level in t.levels])
            for t in report.trials]


class TestLadderEnds:
    """A ladder that climbs to ``max_level`` without a patch."""

    def test_rungs_stopped_by_the_node_budget_end_as_a_synthesis_timeout(
        self, even_program, even_suite
    ):
        # Level 2 is proved unsat without search (two rows no comparison
        # tells apart), so the first rung the budget stops is level 3.
        report = repair(even_program, even_suite, RepairConfig(max_level=3, solver_nodes=1000))
        assert report.reason == SYNTHESIS_TIMEOUT
        assert rungs(report)[0] == (
            1, SYNTHESIS_TIMEOUT, [(1, "unsat"), (2, "unsat"), (3, "timeout")]
        )

    def test_a_guard_that_fits_only_first_hits_is_an_invalid_patch(self):
        # A precondition's trace holds each test's first hit only. There
        # i = 0 and c = 0 for every test, so a guard on i fits the rows,
        # but in d's later iterations it skips the counting it should do.
        program = parse_program(
            "fn f(n: int, k: int) -> int {\n"
            "  let c: int = 0;\n"
            "  let i: int = 0;\n"
            "  while (i < n) {\n"
            "    c = c + 1;\n"
            "    i = i + 1;\n"
            "  }\n"
            "  return c;\n"
            "}\n"
        )
        suite = parse_suite(
            "a: f(3, 5) -> 3\nb: f(2, 2) -> 2\nd: f(4, 1) -> 4\ne: f(3, 0) -> 0\ng: f(2, 0) -> 0\n"
        )
        report = repair(program, suite, RepairConfig(max_level=2))
        assert not report.patched
        assert (4, EXHAUSTED, [(1, "invalid-patch"), (2, "invalid-patch")]) in rungs(report)

    def test_a_model_that_fits_no_row_is_an_unanswered_rung(
        self, gcd_program, gcd_suite, monkeypatch
    ):
        # A backend that answers sat with a well-formed model of another
        # problem: the one whose rows all expect the other outcome.
        def junk(problem, backend, timeout, nodes, deadline=None):
            flipped = dataclasses.replace(problem, rows=[(v, not e) for v, e in problem.rows])
            return solve(flipped, backend, timeout, nodes, deadline=deadline)

        monkeypatch.setattr(pipeline, "solve", junk)
        report = repair(gcd_program, gcd_suite, RepairConfig(max_level=2))
        assert report.reason == SYNTHESIS_TIMEOUT
        answered = [t for t in rungs(report) if t[2]]
        assert answered and all(
            status == SYNTHESIS_TIMEOUT and levels == [(1, "invalid-patch"), (2, "invalid-patch")]
            for _, status, levels in answered
        )


class TestValidate:
    def test_correct_patch_validates(self, gcd_program, gcd_suite):
        patch = Patch(
            PatchKind.CONDITION_UPDATE, 1, parse_expression("u == 0 || v == 0")
        )
        assert validate(gcd_program, patch, gcd_suite)

    def test_identity_patch_fails_validation(self, gcd_program, gcd_suite):
        patch = Patch(PatchKind.CONDITION_UPDATE, 1, parse_expression("u * v == 0"))
        assert not validate(gcd_program, patch, gcd_suite)

    def test_patch_breaking_passing_test_fails_validation(self, gcd_program, gcd_suite):
        # an always-true condition repairs nothing and breaks coprime
        broken = Patch(PatchKind.CONDITION_UPDATE, 1, parse_expression("u == u"))
        assert not validate(gcd_program, broken, gcd_suite)


class TestDiff:
    def test_unified_diff_touches_only_patch_lines(self, gcd_program, gcd_suite):
        report = repair(gcd_program, gcd_suite, RepairConfig(mode="condition"))
        diff = render_patch_diff(gcd_program, report.patch)
        assert diff.startswith("--- a/program.ml")
        removed = [l for l in diff.splitlines() if l.startswith("-") and not l.startswith("---")]
        added = [l for l in diff.splitlines() if l.startswith("+") and not l.startswith("+++")]
        assert any("u * v == 0" in l for l in removed)
        assert len(added) >= 1

    def test_budget_respected(self, gcd_program, gcd_suite):
        config = RepairConfig(global_timeout=30.0, level_timeout=5.0)
        report = repair(gcd_program, gcd_suite, config)
        assert report.wall_time <= config.global_timeout + config.level_timeout
