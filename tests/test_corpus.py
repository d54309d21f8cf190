"""Bundle format, self-checks, grid equivalence, harness, and seeding."""
import random

import pytest

from condfix import corpus
from condfix.corpus import (
    MAX_GRID_POINTS, BugBundle, GridSpec, _condition_mutants, _parse_grid, _render_grid,
    builtin_seed_sources, builtin_seeded_bundles, check_equivalence, default_corpus_dir,
    load_bundle, load_corpus, run_harness, seed_condition_bugs, write_bundle,
)
from condfix.pipeline import RepairConfig
from condfix.errors import BundleError, MiniLangSyntaxError
from condfix.minilang import (
    NULL, Obj, Patch, PatchKind, apply_patch, format_value, parse_expression, parse_program,
    parse_value_literal, render_expr, render_program,
)
from condfix.testkit import parse_suite
from conftest import GCD_BUGGY
from test_testkit import LINE_BREAKS

GCD_FIXED = GCD_BUGGY.replace("u * v == 0", "u == 0 || v == 0")


def passing_bundle(bundle_id):
    """A bundle whose "buggy" program already passes its suite."""
    return BugBundle(
        id=bundle_id,
        program=parse_program(GCD_FIXED),
        suite=parse_suite("a: gcd(0, 6) -> 6\n"),
        human=Patch(PatchKind.CONDITION_UPDATE, 1, parse_expression("u == 0 || v == 0")),
        entry="gcd",
        expected="fixable",
    )


class TestBundleFiles:
    def test_load_paper_port_corpus(self):
        bundles = load_corpus(default_corpus_dir())
        assert [b.id for b in bundles] == [
            "cl4", "cm1", "cm2", "cm5", "pl3", "pl4", "pm1", "pm2",
        ]

    def test_every_bundle_self_checks(self):
        for bundle in load_corpus(default_corpus_dir()):
            bundle.self_check()

    def test_round_trip(self, tmp_path):
        original = load_bundle(default_corpus_dir() / "cm5")
        write_bundle(original, tmp_path / "copy")
        again = load_bundle(tmp_path / "copy")
        assert again.id == original.id
        assert render_program(again.program) == render_program(original.program)
        assert again.suite == original.suite
        assert again.human == original.human
        assert again.grid.axes == original.grid.axes

    def test_round_trip_of_object_values(self, tmp_path):
        original = load_bundle(default_corpus_dir() / "pm2")  # a grid axis of Str values
        write_bundle(original, tmp_path / "copy")
        again = load_bundle(tmp_path / "copy")
        assert again.suite == original.suite
        assert again.grid.axes == original.grid.axes

    def test_round_trip_of_strings_holding_grid_separators(self, tmp_path):
        strings = [Obj("Str", s) for s in ("a|b", "c;d", "a..b", 'q"|"r', "x = 1..2; y")]
        grid = GridSpec({"specific": [NULL, *strings], "baseLen": [1, Obj("Str", "a..b")]})
        assert _parse_grid(_render_grid(grid)).axes == grid.axes
        original = load_bundle(default_corpus_dir() / "pm2")
        original.grid = GridSpec({"specific": [NULL, *strings], "baseLen": [-2, -1, 0]})
        write_bundle(original, tmp_path / "copy")
        again = load_bundle(tmp_path / "copy")
        assert again.grid.axes == original.grid.axes

    def test_round_trip_of_strings_holding_line_breaks(self, tmp_path):
        strings = [Obj("Str", f"a{char}b") for char in LINE_BREAKS]
        original = load_bundle(default_corpus_dir() / "pm2")
        original.grid = GridSpec({"specific": [NULL, *strings], "baseLen": [-1, 0]})
        write_bundle(original, tmp_path / "copy")
        again = load_bundle(tmp_path / "copy")
        assert again.grid.axes == original.grid.axes

    def test_grid_sizes_meet_the_floor(self):
        for name in ("cm5", "cl4", "pl4", "pm2"):
            bundle = load_bundle(default_corpus_dir() / name)
            assert bundle.grid is not None
            assert bundle.grid.size() >= 500

    @pytest.mark.parametrize("file, old, new, match", [
        ("human_patch.txt", "location: 1", "location: one", "location 'one'"),
        ("human_patch.txt", "location: 1", "location: 1.5", "location '1.5'"),
        ("human_patch.txt", "kind: condition-update", "kind: loop-update", "kind 'loop-update'"),
        ("meta.txt", "u = -12..12;", "u = ;", "grid .*empty grid axis 'u'"),
        ("human_patch.txt", "expr: u == 0 || v == 0", "expr: u == || v", "expr 'u == \\|\\| v'"),
        ("meta.txt", "entry: gcd", "entry: lcm", "entry 'lcm': program.ml has no such function"),
        ("meta.txt", "u = -12..12; v", "w = -12..12; v",
         "grid: axes \\['v', 'w'\\] are not the parameters \\['u', 'v'\\] of gcd"),
        ("meta.txt", "-12..12; v = -12..12", "0..999; v = 0..100",
         f"grid .*: 101000 grid points, more than {MAX_GRID_POINTS}"),
        ("meta.txt", "grid: ", "grids: ",
         "meta.txt: unknown key 'grids', not one of id, expected, entry, grid"),
        ("human_patch.txt", "expr: ", "exp: ",
         "human_patch.txt: unknown key 'exp', not one of kind, location, expr"),
        ("meta.txt", "entry: gcd", "entry: gcd\nentry: lcm", "meta.txt: repeated key 'entry'"),
        ("human_patch.txt", "location: 1", "location: 1\nlocation: 1",
         "human_patch.txt: repeated key 'location'"),
        ("meta.txt", "entry: gcd", "entry gcd", "meta.txt: malformed line: 'entry gcd'"),
    ], ids=["word-location", "real-location", "unknown-kind", "empty-grid-axis", "malformed-expr",
            "unknown-entry", "axes-not-parameters", "too-many-points", "unknown-meta-key",
            "unknown-patch-key", "repeated-meta-key", "repeated-patch-key", "line-without-colon"])
    def test_bad_field_is_a_bundle_error_naming_bundle_and_field(
        self, tmp_path, file, old, new, match
    ):
        write_bundle(load_bundle(default_corpus_dir() / "cm5"), tmp_path / "copy")
        path = tmp_path / "copy" / file
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(BundleError, match=f"bundle copy: bad {match}"):
            load_bundle(tmp_path / "copy")

    @pytest.mark.parametrize("file, line", [
        ("human_patch.txt", "kind: condition-update\n"),
        ("meta.txt", "entry: gcd\n"),
    ], ids=["kind", "entry"])
    def test_a_missing_field_is_a_bundle_error_naming_it(self, tmp_path, file, line):
        write_bundle(load_bundle(default_corpus_dir() / "cm5"), tmp_path / "copy")
        path = tmp_path / "copy" / file
        assert line in path.read_text()
        path.write_text(path.read_text().replace(line, ""))
        key = line.split(":")[0]
        with pytest.raises(BundleError, match=f"^bundle copy: missing field '{key}'$"):
            load_bundle(tmp_path / "copy")

    @pytest.mark.parametrize("expected, match", [
        ("limitation conflicting-traces", "unknown reason 'conflicting-traces'"),
        ("limitations conflicting-trace", "unknown tag"),
        ("fixable conflicting-trace", "unknown tag"),
    ], ids=["misspelt-reason", "misspelt-tag", "fixable-with-reason"])
    def test_bad_expected_is_a_bundle_error_naming_the_field(self, tmp_path, expected, match):
        write_bundle(load_bundle(default_corpus_dir() / "pl3"), tmp_path / "pl3")
        path = tmp_path / "pl3" / "meta.txt"
        text = path.read_text()
        assert "expected: limitation conflicting-trace\n" in text
        path.write_text(text.replace("limitation conflicting-trace", expected))
        with pytest.raises(BundleError, match=f"bundle pl3: bad expected '{expected}': {match}"):
            load_bundle(tmp_path / "pl3")

    def test_write_refuses_an_empty_grid_axis(self, tmp_path):
        bundle = load_bundle(default_corpus_dir() / "cm5")
        bundle.grid = GridSpec({"u": [], "v": [1]})
        with pytest.raises(BundleError, match="empty grid axis 'u'"):
            write_bundle(bundle, tmp_path / "copy")
        assert not (tmp_path / "copy").exists()

    def test_write_refuses_a_surrogate_grid_value(self, tmp_path):
        bundle = load_bundle(default_corpus_dir() / "pm2")
        bundle.grid = GridSpec({"specific": [NULL, Obj("Str", "a\ud800")], "baseLen": [0, 1]})
        with pytest.raises(BundleError, match="grid axis 'specific': .*surrogate"):
            write_bundle(bundle, tmp_path / "copy")
        assert not (tmp_path / "copy").exists()

    def test_self_check_catches_passing_bug(self, tmp_path):
        bundle = passing_bundle("bogus")
        with pytest.raises(BundleError, match="no failing test"):
            bundle.self_check()


class TestGridSpec:
    @pytest.mark.parametrize("spec", ["u = 5..1", "u = 1..", "u = ..3", "u = a..b"])
    def test_bad_range_is_a_bundle_error(self, spec):
        with pytest.raises(BundleError, match="grid range"):
            _parse_grid(spec)

    @pytest.mark.parametrize("spec, message", [
        ("u = 1..", "malformed grid range 'u = 1..'"),
        ("v = 0..1; u = 1 . . 5", "malformed grid range 'u = 1 . . 5'"),
        ("u = 1..2..3", "malformed grid range 'u = 1..2..3'"),
        ("u = 1.5..3", "malformed grid range 'u = 1.5..3'"),
        ("u = 5..1 ;", "empty grid range 'u = 5..1': lo must not exceed hi"),
        ("u = -1..0; v =", "empty grid axis 'v'"),
        (" ; ;", "empty grid spec: ' ; ;'"),
        ("u = 0..9223372036854775807", "9223372036854775808 grid points, more than 100000"),
        ("u = 0..99999999999", "100000000000 grid points, more than 100000"),
        ("u = 1..1000; v = 0 | 1 | 2 | 3; w = -12..13", "104000 grid points, more than 100000"),
    ])
    def test_grid_error_texts(self, spec, message):
        with pytest.raises(BundleError) as err:
            _parse_grid(spec)
        assert str(err.value) == message

    @pytest.mark.parametrize("spec, match", [
        ("u = 1 2", "expected '\\|', found '2' \\(line 1, column 7\\)"),
        ("u = 1 | ²", "unexpected character '²' \\(line 1, column 9\\)"),
        ("u v = 1", "expected '=', found 'v'"),
        ("u = Str(\"a\") || null", "expected '\\|', found '\\|\\|'"),
    ])
    def test_a_grid_syntax_error_names_its_column(self, spec, match):
        with pytest.raises(MiniLangSyntaxError, match=match):
            _parse_grid(spec)

    def test_axes_of_literals_and_ranges(self):
        grid = _parse_grid('s = Str("a;b") | null|Str("") ;n = -3..-1;b = true | false')
        assert grid.axes == {
            "s": [Obj("Str", "a;b"), NULL, Obj("Str", "")], "n": range(-3, 0), "b": [True, False],
        }

    def test_payloads_from_every_code_point_round_trip(self):
        """Each Str payload, its characters drawn from every code point but
        the surrogates (and from the ones escaping cares about), reads back
        from its literal and from a grid that holds it."""
        rng = random.Random(19)
        special = '\\"\n\t|;.=-{}u#' + LINE_BREAKS

        def char():
            if rng.random() < 0.25:
                return rng.choice(special)
            point = rng.randrange(0x110000 - 0x800)
            return chr(point + 0x800 if point >= 0xD800 else point)

        values = [Obj("Str", "".join(char() for _ in range(rng.randrange(12))))
                  for _ in range(400)]
        for value in values:
            assert parse_value_literal(format_value(value)) == value
        grid = GridSpec({"s": values, "n": [NULL, 1, -2], "k": [-2, -1, 0]})
        assert _parse_grid(_render_grid(grid)).axes == grid.axes

    def test_a_range_axis_stays_a_range(self):
        # The cap is MAX_GRID_POINTS itself; a range is never expanded.
        grid = _parse_grid("u = 1..1000; v = 0..99")
        assert grid.axes == {"u": range(1, 1001), "v": range(0, 100)}
        assert grid.size() == MAX_GRID_POINTS
        assert GridSpec({"u": range(0, 1 << 70), "v": [1, 2]}).size() == 1 << 71
        assert _render_grid(grid) == "u = 1..1000; v = 0..99"

    def test_single_point_range(self):
        assert _parse_grid("u = 3..3; v = -1..0").axes == {"u": range(3, 4), "v": range(-1, 1)}

    def test_reversed_range_in_meta_fails_the_load(self, tmp_path):
        bundle = load_bundle(default_corpus_dir() / "cm5")
        write_bundle(bundle, tmp_path / "copy")
        meta = tmp_path / "copy" / "meta.txt"
        meta.write_text(meta.read_text().replace("-12..12", "12..-12", 1))
        with pytest.raises(BundleError, match="empty grid range"):
            load_bundle(tmp_path / "copy")

    def test_equivalence_refuses_an_empty_axis(self):
        program = parse_program(GCD_FIXED)
        grid = GridSpec({"u": [], "v": [1, 2]})
        with pytest.raises(BundleError, match="empty"):
            check_equivalence(program, parse_program(GCD_FIXED), "gcd", grid)


class TestEquivalence:
    def test_identical_programs_agree(self):
        program = parse_program(GCD_FIXED)
        grid = GridSpec({"u": list(range(-6, 7)), "v": list(range(-6, 7))})
        assert check_equivalence(program, parse_program(GCD_FIXED), "gcd", grid)

    def test_buggy_vs_fixed_diverges_on_overflow_pair(self):
        # 2^32 * 2^32 wraps to zero, sending the buggy version down the
        # absolute-sum branch: 2^33 against the correct 2^32.
        buggy = parse_program(GCD_BUGGY)
        fixed = parse_program(GCD_FIXED)
        big = 1 << 32
        small_grid = GridSpec({"u": [0, 3, big], "v": [5, big]})
        assert not check_equivalence(buggy, fixed, "gcd", small_grid)

    def test_buggy_vs_fixed_agree_on_small_grid(self):
        buggy = parse_program(GCD_BUGGY)
        fixed = parse_program(GCD_FIXED)
        grid = GridSpec({"u": list(range(-12, 13)), "v": list(range(-12, 13))})
        assert check_equivalence(buggy, fixed, "gcd", grid)

    def test_cl4_redundant_null_form_is_equivalent(self):
        bundle = load_bundle(default_corpus_dir() / "cl4")
        program = bundle.program
        paper_form = Patch(
            PatchKind.CONDITION_UPDATE, 4,
            parse_expression("!(substr != null) || startIndex >= size"),
        )
        human = bundle.human
        assert check_equivalence(
            apply_patch(program, paper_form),
            apply_patch(program, human),
            bundle.entry,
            bundle.grid,
        )

    def test_error_classes_must_match(self):
        throws_a = parse_program("fn f(x: int) -> int { throw Alpha; }")
        throws_b = parse_program("fn f(x: int) -> int { throw Beta; }")
        grid = GridSpec({"x": [1, 2]})
        assert not check_equivalence(throws_a, throws_b, "f", grid)
        assert check_equivalence(throws_a, parse_program(
            "fn f(x: int) -> int { throw Alpha; }"
        ), "f", grid)

    def test_one_sided_budget_exhaustion_disagrees(self):
        finite = parse_program("fn f(x: int) -> int { return x; }")
        looping = parse_program(
            "fn f(x: int) -> int { while (x == x) { x = x + 1; } return x; }"
        )
        grid = GridSpec({"x": [1]})
        assert not check_equivalence(finite, looping, "f", grid, step_budget=500)
        assert check_equivalence(looping, looping, "f", grid, step_budget=500)


def patched_children(source, location, *expressions, kind=PatchKind.CONDITION_UPDATE):
    """One-patch children of one parsed base, one per expression."""
    base = parse_program(source)
    return [apply_patch(base, Patch(kind, location, parse_expression(e))) for e in expressions]


SIGN_GUARD = """\
fn f(x: int) -> int {
  if (x < 0) {
    throw Negative;
  }
  return 10 / x;
}
"""

COUNTDOWN = """\
fn down(n: int) -> int {
  if (n <= 0) {
    return 0;
  }
  return down(n - 1);
}
"""


class TestEquivalenceOfPatchedChildren:
    """Verdicts on points where both sides do not return one matching value."""

    def test_both_sides_returning_nan_disagree(self):
        a, b = patched_children(
            "fn f(x: real) -> real {\n  if (x < 0.0) {\n    return 0.0 - x;\n  }\n"
            "  return x;\n}\n",
            1, "x < 1.0", "x < 2.0",
        )
        # Every comparison with NaN is false, so both sides return x; NaN
        # never matches itself.
        assert not check_equivalence(a, b, "f", GridSpec({"x": [float("nan")]}))
        assert check_equivalence(a, b, "f", GridSpec({"x": [3.0, 7.5]}))

    def test_both_sides_raising_the_same_error_agree(self):
        a, b = patched_children(SIGN_GUARD, 1, "x < -1", "x < -2")
        # -5 throws Negative on both sides, 0 divides by zero on both.
        assert check_equivalence(a, b, "f", GridSpec({"x": [-5, 0, 4]}))

    def test_sides_raising_different_errors_disagree(self):
        a, b = patched_children(SIGN_GUARD, 1, "x <= 0", "x < 0")
        # At 0 one side throws Negative, the other divides by zero.
        assert not check_equivalence(a, b, "f", GridSpec({"x": [0]}))

    def test_one_side_at_the_call_depth_limit_disagrees(self):
        a, b = patched_children(COUNTDOWN, 1, "n <= 0", "n <= 100")
        # Both return 0 when they return: 151 active calls pass the depth
        # limit, 51 do not.
        assert not check_equivalence(a, b, "down", GridSpec({"n": [150]}))
        assert check_equivalence(a, b, "down", GridSpec({"n": [50, 90]}))

    def test_both_sides_exhausting_a_small_budget_agree(self):
        a, b = patched_children(
            "fn f(x: int) -> int {\n  if (x > 1000) {\n    x = 0;\n  }\n"
            "  while (x > 0) {\n    x = x + 1;\n  }\n  return x;\n}\n",
            1, "x > 2000", "x > 3000",
        )
        assert check_equivalence(a, b, "f", GridSpec({"x": [1, 2]}), step_budget=500)


class TestHarness:
    def test_paper_ports_all_match_expectations(self):
        report = run_harness(load_corpus(default_corpus_dir()))
        assert report.all_expected()

    def test_empty_bundle_list(self):
        report = run_harness([])
        assert report.rows == []
        assert report.to_csv().count("\n") == 1  # header only

    def test_invalid_bundle_becomes_error_row(self):
        bogus = passing_bundle("broken")
        good = load_bundle(default_corpus_dir() / "pm2")
        report = run_harness([bogus, good])
        outcomes = {r.id: r.outcome for r in report.rows}
        assert outcomes["broken"] == "bundle-error"
        assert outcomes["pm2"] == "patched"

    def test_a_suite_repeating_a_test_id_becomes_an_error_row(self):
        bundle = load_bundle(default_corpus_dir() / "cm1")
        bundle.suite.append(bundle.suite[0])
        good = load_bundle(default_corpus_dir() / "pm2")
        rows = run_harness([bundle, good]).rows
        assert [(r.id, r.outcome) for r in rows] == [("cm1", "bundle-error"), ("pm2", "patched")]
        assert rows[0].reason == "bundle cm1: bad suite: duplicate test ids in suite"

    def test_an_empty_suite_becomes_an_error_row_before_any_run(self, monkeypatch):
        bundle = load_bundle(default_corpus_dir() / "cm1")
        bundle.suite = []
        good = load_bundle(default_corpus_dir() / "pm2")
        suites = []
        run_suite = corpus.run_suite

        def counting(program, suite, **kwargs):
            suites.append(suite)
            return run_suite(program, suite, **kwargs)

        monkeypatch.setattr(corpus, "run_suite", counting)
        rows = run_harness([bundle, good]).rows
        assert [(r.id, r.outcome) for r in rows] == [("cm1", "bundle-error"), ("pm2", "patched")]
        assert rows[0].reason == "bundle cm1: bad suite: no test cases"
        assert suites and all(suite is good.suite for suite in suites)

    def test_a_human_patch_that_fails_the_suite_becomes_an_error_row(self):
        bundle = load_bundle(default_corpus_dir() / "cm1")
        assert bundle.human.expression_text == "pos >= n"
        bundle.human = Patch(PatchKind.CONDITION_UPDATE, 3, parse_expression("pos > n"))
        good = load_bundle(default_corpus_dir() / "pm2")
        rows = run_harness([bundle, good]).rows
        assert [(r.id, r.outcome) for r in rows] == [("cm1", "bundle-error"), ("pm2", "patched")]
        assert rows[0].reason == "bundle cm1: human patch does not validate"

    def test_csv_is_deterministic(self):
        bundles = [load_bundle(default_corpus_dir() / "pm2")]
        first = run_harness(bundles)
        second = run_harness(bundles)
        assert first.to_csv() == second.to_csv()
        assert first.effort_table_csv() == second.effort_table_csv()

    def test_effort_table_shape(self):
        report = run_harness(load_corpus(default_corpus_dir()))
        table = report.effort_table_csv()
        lines = table.strip().splitlines()
        assert lines[0].split(",")[0] == "metric"
        assert len(lines) == 7  # header + six metrics
        assert "condition-update_average" in lines[0]
        assert "precondition-addition_average" in lines[0]


class TestSeeding:
    def test_at_least_ten_seeded_bundles(self):
        bundles = builtin_seeded_bundles()
        assert len(bundles) >= 10

    def test_seeded_bundles_self_check_and_repair(self):
        bundles = builtin_seeded_bundles()
        for bundle in bundles:
            bundle.self_check()
        report = run_harness(bundles)
        assert report.all_expected()

    @pytest.mark.parametrize("condition, mutants", [
        ("x < y && y != 0", [
            "x < y || y != 0", "x <= y && y != 0", "x > y && y != 0", "x < y + 1 && y != 0",
            "x < y - 1 && y != 0", "x < y && y == 0", "x < y && y != 0 + 1",
            "x < y && y != 0 - 1",
        ]),
        ("a || b == 1", ["a && b == 1", "a || b != 1", "a || b == 1 + 1", "a || b == 1 - 1"]),
    ], ids=["and", "or"])
    def test_a_connective_flips_and_mutates_each_side(self, condition, mutants):
        got = _condition_mutants(parse_expression(condition))
        assert [render_expr(m) for m in got] == mutants

    def test_seed_programs_must_pass_their_suites(self):
        with pytest.raises(BundleError, match="must pass"):
            seed_condition_bugs("bad", GCD_BUGGY, "o: gcd(4294967296, 4294967296) -> 4294967296\n", "gcd")

    def test_seeding_runs_under_the_configured_step_budget(self):
        # countDown(9, 0) takes more than 50 steps, so under that budget the
        # seed program itself no longer passes its suite.
        steps = next(s for s in builtin_seed_sources() if s[0] == "steps")
        with pytest.raises(BundleError, match="must pass"):
            seed_condition_bugs(*steps, step_budget=50)

    def test_seeding_keeps_mutants_the_engine_cannot_repair(self):
        # Parity needs x % 2, which no component offers, so no rung up to
        # level 2 repairs either boundary shift. The flip to != fails every
        # test, so it is not kept.
        program = ("fn parity(x: int) -> int { let r: int = 0; "
                   "if (x % 2 == 0) { r = 1; } return r; }\n")
        suite = "".join(f"t{i}: parity({x}) -> {int(x % 2 == 0)}\n"
                        for i, x in enumerate([0, 1, 2, 3, 4, -3, -4, 7]))
        bundles = seed_condition_bugs("parity", program, suite, "parity")
        assert [(b.id, render_expr(b.program.statement_at(2).cond)) for b in bundles] == [
            ("parity-m01", "x % 2 == 0 + 1"), ("parity-m02", "x % 2 == 0 - 1"),
        ]
        rows = run_harness(bundles, RepairConfig(max_level=2)).rows
        assert [(r.id, r.outcome, r.expected_match) for r in rows] == [
            ("parity-m01", "no-patch", False), ("parity-m02", "no-patch", False),
        ]
