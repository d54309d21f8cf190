"""Suite execution, verdicts, and the suite file format."""
import pytest

from condfix.errors import SuiteFormatError
from condfix.minilang import ExecutionResult, NULL, Obj, execute, parse_program
from condfix.testkit import (
    TestCase, parse_suite, render_suite, run_suite, values_match, verdict_holds,
)

# Every character ``str.splitlines`` breaks a line at.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestVerdicts:
    def test_int_exact_match(self):
        test = TestCase("t", "f", (), expected_value=6)
        assert verdict_holds(ExecutionResult(value=6), test)
        assert not verdict_holds(ExecutionResult(value=7), test)

    def test_expected_error_matches_thrown(self):
        test = TestCase("t", "f", (), expected_error="IllegalArgument")
        assert verdict_holds(ExecutionResult(error="IllegalArgument"), test)
        assert not verdict_holds(ExecutionResult(error="Other"), test)
        assert not verdict_holds(ExecutionResult(value=1), test)

    def test_real_tolerance_is_1e9_absolute(self):
        test = TestCase("t", "f", (), expected_value=0.5)
        assert verdict_holds(ExecutionResult(value=0.5000000001), test)
        assert not verdict_holds(ExecutionResult(value=0.5000001), test)

    def test_bool_and_int_do_not_cross_match(self):
        assert not verdict_holds(
            ExecutionResult(value=1), TestCase("t", "f", (), expected_value=True)
        )
        assert not verdict_holds(
            ExecutionResult(value=True), TestCase("t", "f", (), expected_value=1)
        )

    def test_timeout_never_passes(self):
        test = TestCase("t", "f", (), expected_error="TimeoutDuringExecution")
        result = ExecutionResult(error="TimeoutDuringExecution", timed_out=True)
        assert not verdict_holds(result, test)

    def test_null_and_object_oracles(self):
        program = parse_program(
            "fn pick(s: Str, b: bool) -> Str {\n  if (b) {\n    return s;\n  }\n  return null;\n}\n"
        )
        suite = parse_suite("""\
obj: pick(Str("a"), true) -> Str("a")
null: pick(Str("a"), false) -> null
other_payload: pick(Str("a"), true) -> Str("b")
obj_not_null: pick(Str("a"), true) -> null
null_not_obj: pick(Str("a"), false) -> Str("a")
null_not_zero: pick(Str("a"), false) -> 0
""")
        assert run_suite(program, suite).passing == {"obj", "null"}
        assert not values_match(Obj("Str", "a"), Obj("Text", "a"))

    def test_exactly_one_oracle_enforced(self):
        with pytest.raises(SuiteFormatError):
            TestCase("t", "f", ())
        with pytest.raises(SuiteFormatError):
            TestCase("t", "f", (), expected_value=1, expected_error="E")


class TestRunSuite:
    def test_gcd_verdicts_and_coverage(self, gcd_program, gcd_suite):
        result = run_suite(gcd_program, gcd_suite)
        assert result.passing == {"zero_u", "coprime"}
        assert result.failing == {"overflow"}
        # the buggy condition is covered by every test
        for test_id in result.verdicts:
            assert result.coverage[test_id][1] == 1

    def test_empty_suite_rejected(self, gcd_program):
        with pytest.raises(ValueError):
            run_suite(gcd_program, [])

    def test_duplicate_ids_rejected(self, gcd_program):
        tests = [
            TestCase("a", "gcd", (0, 6), expected_value=6),
            TestCase("a", "gcd", (3, 5), expected_value=1),
        ]
        with pytest.raises(SuiteFormatError):
            run_suite(gcd_program, tests)

    def test_verdict_stability(self, gcd_program, gcd_suite):
        first = run_suite(gcd_program, gcd_suite)
        second = run_suite(gcd_program, gcd_suite)
        assert first.verdicts == second.verdicts
        assert first.coverage == second.coverage

    def test_coverage_soundness(self, gcd_program, gcd_suite):
        result = run_suite(gcd_program, gcd_suite)
        assert result.coverage.keys() == {t.id for t in gcd_suite}
        for test in gcd_suite:
            execution = execute(gcd_program, test.function, list(test.args))
            assert result.coverage[test.id] == execution.hits


class TestSuiteFormat:
    def test_parse_literal_calls(self):
        suite = parse_suite(
            "# comment\n"
            "a: gcd(0, 6) -> 6\n"
            "b: f(Str(\"ab\"), null, -2) -> error NullDereference\n"
            "c: g(1.5, true) -> 0.25\n"
        )
        assert [t.id for t in suite] == ["a", "b", "c"]
        assert suite[1].args == (Obj("Str", "ab"), NULL, -2)
        assert suite[1].expected_error == "NullDereference"
        assert suite[2].expected_value == 0.25

    def test_round_trip(self):
        text = "a: gcd(0, 6) -> 6\nb: f(null) -> error Boom\n"
        assert render_suite(parse_suite(text)) == text

    def test_round_trip_of_object_values(self):
        suite = parse_suite(
            'a: f(Str("abc"), Str("")) -> 1\n'
            'b: f(Str("say \\"hi\\"\\n"), Str("back\\\\slash\\ttab")) -> 2\n'
        )
        assert suite[1].args == (Obj("Str", 'say "hi"\n'), Obj("Str", "back\\slash\ttab"))
        assert parse_suite(render_suite(suite)) == suite

    def test_round_trip_of_strings_that_look_like_suite_syntax(self):
        def text(payload):
            return Obj("Str", payload)

        suite = [
            TestCase("arrow", "f", (text("a->b"),), expected_value=text("x->y")),
            TestCase("colon", "f", (text("a:b"), 1), expected_value=text("c: d")),
            TestCase("hash", "f", (text("#x"), text("//y")), expected_value=text("#")),
            TestCase("quote", "f", (text('q"r'),), expected_value=text('"->"')),
            TestCase("error", "f", (text("-> error X"),), expected_error="Boom"),
            TestCase("plain", "f", (), expected_error="NullDereference"),
        ]
        rendered = render_suite(suite)
        assert rendered.splitlines()[0] == 'arrow: f(Str("a->b")) -> Str("x->y")'
        assert parse_suite(rendered) == suite
        assert render_suite(parse_suite(rendered)) == rendered

    def test_unicode_escape(self):
        suite = parse_suite('t: f(Str("\\u{41}\\u{2028}\\u{1F600}")) -> 1\n')
        assert suite[0].args == (Obj("Str", "A\u2028\U0001f600"),)

    @pytest.mark.parametrize("escape", ["\\u41", "\\u{}", "\\u{110000}", "\\u{d800}", "\\u{12", "\\u{g}"])
    def test_a_bad_unicode_escape_is_rejected(self, escape):
        with pytest.raises(SuiteFormatError, match="escape"):
            parse_suite(f't: f(Str("{escape}")) -> 1\n')

    @pytest.mark.parametrize("char", list(LINE_BREAKS), ids=[hex(ord(c)) for c in LINE_BREAKS])
    def test_round_trip_of_strings_holding_line_breaks(self, char):
        assert len(f"a{char}b".splitlines()) == 2
        payload = Obj("Str", f"a{char}b{char}")
        suite = [TestCase("t", "f", (payload,), expected_value=payload)]
        rendered = render_suite(suite)
        assert len(rendered.splitlines()) == 1
        assert parse_suite(rendered) == suite

    @pytest.mark.parametrize("test_id", [
        "a:b", ":", "a\nb", "a\r\nb", "a\rb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b",
        "a\u2028b", "end\n", "#x", "# x", " pad", "pad ", "\tpad",
    ])
    def test_an_id_that_would_not_read_back_is_rejected(self, test_id):
        with pytest.raises(SuiteFormatError, match="test id"):
            TestCase(test_id, "f", (), expected_value=1)

    @pytest.mark.parametrize("test_id", [
        "t1", "a b", "a->b", "x#1", "f(1)", "-1", "a,b", "t\u00e9", "a\u00a0b", "x_again",
    ])
    def test_an_accepted_id_reads_back(self, test_id):
        suite = [TestCase(test_id, "f", (1,), expected_value=2)]
        assert parse_suite(render_suite(suite)) == suite

    @pytest.mark.parametrize("line", [
        "a: f(1) 2", "a: f(1) -> error", "a: f(1) -> error Boom extra", "a: f(1 -> 2",
        "a: f(1) -> 2 -> 3",
    ])
    def test_malformed_test_is_a_suite_error(self, line):
        with pytest.raises(SuiteFormatError, match="line 1"):
            parse_suite(line + "\n")

    def test_malformed_line_reports_position(self):
        with pytest.raises(SuiteFormatError, match="line 1"):
            parse_suite("not a test line\n")

    def test_empty_file_rejected(self):
        with pytest.raises(SuiteFormatError):
            parse_suite("# nothing here\n")

    @pytest.mark.parametrize("literal", ["²", "١٢", "9" * 5000, "1e999"],
                             ids=["superscript", "arabic-indic", "5000-digits", "1e999"])
    def test_a_literal_with_no_value_is_a_suite_error(self, literal):
        # Columns count in the file line, id included.
        with pytest.raises(SuiteFormatError, match=r"line 2: .*\(column 8\)"):
            parse_suite(f"ok: f(1) -> 1\nbad: f({literal}) -> 1\n")

    @pytest.mark.parametrize("text, message", [
        ("ok: f(1) -> 1\nbad: f(1e999) -> 1\n", "line 2: real literal out of range (column 8)"),
        ("t9: gcd(1, 2 -> 3\n", "line 1: expected ',', found '->' (column 14)"),
        ("  t9:gcd(1, 2 -> 3\n", "line 1: expected ',', found '->' (column 15)"),
    ])
    def test_a_syntax_error_names_its_column_in_the_file_line(self, text, message):
        with pytest.raises(SuiteFormatError) as err:
            parse_suite(text)
        assert str(err.value) == message

    def test_a_duplicate_id_names_its_line(self):
        with pytest.raises(SuiteFormatError, match="^line 3: duplicate test id 'a'$"):
            parse_suite("a: f(1) -> 1\nb: f(2) -> 2\na: f(3) -> 3\n")

    def test_a_surrogate_payload_has_no_literal_form(self):
        suite = [TestCase("t", "f", (Obj("Str", "a\ud800b"),), expected_value=1)]
        with pytest.raises(ValueError, match="surrogate"):
            render_suite(suite)
