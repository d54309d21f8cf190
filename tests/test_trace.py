"""Trace matrix collection, column policies, and deduplication."""
import pytest

from condfix.angelic import (
    CONDITION, PRECONDITION, AngelicTuple, angelic_condition, angelic_precondition,
)
from condfix.minilang import parse_program, parse_value_literal
from condfix.testkit import parse_suite, run_suite
from condfix.trace import (
    ColumnSpec, TraceMatrix, TraceRow, collect, deduplicate, matrix_to_text,
)
from conftest import MISTYPED

TRANSLATE = """\
fn translate(seqEnd: int, index: int, isHexChar: bool) -> int {
  let start: int = index + 2;
  let isHex: bool = false;
  if (isHexChar) {
    start = start + 1;
    isHex = true;
    return 0;
  }
  let end: int = start;
  let count: int = 0;
  while (end < seqEnd) {
    end = end + 1;
    count = count + 1;
  }
  return count;
}
"""

TRANSLATE_SUITE = """\
hex_end: translate(8, 5, true) -> 0
hex_body: translate(19, 5, true) -> 11
"""

INDEXOF = """\
fn indexOf(parent: Str, substr: Str, startIndex: int) -> int {
  let size: int = parent.length();
  if (startIndex >= size) {
    return -1;
  }
  let strLen: int = substr.length();
  return -1;
}
"""


def row_map(matrix, row):
    return dict(zip(matrix.column_names(), row.inputs))


class TestPreconditionCollection:
    def test_translate_rows_match_expected_states(self):
        # passing run reaches the return with start = seqEnd = 8; the
        # failing run reaches it with start = 8 and seqEnd = 19
        program = parse_program(TRANSLATE)
        suite = parse_suite(TRANSLATE_SUITE)
        failing = run_suite(program, suite).failing
        assert failing == {"hex_body"}
        outcome = angelic_precondition(program, suite, failing, 6)
        matrix = collect(program, suite, 6, PRECONDITION, outcome.tuples)

        rows = {r.test: r for r in matrix.rows}
        passing_row = row_map(matrix, rows["hex_end"])
        failing_row = row_map(matrix, rows["hex_body"])
        assert passing_row["start"] == 8 and passing_row["seqEnd"] == 8
        assert rows["hex_end"].expected is True
        assert failing_row["start"] == 8 and failing_row["seqEnd"] == 19
        assert rows["hex_body"].expected is False

    def test_constants_present_in_every_row(self):
        program = parse_program(TRANSLATE)
        suite = parse_suite(TRANSLATE_SUITE)
        outcome = angelic_precondition(program, suite, {"hex_body"}, 6)
        matrix = collect(program, suite, 6, PRECONDITION, outcome.tuples)
        for row in matrix.rows:
            values = row_map(matrix, row)
            assert values["0"] == 0 and values["-1"] == -1 and values["1"] == 1

    def test_one_row_per_test_even_when_hit_many_times(self):
        program = parse_program(
            "fn f(n: int) -> int {\n"
            "  let acc: int = 0;\n"
            "  let i: int = 0;\n"
            "  while (i < n) {\n"
            "    acc = acc + 5;\n"
            "    i = i + 1;\n"
            "  }\n"
            "  return acc;\n"
            "}\n"
        )
        suite = parse_suite("many: f(3) -> 15\nwrong: f(2) -> 0\n")
        tuples = {"wrong": AngelicTuple(4, False, "wrong")}
        matrix = collect(program, suite, 4, PRECONDITION, tuples)
        per_test = {}
        for row in matrix.rows:
            per_test[row.test] = per_test.get(row.test, 0) + 1
        assert per_test == {"many": 1, "wrong": 1}


class TestConditionCollection:
    def test_one_row_per_evaluation(self, gcd_program, gcd_suite):
        failing = run_suite(gcd_program, gcd_suite).failing
        outcome = angelic_condition(gcd_program, gcd_suite, failing, 1)
        matrix = collect(gcd_program, gcd_suite, 1, CONDITION, outcome.tuples)
        hits = run_suite(gcd_program, gcd_suite).coverage
        for test_id, test_hits in hits.items():
            rows = [r for r in matrix.rows if r.test == test_id]
            assert len(rows) == test_hits.get(1, 0)

    def test_passing_rows_carry_evaluated_condition(self, gcd_program, gcd_suite):
        failing = run_suite(gcd_program, gcd_suite).failing
        outcome = angelic_condition(gcd_program, gcd_suite, failing, 1)
        matrix = collect(gcd_program, gcd_suite, 1, CONDITION, outcome.tuples)
        rows = {r.test: r for r in matrix.rows}
        assert rows["zero_u"].expected is True  # 0 * 6 == 0
        assert rows["coprime"].expected is False
        assert rows["overflow"].expected is False  # the angelic value

    def test_a_passing_test_whose_condition_throws_contributes_no_row(self):
        # f(0) passes by throwing inside the condition, which so gives no
        # outcome; the other tests still give one row each.
        program = parse_program(
            "fn f(x: int) -> int {\n  if (10 / x > 2) {\n    return 1;\n  }\n  return 0;\n}\n"
        )
        suite = parse_suite("a: f(0) -> error DivisionByZero\nb: f(2) -> 1\n"
                            "c: f(4) -> 1\nd: f(20) -> 0\n")
        failing = run_suite(program, suite).failing
        assert failing == {"c"}
        outcome = angelic_condition(program, suite, failing, 1)
        matrix = collect(program, suite, 1, CONDITION, outcome.tuples)
        assert [(r.test, r.expected) for r in matrix.rows] == [
            ("b", True), ("c", True), ("d", False),
        ]

    def test_missing_angelic_tuple_is_an_error(self, gcd_program, gcd_suite):
        with pytest.raises(ValueError, match="angelic"):
            collect(gcd_program, gcd_suite, 1, CONDITION, {})

    def test_an_angelic_tuple_of_a_test_that_never_hits_the_location_is_an_error(self):
        # f(-1) returns before the inner if, at 2
        program = parse_program("fn f(x: int) -> int {\n  if (x > 0) {\n    if (x > 5) {\n"
                                "      return 1;\n    }\n  }\n  return 0;\n}\n")
        suite = parse_suite("a: f(-1) -> 1\nb: f(7) -> 1\n")
        with pytest.raises(ValueError, match="'a' has an angelic tuple but never hits 2"):
            collect(program, suite, 2, CONDITION, {"a": AngelicTuple(2, True, "a")})


class TestObjectColumns:
    def test_nullness_and_queries_collected(self):
        program = parse_program(INDEXOF)
        suite = parse_suite(
            'found: indexOf(Str("abab"), Str("z"), 2) -> -1\n'
            'out: indexOf(Str("ab"), Str("z"), 9) -> -1\n'
        )
        matrix = collect(program, suite, 2, CONDITION, {})
        names = matrix.column_names()
        assert "parent == null" in names
        assert "substr == null" in names
        assert "parent.length()" in names
        assert "substr.isEmpty()" in names
        first = row_map(matrix, matrix.rows[0])
        assert first["parent == null"] is False
        assert first["parent.length()"] == 4

    def test_null_receiver_drops_query_columns_matrix_wide(self):
        program = parse_program(INDEXOF)
        suite = parse_suite(
            'found: indexOf(Str("abab"), Str("z"), 2) -> -1\n'
            "null_sub: indexOf(Str(\"abab\"), null, 0) -> -1\n"
        )
        failing = run_suite(program, suite).failing
        assert failing == {"null_sub"}
        outcome = angelic_condition(program, suite, failing, 2)
        matrix = collect(program, suite, 2, CONDITION, outcome.tuples)
        names = matrix.column_names()
        assert "substr.length()" not in names
        assert "substr.isEmpty()" not in names
        assert "substr == null" in names  # nullness always stays
        assert "parent.length()" in names  # parent never null
        # dropping a column never drops rows
        assert len(matrix.rows) == 2


class TestMistypedBindings:
    @pytest.mark.parametrize("name", sorted(MISTYPED))
    def test_a_mistyped_names_columns_drop_and_every_row_stays(self, name):
        program_text, suite_text, kept = MISTYPED[name]
        program, suite = parse_program(program_text), parse_suite(suite_text)
        failing = run_suite(program, suite).failing
        outcome = angelic_condition(program, suite, failing, 2)
        matrix = collect(program, suite, 2, CONDITION, outcome.tuples)
        assert matrix.column_names() == kept
        assert [row.test for row in matrix.rows] == ["t1", "t2", "t3", "t4"]
        assert [row_map(matrix, row)["x"] for row in matrix.rows] == [5, -3, 7, -8]


class TestDeduplication:
    def test_identical_rows_collapse(self):
        program = parse_program(TRANSLATE)
        suite = parse_suite(
            "hex_end: translate(8, 5, true) -> 0\n"
            "hex_end_bis: translate(8, 5, true) -> 0\n"
        )
        matrix = collect(program, suite, 6, PRECONDITION, {})
        assert len(matrix.rows) == 2
        deduped = deduplicate(matrix)
        assert len(deduped.rows) == 1
        assert not deduped.conflicting

    def test_conflicting_rows_kept_and_flagged(self):
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
            "cut: abbreviate(10, 0, 5) -> 5\n"
        )
        failing = run_suite(program, suite).failing
        assert failing == {"cut"}
        outcome = angelic_precondition(program, suite, failing, 1)
        assert outcome.found
        matrix = deduplicate(collect(program, suite, 1, PRECONDITION, outcome.tuples))
        assert matrix.conflicting
        assert len(matrix.rows) == 2  # both conflicting rows preserved

    def test_degenerate_flag(self):
        program = parse_program(TRANSLATE)
        suite = parse_suite("hex_end: translate(8, 5, true) -> 0\n")
        matrix = collect(program, suite, 6, PRECONDITION, {})
        assert matrix.degenerate  # single outcome only


def matrix_from_text(text):
    """The matrix ``matrix_to_text`` wrote, column recipes included."""
    lines = [l for l in text.splitlines() if l.strip()]
    loc_text, kind = lines[0].split("\t")
    columns = []
    for cell in lines[1].split("\t"):
        name, type_, col_kind = cell.split("|")
        # Rebuild each recipe from the name collect gave the column.
        var, _, call = name.removesuffix(" == null").partition(".")
        columns.append(ColumnSpec(
            name, type_, col_kind,
            var=None if col_kind == "const" else var,
            const=int(name) if col_kind == "const" else None,
            method=call.removesuffix("()") if col_kind == "query" else None,
        ))
    rows = []
    for line in lines[2:]:
        cells = line.split("\t")
        inputs = tuple(parse_value_literal(c) for c in cells[2:-1])
        rows.append(TraceRow(cells[0], int(cells[1]), inputs, cells[-1] == "true"))
    return TraceMatrix(int(loc_text), kind, columns, rows)


class TestSerialization:
    def test_round_trip(self, gcd_program, gcd_suite):
        failing = run_suite(gcd_program, gcd_suite).failing
        outcome = angelic_condition(gcd_program, gcd_suite, failing, 1)
        matrix = collect(gcd_program, gcd_suite, 1, CONDITION, outcome.tuples)
        text = matrix_to_text(matrix)
        again = matrix_from_text(text)
        assert again.location == matrix.location
        assert again.kind == matrix.kind
        assert again.columns == matrix.columns
        assert [(r.test, r.inputs, r.expected) for r in again.rows] == \
            [(r.test, r.inputs, r.expected) for r in matrix.rows]

    def test_round_trip_keeps_object_column_recipes(self):
        program = parse_program(INDEXOF)
        suite = parse_suite('found: indexOf(Str("abab"), Str("z"), 2) -> -1\n')
        matrix = collect(program, suite, 2, CONDITION, {})
        assert {c.kind for c in matrix.columns} == {"var", "const", "nullcheck", "query"}
        assert matrix_from_text(matrix_to_text(matrix)).columns == matrix.columns
