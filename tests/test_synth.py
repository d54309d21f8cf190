"""Encoding, solving (internal and external), decoding, and the oracle."""
import random
import shutil
import stat
import textwrap
from pathlib import Path

import pytest

from condfix.errors import (
    InternalConsistencyError, SolverBackendError, UnsatisfiableMatrixError,
)
from condfix.minilang import (
    Patch, PatchKind, apply_patch, execute, parse_expression, parse_program, render_program,
)
from condfix.minilang.printer import PRECEDENCE
from condfix.minilang.values import INT_MAX, INT_MIN, OPERATORS, UNARY_OPERATORS
from condfix.synth import (
    ARITHMETIC_TAGS, COMPARISON_TAGS, LOGICAL_TAGS, MAX_LEVEL, Component,
    App, Leaf, components_for_level, decode, emit_smtlib, encode, encode_with_components,
    evaluate, parse_solver_output, solve, solve_external, to_minilang, to_source,
)
from condfix.synth.components import _LADDER, SMT_SYMBOLS, STEMS
from condfix.synth.internal import SAT, TIMEOUT, UNSAT, solve_internal
from condfix.trace import ColumnSpec, TraceMatrix, TraceRow, deduplicate
from enumeration_oracle import enumerate_oracle, tree_to_source
from reference_solver import reference_solve

DATA = Path(__file__).parent / "data"
NAN = float("nan")


def int_col(name):
    return ColumnSpec(name, "int", "var", var=name)


def bool_col(name):
    return ColumnSpec(name, "bool", "var", var=name)


def matrix(columns, rows, loc=1, kind="condition"):
    trace_rows = [TraceRow(f"t{i}", 0, tuple(r[:-1]), r[-1]) for i, r in enumerate(rows)]
    return TraceMatrix(loc, kind, columns, trace_rows)


def running_example_problem():
    """Inputs: an integer variable, a false constant, the constant 3;
    components: f1 over one bool, f2 over two ints."""
    cols = [
        int_col("i0"),
        ColumnSpec("c1", "bool", "var", var="c1"),
        ColumnSpec("c2", "int", "const", const=3),
    ]
    rows = [(1, False, 3, True), (7, False, 3, True), (-2, False, 3, True)]
    f1 = Component("!", ("bool",), "bool", label="f1")
    f2 = Component("==", ("int", "int"), "bool", label="f2")
    return encode_with_components(matrix(cols, rows), [f1, f2])


INT_OPERANDS = (INT_MIN, INT_MIN + 1, -1, 0, 1, 2**32, INT_MAX - 1, INT_MAX)
REAL_OPERANDS = (-1.5, -0.0, 0.0, 0.1, 2.5, 1e300, float("nan"))
BOOL_OPERANDS = (False, True)


def operator_cases():
    """(tag, operand type, result type) for every typed component form."""
    for t in ("int", "real"):
        for tag in COMPARISON_TAGS:
            yield tag, t, "bool"
        for tag in ARITHMETIC_TAGS:
            yield tag, t, t
    for tag in LOGICAL_TAGS + ("==", "!="):
        yield tag, "bool", "bool"


def same(a, b):
    """Equal values of one type, NaN equal to itself."""
    return type(a) is type(b) and (a == b or a != a and b != b)


class TestOperatorSemantics:
    @pytest.mark.parametrize("tag,in_type,out_type", list(operator_cases()))
    def test_component_matches_minilang(self, tag, in_type, out_type):
        operands = {"int": INT_OPERANDS, "real": REAL_OPERANDS, "bool": BOOL_OPERANDS}[in_type]
        # each tree as a pure tree, and with its first operand read through
        # a call, so that the node closures decide the operator
        via = f"\nfn via(x: {in_type}) -> {in_type} {{ return x; }}\n"
        if tag == "!":
            comp = Component(tag, (in_type,), out_type)
            signature, trees = f"a: {in_type}", ["!a", "!via(a)"]
            cases = [(a,) for a in operands]
        else:
            comp = Component(tag, (in_type, in_type), out_type)
            signature, trees = f"a: {in_type}, b: {in_type}", [f"a {tag} b", f"via(a) {tag} b"]
            cases = [(a, b) for a in operands for b in operands]
        for tree in trees:
            program = parse_program(
                f"fn f({signature}) -> {out_type} {{ return {tree}; }}\n{via}")
            for args in cases:
                result = execute(program, "f", list(args))
                assert result.ok, (tree, args, result.error)
                assert same(comp.evaluate(args), result.value), (tree, args)

    def test_every_operator_is_in_the_table(self):
        # an operator added in one place only fails here
        assert set(PRECEDENCE) == set(OPERATORS)
        tags = COMPARISON_TAGS + LOGICAL_TAGS + ARITHMETIC_TAGS
        assert set(STEMS) == set(SMT_SYMBOLS) == set(tags)
        for tag in tags:
            assert tag in OPERATORS or tag in UNARY_OPERATORS, tag
        python_types = {"bool": bool, "int": int, "real": float}
        for comp in components_for_level(MAX_LEVEL, ["int", "real", "bool"]):
            for t in comp.in_types:
                assert python_types[t] in comp.entry.operands, comp

    def test_an_operator_marked_commuting_commutes_on_a_sample(self):
        samples = {
            int: [INT_MIN, -1, 0, 1, 7, INT_MAX],
            float: [-2.5, -0.0, 0.0, 0.5, 1e300],
            bool: [False, True],
        }

        def commutes_on_sample(entry):
            # a real result compares by repr, so -0.0 and 0.0 differ
            return all(repr(entry.fn(a, b)) == repr(entry.fn(b, a))
                       for t in entry.operands for a in samples[t] for b in samples[t])

        marked = {tag for tag, entry in OPERATORS.items() if entry.commutes}
        assert marked == {"||", "&&", "==", "!=", "+", "*"}
        for tag in marked:
            assert commutes_on_sample(OPERATORS[tag]), tag
        for tag in ("<", "<="):
            assert not commutes_on_sample(OPERATORS[tag]), tag
        for comp in components_for_level(MAX_LEVEL, ["int", "real", "bool"]):
            assert comp.commutes == (comp.arity == 2 and comp.tag in marked), comp

    def test_overflowing_product_is_not_zero(self):
        # 2**32 * 2**32 wraps to 0 in MiniLang, so "u * v == 0" cannot
        # tell the overflow row from a zero operand.
        cols = [int_col("u"), int_col("v"), ColumnSpec("0", "int", "const", const=0)]
        rows = [(0, 6, 0, True), (6, 0, 0, True), (3, 5, 0, False),
                (2**32, 2**32, 0, False)]
        components = [
            Component("*", ("int", "int"), "int"),
            Component("==", ("int", "int"), "bool"),
        ]
        problem = encode_with_components(matrix(cols, rows), components)
        assert solve(problem, None, 10.0).status == UNSAT


class TestComponentLists:
    """Each rung's list is built once per process; every call gets its own
    copy of it, holding the same components."""

    def test_equal_arguments_give_equal_lists_of_the_same_components(self):
        for level in range(1, MAX_LEVEL + 1):
            first = components_for_level(level, ["int", "bool", "real"])
            again = components_for_level(level, ["real", "int", "int", "bool"])
            assert first == again and first is not again
            assert all(a is b for a, b in zip(first, again))
        assert components_for_level(2, ["int"]) != components_for_level(2, ["real"])

    def test_mutating_a_returned_list_changes_no_later_call(self):
        first = components_for_level(3, ["int", "bool"])
        kept = list(first)
        first.reverse()
        first.append(Component("!", ("bool",), "bool", 7))
        del first[0]
        assert components_for_level(3, ["int", "bool"]) == kept

    def test_a_bad_level_raises_on_every_call_and_caches_nothing(self):
        components_for_level(1, ["int"])
        cached = dict(_LADDER)
        for level in (0, 5, -1, 2.5, "2"):
            for _ in range(2):
                with pytest.raises(ValueError, match="level must be in"):
                    components_for_level(level, ["int", "real", "bool"])
        assert _LADDER == cached

    def test_facts_are_computed_once_and_take_no_part_in_equality(self):
        comp = Component("<=", ("int", "int"), "bool")
        assert (comp.arity, comp.uid, comp.wraps, comp.commutes) == (2, "le_int_int_0", False, False)
        assert comp.entry is OPERATORS["<="]
        assert Component("+", ("int", "int"), "int", 1).uid == "add_int_int_1"
        assert Component("+", ("int", "int"), "int").wraps
        assert not Component("+", ("real", "real"), "real").wraps
        negation = Component("!", ("bool",), "bool", label="f1")
        assert (negation.arity, negation.uid, negation.entry) == (1, "f1_bool_0", UNARY_OPERATORS["!"])
        assert comp == Component("<=", ("int", "int"), "bool")
        assert hash(comp) == hash(("<=", ("int", "int"), "bool", 0, None))
        assert repr(comp) == "Component(tag='<=', in_types=('int', 'int'), out_type='bool', instance=0, label=None)"


class TestEncoding:
    def test_running_example_domains(self):
        problem = running_example_problem()
        fixed = problem.fixed_assignment()
        assert fixed["l_in1"] == 1
        assert fixed["l_in2"] == 2
        assert fixed["l_in3"] == 3
        assert fixed["l_result"] == 5
        assert problem.output_slot_range() == (4, 5)
        f1_port = problem.port_elements[0]
        assert problem.port_candidates(f1_port) == [
            "l_in2", "l_out_f1_bool_0", "l_out_f2_int_int_0",
        ]
        for port in problem.port_elements[1:]:
            assert problem.port_candidates(port) == ["l_in1", "l_in3"]

    def test_identity_solvable_without_components(self):
        m = matrix([bool_col("flag")], [(True, True), (False, False)])
        problem = encode_with_components(m, [])
        result = solve(problem, None, 5.0)
        assert result.is_sat
        assert to_source(decode(problem, result.model)) == "flag"

    def test_conflicting_matrix_fails_fast(self):
        m = matrix([int_col("x")], [(1, True), (1, False)])
        from condfix.trace import deduplicate

        with pytest.raises(UnsatisfiableMatrixError):
            encode(deduplicate(m), 1)

    def test_width_required(self):
        m = matrix([], [])
        with pytest.raises(ValueError):
            encode(m, 1)


class TestInternalSolve:
    def test_level1_pair(self):
        m = matrix([int_col("a"), int_col("b")], [(1, 2, True), (3, 2, False)])
        problem = encode(m, 1)
        result = solve(problem, None, 10.0)
        assert result.is_sat
        text = to_source(decode(problem, result.model))
        assert text in ("a < b", "a <= b")

    def test_a_matrix_with_no_rows_is_sat_at_its_first_node(self):
        # every column's vector is empty, and so is every vector a wiring gives
        m = matrix([int_col("a"), bool_col("b")], [])
        for level in range(1, MAX_LEVEL + 1):
            problem = encode(m, level)
            result = solve_internal(problem, None, 100)
            assert (result.status, result.nodes) == (SAT, 1)
            assert to_source(decode(problem, result.model)) == "a < a"

    def test_unsat_when_no_expression_exists(self):
        # same single int column cannot separate equal inputs; conflict is
        # caught earlier, so use rows separable only by parity
        m = matrix([int_col("x")], [(2, True), (4, False)])
        problem = encode(m, 1)
        result = solve(problem, None, 10.0)
        # x<const forms can separate 2 from 4; craft a truly unsat case:
        m2 = matrix(
            [int_col("x")],
            [(1, True), (2, False), (3, True)],  # non-monotone in x
        )
        result2 = solve(encode(m2, 1), None, 10.0)
        assert result2.status == UNSAT

    def test_deterministic_model(self):
        m = matrix([int_col("a"), int_col("b")], [(1, 2, True), (3, 2, False)])
        problem = encode(m, 1)
        first = solve(problem, None, 10.0)
        second = solve(problem, None, 10.0)
        assert first.model == second.model

    @staticmethod
    def undecided_problem():
        """Six random int columns at level 3: 100k nodes do not decide it.
        At level 2 two rows that no comparison tells apart make it unsat."""
        cols = [int_col(f"c{i}") for i in range(6)]
        rows = [
            tuple(random.Random(i).randint(-5, 5) for _ in range(6)) + (i % 2 == 0,)
            for i in range(12)
        ]
        return encode(matrix(cols, rows), 3)

    def test_node_budget_reports_timeout(self):
        result = solve_internal(self.undecided_problem(), timeout_s=None, max_nodes=50)
        # a tiny budget cannot prove unsat; the node that crosses it counts
        assert result.status == TIMEOUT
        assert result.nodes == 51

    @pytest.mark.parametrize("timeout_s", [1e-9, 0])
    def test_wall_clock_is_read_every_4096_nodes(self, timeout_s):
        # a zero timeout is a deadline already passed, not "no clock"
        result = solve_internal(self.undecided_problem(), timeout_s=timeout_s, max_nodes=100_000)
        assert result.status == TIMEOUT
        assert result.nodes == 4096

    @staticmethod
    def not_over_equality(rows):
        """Criterion 8's components over two int columns: ``==`` cannot own
        the result slot, for ``!`` would have no bool producer below it."""
        components = [Component("!", ("bool",), "bool"), Component("==", ("int", "int"), "bool")]
        return encode_with_components(matrix([int_col("a"), int_col("b")], rows), components)

    def test_a_cone_fitting_only_under_a_root_that_strands_a_component_is_unsat(self):
        problem = self.not_over_equality([(1, 1, True), (1, 2, False), (3, 3, True)])
        assert solve(problem, None, 10.0).status == UNSAT

    def test_a_root_every_other_component_parks_below_closes_the_cone(self):
        problem = self.not_over_equality([(1, 1, False), (1, 2, True)])
        result = solve(problem, None, 10.0)
        assert (result.status, result.nodes) == (SAT, 8)
        assert problem.check_model(result.model) == []
        assert to_source(decode(problem, result.model)) == "!(a == b)"

    def test_a_one_member_pass_with_no_atom_proves_nothing(self):
        # no column is bool and ``==`` cannot close, so the pass computes no
        # vector: the rows share the empty key, yet ``!(a == b)`` tells them
        # apart, so the solve is the search's without the indistinct-rows check
        problem = self.not_over_equality([(1, 1, False), (1, 2, True)])
        result = solve_internal(problem, None, 100)
        assert result == reference_solve(problem, None, 100, indistinct_rows=False)
        assert result.status == SAT

    @pytest.mark.parametrize("timeout_s, deadline", [(NAN, None), (None, NAN), (1.0, NAN)])
    def test_a_nan_timeout_or_deadline_is_refused(self, timeout_s, deadline):
        # no clock read is past a NaN deadline: even(x) at level 3 would run
        # on to node 300,001
        problem = encode(matrix([int_col("x")], [(-4, True), (-5, False)]), 3)
        with pytest.raises(ValueError, match="must not be NaN"):
            solve_internal(problem, timeout_s, 300_000, deadline=deadline)

    @pytest.mark.parametrize("columns, rows, level, source", [
        # a one-member cone: ``<`` wired to the shared vector and to c
        ([int_col("a"), int_col("b"), int_col("c")], [(1, 1, 2, True), (3, 3, 2, False)],
         1, "a < c"),
        # a two-member cone: ``&&`` wired to the shared vector and to ``!r``
        ([bool_col("p"), bool_col("q"), bool_col("r")],
         [(x, x, z, x and not z) for x in (False, True) for z in (False, True)], 2, "p && !r"),
    ], ids=["one-member", "two-member"])
    def test_a_vector_two_columns_hold_is_wired_to_the_first(self, columns, rows, level, source):
        # the columns share one vector id; the search reaches the first
        # column before the second, so the model must wire the first
        problem = encode(matrix(columns, rows), level)
        result = solve_internal(problem, None, 10_000)
        assert result.status == SAT
        assert problem.check_model(result.model) == []
        assert to_source(decode(problem, result.model)) == source

    def test_structural_validity_of_models(self):
        m = matrix(
            [int_col("a"), int_col("b"), bool_col("p")],
            [(1, 2, True, True), (3, 2, False, False), (0, 0, True, True)],
        )
        problem = encode(m, 2)
        result = solve(problem, None, 10.0)
        assert result.is_sat
        assert problem.check_model(result.model) == []


def small_matrix(rng):
    """One to three int, bool or real columns over a few values; 2 to 6 rows."""
    columns = [
        ColumnSpec(f"c{i}", rng.choices(["int", "bool", "real"], [6, 3, 1])[0], "var", var=f"c{i}")
        for i in range(rng.randint(1, 3))
    ]
    pools = {"int": range(-3, 4), "bool": (False, True), "real": (-1.5, 0.0, 0.5, 2.0)}
    rows = [
        tuple(rng.choice(pools[c.type]) for c in columns) + (rng.random() < 0.5,)
        for _ in range(rng.randint(2, 6))
    ]
    return deduplicate(matrix(columns, rows))


class TestIndistinctRows:
    """At levels 1 and 2 two rows that agree on every bool column and every
    comparison over the columns, yet expect different outcomes, make a rung
    unsat once the one-member cones miss."""

    def test_parity_rows_are_unsat_at_level_2_without_search(self):
        # even(x): -4 and -5 agree on every comparison of x with itself, so
        # the rung is unsat after the one-member pass (x <, <=, ==, != x),
        # where the search alone takes 872 nodes
        problem = encode(matrix([int_col("x")], [(-4, True), (-5, False)]), 2)
        result = solve_internal(problem, None, 1000)
        searched = reference_solve(problem, None, 1000, indistinct_rows=False)
        assert [(r.status, r.nodes) for r in (result, searched)] == [(UNSAT, 4), (UNSAT, 872)]

    def test_the_same_rows_at_level_3_are_left_to_the_search(self):
        # Arithmetic makes new numbers, which a comparison may tell apart.
        rows = matrix([int_col("x")], [(-4, True), (-5, False)])
        result = solve_internal(encode(rows, 3), None, 1000)
        assert (result.status, result.nodes) == (TIMEOUT, 1001)

    def test_a_column_equal_to_the_expected_vector_keeps_its_rows_apart(self):
        # Only b separates the rows, and it is their expected outcome. No
        # one-member cone (x < x, b == b) separates them, but b == (b == b)
        # fits: b's vector must stay in the key although it is the expected one.
        rows = matrix([int_col("x"), bool_col("b")], [(1, True, True), (1, False, False)])
        equals = [Component("==", ("bool", "bool"), "bool", instance) for instance in (0, 1)]
        problem = encode_with_components(rows, [Component("<", ("int", "int"), "bool"), *equals])
        result = solve_internal(problem, None, 1000)
        assert result.status == SAT
        assert to_source(decode(problem, result.model)) == "b == (b == b)"

    def test_every_unsat_it_proves_is_unsat_by_search(self):
        # the search is the reference's with the check skipped, which must
        # never be sat where the check proves unsat
        rng = random.Random(21)
        problems = [(level, encode(m, level)) for m in (small_matrix(rng) for _ in range(80))
                    if not m.conflicting for level in (1, 2)]
        with_check = [solve_internal(p, None, 20_000) for _, p in problems]
        by_search = [reference_solve(p, None, 20_000, indistinct_rows=False) for _, p in problems]
        decided = [(level, a, b) for (level, _), a, b in zip(problems, with_check, by_search)
                   if b.status != TIMEOUT]
        assert len(decided) >= 100
        for _, checked, searched in decided:
            if searched.status == SAT:
                assert checked == searched
            else:
                assert checked.status == UNSAT and checked.nodes <= searched.nodes
        # No level-1 cone has two members, so the search stops after the
        # one-member pass there by itself and the check saves nodes at level 2.
        assert all(a.nodes == b.nodes for level, a, b in decided if level == 1)
        shortcut = [a for level, a, b in decided if level == 2 and a.nodes < b.nodes]
        assert len(shortcut) >= 21


class TestDecode:
    def test_paper_model_prints_f2_of_i0_i0(self):
        problem = running_example_problem()
        model = dict(problem.fixed_assignment())
        model["l_out_f1_bool_0"] = 4
        model["l_out_f2_int_int_0"] = 5
        model["l_arg_f1_bool_0_0"] = 2
        model["l_arg_f2_int_int_0_0"] = 1
        model["l_arg_f2_int_int_0_1"] = 1
        assert problem.check_model(model) == []
        expr = decode(problem, model)
        assert to_source(expr) == "f2(i0, i0)"

    def test_running_example_is_sat_and_row_equivalent(self):
        problem = running_example_problem()
        result = solve(problem, None, 10.0)
        assert result.is_sat
        expr = decode(problem, result.model)
        for inputs, expected in problem.rows:
            values = dict(zip([c.name for c in problem.columns], inputs))
            assert evaluate(expr, values) == expected
            # f2(i0, i0) is true on every row; so must the decoded form be
            assert evaluate(expr, values) is True

    def test_identity_wiring_decodes_to_bare_input(self):
        m = matrix([bool_col("x")], [(True, True)])
        problem = encode_with_components(m, [])
        expr = decode(problem, problem.fixed_assignment())
        assert to_source(expr) == "x"

    def test_decoder_determinism(self):
        m = matrix([int_col("a"), int_col("b")], [(1, 2, True), (3, 2, False)])
        problem = encode(m, 1)
        model = solve(problem, None, 10.0).model
        assert to_source(decode(problem, model)) == to_source(decode(problem, model))

    def test_invalid_model_raises_consistency_error(self):
        problem = running_example_problem()
        model = dict(problem.fixed_assignment())
        model["l_out_f1_bool_0"] = 4
        model["l_out_f2_int_int_0"] = 4  # collision
        model["l_arg_f1_bool_0_0"] = 2
        model["l_arg_f2_int_int_0_0"] = 1
        model["l_arg_f2_int_int_0_1"] = 1
        with pytest.raises(InternalConsistencyError):
            decode(problem, model)

    def test_check_model_names_a_missing_port_and_a_non_bool_result(self):
        m = matrix([int_col("a"), bool_col("b")], [(1, True, True)])
        problem = encode_with_components(
            m, [Component("!", ("bool",), "bool"), Component("+", ("int", "int"), "int")])
        model = problem.fixed_assignment()
        model.update({"l_out_not_bool_0": 3, "l_out_add_int_int_0": 4,
                      "l_arg_add_int_int_0_0": 1, "l_arg_add_int_int_0_1": 1})
        assert problem.check_model(model) == [
            "missing assignment for l_arg_not_bool_0_0", "result slot must hold a bool producer"]
        no_components = encode_with_components(matrix([int_col("a")], [(1, True)]), [])
        assert no_components.check_model(no_components.fixed_assignment()) == [
            "result slot must hold a bool producer"]

    @pytest.mark.parametrize("value, text", [(-1, "-1"), (INT_MIN, "-9223372036854775808")])
    def test_a_negative_constant_builds_as_the_parser_reads_it(self, value, text):
        leaf = Leaf(ColumnSpec(text, "int", "const", const=value))
        assert to_source(leaf) == text
        assert to_minilang(leaf) == parse_expression(text)

    def test_a_column_with_no_recipe_has_no_minilang_form(self):
        with pytest.raises(ValueError, match="column 'c' has no expression recipe"):
            to_minilang(Leaf(ColumnSpec("c", "int", "other")))

    def test_a_patch_with_a_negative_constant_round_trips(self):
        program = parse_program("fn f(x: int) -> int { if (x > 0) { return 1; } return 0; }")
        minus_one = Leaf(ColumnSpec("-1", "int", "const", const=-1))
        expr = App(Component("<", ("int", "int"), "bool"), (Leaf(int_col("x")), minus_one))
        patched = apply_patch(program, Patch(PatchKind.CONDITION_UPDATE, 1, to_minilang(expr)))
        text = render_program(patched)
        assert "if (x < -1) {" in text
        assert parse_program(text) == patched

    def test_row_reevaluation_matches_expected(self, gcd_program, gcd_suite):
        from condfix.angelic import angelic_condition
        from condfix.testkit import run_suite
        from condfix.trace import collect, deduplicate

        failing = run_suite(gcd_program, gcd_suite).failing
        outcome = angelic_condition(gcd_program, gcd_suite, failing, 1)
        m = deduplicate(collect(gcd_program, gcd_suite, 1, "condition", outcome.tuples))
        problem = encode(m, 2)
        result = solve(problem, None, 30.0)
        assert result.is_sat
        expr = decode(problem, result.model)
        for row in m.rows:
            assert evaluate(expr, m.row_values(row)) == row.expected


class TestEmission:
    def test_byte_reproducible(self):
        m = matrix([int_col("a"), int_col("b")], [(1, 2, True), (3, 2, False)])
        first = emit_smtlib(encode(m, 1))
        second = emit_smtlib(encode(m, 1))
        assert first == second

    def test_golden_script(self):
        m = matrix([int_col("a"), int_col("b")], [(1, 2, True), (3, 2, False)])
        script = emit_smtlib(encode(m, 1))
        golden = (DATA / "level1_pair.smt2").read_text()
        assert script == golden

    def test_script_shape(self):
        m = matrix(
            [int_col("a"), ColumnSpec("r", "real", "var", var="r"), bool_col("p")],
            [(1, 0.5, True, True), (2, -1.5, False, False)],
        )
        script = emit_smtlib(encode(m, 2))
        assert script.startswith("(set-logic ALL)")
        assert script.rstrip().endswith("))")
        assert "(check-sat)" in script
        assert "(get-value" in script
        assert "0.5" in script and "(- 1.5)" in script

    @pytest.mark.parametrize("cell, text", [
        (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"),
    ])
    def test_a_real_cell_with_no_term_is_a_backend_error(self, cell, text):
        # ``format_real`` writes these as ``inf``, ``(- inf)`` and ``nan``,
        # which are no SMT-LIB terms
        m = matrix([ColumnSpec("r", "real", "var", var="r")], [(0.5, True), (cell, False)])
        with pytest.raises(SolverBackendError, match=f"^row 1, column r: the real {text} has"):
            emit_smtlib(encode(m, 1))

    @pytest.mark.parametrize("components, falsities", [
        ([Component("<", ("real", "real"), "bool")], 2),  # one per port no producer feeds
        ([Component("+", ("int", "int"), "int")], 1),  # no bool producer for the result
        ([], 1),  # no component, and the last column is not a bool
    ], ids=["unwireable-ports", "no-bool-producer", "no-bool-column"])
    def test_a_problem_with_no_model_asserts_false(self, components, falsities):
        problem = encode_with_components(matrix([int_col("a")], [(1, True)]), components)
        assert emit_smtlib(problem).splitlines().count("(assert false)") == falsities
        assert solve_internal(problem).status == UNSAT

    def test_int_arithmetic_wraps_and_real_does_not(self):
        m = matrix(
            [int_col("a"), ColumnSpec("r", "real", "var", var="r")],
            [(1, 0.5, True), (2, -1.5, False)],
        )
        script = emit_smtlib(encode(m, 3))
        for stem, op in (("add", "+"), ("sub", "-"), ("mul", "*")):
            int_args = f"v_l_arg_{stem}_int_int_0_0_0 v_l_arg_{stem}_int_int_0_1_0"
            assert (
                f"(assert (= v_l_out_{stem}_int_int_0_0 (- (mod (+ ({op} {int_args}) "
                "9223372036854775808) 18446744073709551616) 9223372036854775808)))"
            ) in script
            real_args = f"v_l_arg_{stem}_real_real_0_0_0 v_l_arg_{stem}_real_real_0_1_0"
            assert f"(assert (= v_l_out_{stem}_real_real_0_0 ({op} {real_args})))" in script


def write_stub_solver(path: Path, body: str) -> str:
    path.write_text("#!/usr/bin/env python3\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class TestExternalBackend:
    def make_problem(self):
        m = matrix([bool_col("x")], [(True, True)])
        return encode_with_components(m, [])

    def test_parses_sat_and_model(self, tmp_path):
        problem = self.make_problem()
        stub = write_stub_solver(
            tmp_path / "solver.py",
            """
            print("sat")
            print("((l_in1 1) (l_result 1))")
            """,
        )
        result = solve_external(problem, f"python3 {stub}", 10.0)
        assert result.is_sat
        assert result.model == {"l_in1": 1, "l_result": 1}
        assert result.nodes == 0  # only the built-in backend counts nodes

    def test_parses_unsat(self, tmp_path):
        problem = self.make_problem()
        stub = write_stub_solver(tmp_path / "solver.py", 'print("unsat")\n')
        assert solve_external(problem, f"python3 {stub}", 10.0).status == UNSAT

    def test_backend_failure_is_not_unsat(self, tmp_path):
        problem = self.make_problem()
        stub = write_stub_solver(
            tmp_path / "solver.py",
            """
            import sys
            sys.exit(3)
            """,
        )
        with pytest.raises(SolverBackendError):
            solve_external(problem, f"python3 {stub}", 10.0)

    def test_a_command_that_cannot_start_is_a_backend_error(self, tmp_path):
        missing = tmp_path / "no-such-solver"
        with pytest.raises(SolverBackendError, match="cannot run solver"):
            solve_external(self.make_problem(), str(missing), 10.0)

    def test_garbage_output_is_backend_error(self, tmp_path):
        problem = self.make_problem()
        stub = write_stub_solver(tmp_path / "solver.py", 'print("maybe")\n')
        with pytest.raises(SolverBackendError):
            solve_external(problem, f"python3 {stub}", 10.0)

    def test_a_nan_timeout_is_refused_before_the_solver_starts(self, tmp_path):
        # ``subprocess`` reads a NaN timeout as none, and would wait forever
        started = tmp_path / "started"
        stub = write_stub_solver(tmp_path / "solver.py", f"open({str(started)!r}, 'w')\n")
        with pytest.raises(ValueError, match="must not be NaN"):
            solve_external(self.make_problem(), f"python3 {stub}", NAN)
        assert not started.exists()

    def test_wall_clock_timeout(self, tmp_path):
        problem = self.make_problem()
        stub = write_stub_solver(
            tmp_path / "solver.py",
            """
            import time
            time.sleep(5)
            print("sat")
            """,
        )
        assert solve_external(problem, f"python3 {stub}", 0.5).status == TIMEOUT

    @pytest.mark.skipif(shutil.which("z3") is None, reason="no z3 on PATH")
    def test_real_solver_round_trip(self):
        # only runs where a conforming solver is installed
        m = matrix([int_col("a"), int_col("b")], [(1, 2, True), (3, 2, False)])
        problem = encode(m, 1)
        result = solve(problem, "z3 -smt2", 30.0)
        assert result.is_sat
        expr = decode(problem, result.model)
        for inputs, expected in problem.rows:
            values = dict(zip([c.name for c in problem.columns], inputs))
            assert evaluate(expr, values) == expected

    def test_junk_model_is_rejected_by_solve(self, tmp_path):
        # sat with a structurally invalid assignment must not sneak through
        m = matrix([int_col("a"), int_col("b")], [(1, 2, True)])
        problem = encode(m, 1)
        names = problem.location_variables()
        pairs = " ".join(f"({n} 99)" for n in names)
        stub = write_stub_solver(
            tmp_path / "solver.py",
            f"""
            print("sat")
            print("({pairs})")
            """,
        )
        with pytest.raises(SolverBackendError):
            solve(problem, f"python3 {stub}", 10.0)


class TestSolverOutput:
    LVARS = ("l_in1", "l_result")

    def test_unknown_is_a_timeout(self):
        assert parse_solver_output("unknown\n", self.LVARS).status == TIMEOUT

    def test_a_negative_value_prints_as_a_minus_term(self):
        result = parse_solver_output("sat\n((l_in1 (- 5))\n (l_result 2))\n", self.LVARS)
        assert (result.status, result.model) == (SAT, {"l_in1": -5, "l_result": 2})

    @pytest.mark.parametrize("output, message", [
        ("", "empty solver output"),
        (" \n\n", "empty solver output"),
        ("sat\n", "missing get-value response"),
        ("sat\n((l_in1 1))", "model is missing variables: \\['l_result'\\]"),
        ("sat\n((l_in1 1 2) (l_result 2))", "malformed get-value pair: \\['l_in1', '1', '2'\\]"),
        ("sat\n(l_in1 (l_result 2))", "malformed get-value pair: 'l_in1'"),
        ("sat\n((l_in1 (+ 1 2)) (l_result 2))", "unsupported value term \\['\\+', '1', '2'\\]"),
        ("sat\n((l_in1 1)", "truncated get-value response"),
        ("sat\n(", "truncated get-value response"),
        ("sat\n((l_in1 1.5) (l_result 2))", "non-integer value '1.5' for l_in1"),
        ("sat\n) ((l_in1 1) (l_result 2))", "unbalanced '\\)'"),
        ("sat\n(((l_in1) 1) (l_result 2))", "malformed get-value pair: \\[\\['l_in1'\\], '1'\\]"),
        ("sat\n((l_in1 1_0) (l_result 2))", "non-integer value '1_0' for l_in1"),
        ("sat\n((l_in1 1) (l_result \u0661))", "non-integer value '\u0661' for l_result"),
        ("sat\n((l_in1 +5) (l_result 2))", "non-integer value '\\+5' for l_in1"),
        ("sat\n((l_in1 (- 1_0)) (l_result 2))", "non-integer value \\['-', '1_0'\\] for l_in1"),
        (f"sat\n((l_in1 {'9' * 5000}) (l_result 2))", "non-integer value '9+' for l_in1"),
    ], ids=["empty", "blank", "no-model", "missing-variable", "three-item-pair", "bare-name",
            "sum-term", "truncated-pair", "truncated-list", "real-value", "stray-close",
            "list-name", "digit-separator", "arabic-indic-digit", "plus-sign",
            "negated-separator", "past-the-digit-limit"])
    def test_unusable_output_is_a_backend_error(self, output, message):
        with pytest.raises(SolverBackendError, match=message):
            parse_solver_output(output, self.LVARS)


class TestOracle:
    def test_finds_level1_expression(self):
        m = matrix([int_col("a"), int_col("b")], [(1, 2, True), (3, 2, False)])
        tree = enumerate_oracle(m, 1, 5)
        assert tree is not None
        assert tree_to_source(tree, m) in ("(a < b)", "(a <= b)")

    def test_none_within_bound_at_level1(self):
        m = matrix([int_col("x")], [(1, True), (2, False), (3, True)])
        assert enumerate_oracle(m, 1, 5) is None

    def test_empty_matrix_rejected(self):
        m = matrix([int_col("x")], [])
        with pytest.raises(ValueError):
            enumerate_oracle(m, 1, 5)

    def test_agreement_with_solver(self):
        m = matrix(
            [int_col("a"), int_col("b")],
            [(1, 2, True), (3, 2, False), (0, 5, True), (9, 9, False)],
        )
        tree = enumerate_oracle(m, 1, 5)
        assert tree is not None
        assert solve(encode(m, 1), None, 10.0).is_sat


class TestLevelMonotonicity:
    def test_sat_is_preserved_up_the_ladder(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(40):
            cols = [int_col("a"), int_col("b"), bool_col("p")]
            rows = []
            for _ in range(rng.randint(2, 6)):
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                p = rng.random() < 0.5
                rows.append((a, b, p, rng.random() < 0.5))
            m = matrix(cols, rows)
            from condfix.trace import deduplicate

            m = deduplicate(m)
            if m.conflicting:
                continue
            r1 = solve(encode(m, 1), None, 10.0)
            if r1.is_sat:
                checked += 1
                assert solve(encode(m, 2), None, 10.0).is_sat
        assert checked >= 5
