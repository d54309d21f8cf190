"""Grid equivalence through one merged program per pair of patched children.

``check_equivalence`` runs ``shadow_merge`` of two one-patch children of
one base once per grid point and runs both sides only where that run does
not return a self-matching value. A program rebuilt from a child's parts
carries no origin, so ``check_equivalence`` of two rebuilt children takes
the two-run path on every point: each differential case here asserts that
both paths give the same verdict.
"""
import pytest

from condfix.corpus import GridSpec, _FLIPS, check_equivalence, default_corpus_dir, load_bundle
from condfix.minilang import (
    DEFAULT_STEP_BUDGET, Binary, Patch, PatchKind, Program, Unary, apply_patch, execute,
    parse_expression, parse_program, render_program, shadow_merge,
)
from condfix.minilang.patching import DECISIONS_DIFFER
from condfix.pipeline import repair
from test_corpus import COUNTDOWN, SIGN_GUARD

GRID_BUNDLES = ("cl4", "cm5", "pl4", "pm2")
# ``n <= 0``, nested deep enough to raise the frames each call reserves.
DEEP_ZERO = "n <= 0 + 0 * (0 + 0 * (0 + 0 * (0 + 0)))"
CONDITION = PatchKind.CONDITION_UPDATE
PRECONDITION = PatchKind.PRECONDITION_ADDITION


def verdict(a, b, entry, grid, step_budget=DEFAULT_STEP_BUDGET) -> bool:
    """The verdict of both paths, which must agree."""
    merged = check_equivalence(a, b, entry, grid, step_budget)
    assert merged == check_equivalence(rebuilt(a), rebuilt(b), entry, grid, step_budget)
    return merged


def rebuilt(program):
    """The same program without the record of the patch that made it."""
    return Program(program.consts, program.functions)


def child(base, kind, location, text):
    return apply_patch(base, Patch(kind, location, parse_expression(text)))


def flipped(expr):
    """Every expression with one comparison or connective flipped."""
    if isinstance(expr, Unary):
        return [Unary(expr.op, m) for m in flipped(expr.operand)]
    if not isinstance(expr, Binary):
        return []
    return (
        [Binary(op, expr.left, expr.right) for op in _FLIPS.get(expr.op, ())]
        + [Binary(expr.op, m, expr.right) for m in flipped(expr.left)]
        + [Binary(expr.op, expr.left, m) for m in flipped(expr.right)]
    )


@pytest.fixture(scope="module")
def grid_pairs():
    """(bundle, base program, synthesized patch, human patch) per grid bundle."""
    pairs = []
    for name in GRID_BUNDLES:
        bundle = load_bundle(default_corpus_dir() / name)
        baseline = bundle.self_check()
        program, suite = bundle.program, bundle.suite
        report = repair(program, suite, baseline=baseline)
        pairs.append((bundle, program, report.patch, bundle.human))
    return pairs


class TestOrigin:
    def test_apply_patch_records_base_and_patch(self):
        base = parse_program(SIGN_GUARD)
        patch = Patch(CONDITION, 1, parse_expression("x < -1"))
        patched = apply_patch(base, patch)
        assert patched.origin[0] is base and patched.origin[1] == patch
        assert base.origin is None

    def test_a_program_rebuilt_from_a_childs_parts_has_no_origin(self):
        patched = child(parse_program(SIGN_GUARD), CONDITION, 1, "x < -1")
        again = rebuilt(patched)
        assert again.origin is None
        assert render_program(again) == render_program(patched)
        assert shadow_merge(again, patched) is None

    def test_no_merge_without_one_shared_base(self):
        first = child(parse_program(SIGN_GUARD), CONDITION, 1, "x < -1")
        second = child(parse_program(SIGN_GUARD), CONDITION, 1, "x < -2")
        assert shadow_merge(first, second) is None
        assert shadow_merge(first, parse_program(SIGN_GUARD)) is None

    def test_merged_run_throws_where_decisions_differ(self):
        base = parse_program(SIGN_GUARD)
        a = child(base, CONDITION, 1, "x < -1")
        b = child(base, CONDITION, 1, "x < -3")
        merged = shadow_merge(a, b)
        assert execute(merged, "f", [-2]).error == DECISIONS_DIFFER
        assert execute(merged, "f", [-5]).error == "Negative"
        assert execute(merged, "f", [5]).value == 2


class TestDifferential:
    def test_synthesized_against_human_patch(self, grid_pairs):
        for bundle, program, synthesized, human in grid_pairs:
            a, b = apply_patch(program, synthesized), apply_patch(program, human)
            assert verdict(a, b, bundle.entry, bundle.grid), bundle.id

    def test_each_patch_against_its_flipped_mutants(self, grid_pairs):
        distinguished = {}
        for bundle, program, synthesized, human in grid_pairs:
            for side, patch in (("synthesized", synthesized), ("human", human)):
                verdicts = []
                for expr in flipped(patch.expression):
                    a = apply_patch(program, patch)
                    b = apply_patch(program, Patch(patch.kind, patch.location, expr))
                    verdicts.append(verdict(a, b, bundle.entry, bundle.grid))
                    assert verdicts[-1] == verdict(b, a, bundle.entry, bundle.grid)
                distinguished[bundle.id, side] = not all(verdicts)
        # cm5's synthesized patch guards a return whose value the fall-through
        # computes too (the gcd loop of one zero operand), so no guard there
        # changes an output on the grid.
        assert distinguished.pop(("cm5", "synthesized")) is False
        assert all(distinguished.values()), distinguished

    def test_patches_at_different_locations(self, grid_pairs):
        bundle, program, synthesized, human = grid_pairs[GRID_BUNDLES.index("cm5")]
        assert synthesized.location != human.location
        verdicts = []
        for text in ("x < 1", "x < -1"):
            absolute = Patch(CONDITION, 10, parse_expression(text))  # in absInt
            for a_patch, b_patch in [(synthesized, absolute), (absolute, human)]:
                a, b = apply_patch(program, a_patch), apply_patch(program, b_patch)
                verdicts.append(verdict(a, b, bundle.entry, bundle.grid))
                assert verdicts[-1] == verdict(b, a, bundle.entry, bundle.grid)
        assert verdicts == [True, True, False, False]

    @pytest.mark.parametrize("name, condition", [
        ("pl4", (3, "isHexChar && start == seqEnd")),
        ("pl4", (3, "isHexChar || seqEnd < 0")),
        ("pm2", (3, "specific != null && baseLen > -100")),
        ("pm2", (3, "specific != null && baseLen > 0")),
    ])
    def test_condition_update_against_precondition(self, name, condition):
        bundle = load_bundle(default_corpus_dir() / name)
        program = bundle.program
        pre = apply_patch(program, bundle.human)
        cond = child(program, CONDITION, *condition)
        verdict(pre, cond, bundle.entry, bundle.grid)
        verdict(cond, pre, bundle.entry, bundle.grid)

    def test_an_unpatched_if_decides_by_its_base_condition(self):
        base = parse_program(
            "fn f(x: int) -> int {\n  if (x < 0) {\n    return 100;\n  }\n"
            "  return x;\n}\n"
        )
        condition = child(base, CONDITION, 1, "x < 1")
        guarded = child(base, PRECONDITION, 3, "x > -100")
        # At 0 only the updated condition holds: 100 against 0.
        assert not verdict(condition, guarded, "f", GridSpec({"x": [0]}))
        assert not verdict(guarded, condition, "f", GridSpec({"x": [0]}))
        assert verdict(condition, guarded, "f", GridSpec({"x": [-3, 5]}))

    def test_patch_expression_raising_on_some_points(self):
        base = parse_program(SIGN_GUARD)
        grid = GridSpec({"x": list(range(-4, 5))})
        raising = child(base, CONDITION, 1, "10 / x < 0")  # divides by zero at 0
        assert verdict(raising, child(base, CONDITION, 1, "x < 0"), "f", grid)
        assert not verdict(raising, child(base, CONDITION, 1, "x <= 0"), "f", grid)
        assert verdict(raising, child(base, CONDITION, 1, "100 / x < 0"), "f", grid)

    def test_budget_that_only_the_merged_run_exceeds(self):
        base = parse_program(SIGN_GUARD)
        a = child(base, CONDITION, 1, "x < -1")
        b = child(base, CONDITION, 1, "x < 0 && x < -2")
        budget = max(execute(a, "f", [5]).steps, execute(b, "f", [5]).steps)
        assert execute(shadow_merge(a, b), "f", [5], step_budget=budget).timed_out
        assert verdict(a, b, "f", GridSpec({"x": [5]}), step_budget=budget)

    @pytest.mark.parametrize("a_text, b_text, expected", [
        ("n <= 0", "n < 1", True),
        ("n <= 0", "n <= 1", False),
        (DEEP_ZERO, "n < 1", False),
        (DEEP_ZERO, "n < 1 + 0 * (0 + 0 * (0 + 0 * (0 + 0)))", True),
    ])
    def test_recursion_near_the_call_depth_limit(self, a_text, b_text, expected):
        # Each side stops at its own number of active calls (100 for the
        # shallow conditions, fewer for the deep ones); the merged program,
        # one check deeper, stops a few calls before either side.
        base = parse_program(COUNTDOWN)
        a, b = child(base, CONDITION, 1, a_text), child(base, CONDITION, 1, b_text)
        grid = GridSpec({"n": list(range(30, 110))})
        assert verdict(a, b, "down", grid) is expected
        assert verdict(b, a, "down", grid) is expected


class TestStatementGuardedOnOneSide:
    """A precondition only one side adds wraps its statement in a block."""

    def test_guarded_declaration_leaves_scope(self):
        base = parse_program(
            "fn f(x: int) -> int {\n  let y: int = x + 1;\n  if (x > 0) {\n"
            "    return y;\n  }\n  return 0;\n}\n"
        )
        grid = GridSpec({"x": [-1, 1]})
        condition = child(base, CONDITION, 2, "x > 0")
        guarded = child(base, PRECONDITION, 1, "x > -100")
        # With the guard, y is gone after its block: returning it fails.
        assert not verdict(condition, guarded, "f", grid)
        assert not verdict(guarded, condition, "f", grid)

    def test_guarded_statement_reserves_its_nesting(self):
        base = parse_program(
            "fn down(n: int) -> int {\n  let m: int = n;\n  if (n <= 0) {\n"
            "    return 0;\n  }\n  m = (((((m - 1) + 0) + 0) + 0) + 0) + 0;\n"
            "  return down(m);\n}\n"
        )
        # The guard nests the assignment two closures deeper, so each call
        # of the guarded side reserves more frames and 56 active calls pass
        # its depth limit but not the other side's.
        condition = child(base, CONDITION, 2, "n < 1")
        guarded = child(base, PRECONDITION, 4, "n > 0")
        grid = GridSpec({"n": [40, 55]})
        assert not verdict(condition, guarded, "down", grid)
        assert not verdict(guarded, condition, "down", grid)
        assert verdict(condition, guarded, "down", GridSpec({"n": [10, 40]}))
