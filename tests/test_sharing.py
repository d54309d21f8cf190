"""Edited programs share every statement off the edit's path with their base.

``apply_patch``, ``decide``, ``shadow_merge`` and mutation seeding copy
only the statements that enclose the edited location (and the edited
statement itself); every other statement, every expression, ``consts``
and the table of lowered closures stay shared with the input. Each case
here checks that the input is left as it was, which statements are shared
and which are new, which closures an edit lowers, and that runs of the
base, its edited children and their merge, interleaved over two threads,
equal lone runs of programs built from fresh parses.
"""
import dataclasses
import sys
import threading

import pytest

from condfix import corpus
from condfix.corpus import builtin_seed_sources, seed_condition_bugs
from condfix.minilang import (
    SKIP, IfStmt, Patch, PatchKind, WhileStmt, apply_patch, decide, execute,
    parse_expression, parse_program, render_program, shadow_merge,
)

CONDITION = PatchKind.CONDITION_UPDATE
PRECONDITION = PatchKind.PRECONDITION_ADDITION

# Locations: 1 let acc, 2 let i, 3 while, 4 if, 5 acc =, 6 let d, 7 acc =,
# 8 i =, 9 if, 10 return, 11 return; in g: 12 if, 13 return, 14 return.
BASE = """\
const LIMIT: int = 40;

fn f(x: int, n: int) -> int {
  let acc: int = 0;
  let i: int = 0;
  while (i < n) {
    if (x > i) {
      acc = acc + x;
    } else {
      let d: int = i - x;
      acc = acc + d;
    }
    i = i + 1;
  }
  if (acc > LIMIT) {
    return LIMIT;
  }
  return acc + g(x);
}

fn g(y: int) -> int {
  if (y < 0) {
    return 0 - y;
  }
  return y;
}
"""

ARGS = [[x, n] for x in (-3, 0, 2, 9) for n in (0, 1, 3, 6)]

# (kind, location, expression) per patch.
NESTED_CONDITION = (CONDITION, 4, "x >= i")
OUTER_CONDITION = (CONDITION, 9, "acc >= LIMIT")
NESTED_PRECONDITION = (PRECONDITION, 5, "x != 2")
GUARDED_LET = (PRECONDITION, 6, "i > 0")
OTHER_FUNCTION = (CONDITION, 12, "y <= 0")


def patch_of(spec) -> Patch:
    kind, location, text = spec
    return Patch(kind, location, parse_expression(text))


def enclosing(program, loc):
    """Locations of the statements that strictly enclose ``loc``."""
    def search(stmts, chain):
        for s in stmts:
            if s.loc == loc:
                return chain
            blocks = ([s.then_body, s.else_body] if isinstance(s, IfStmt)
                      else [s.body] if isinstance(s, WhileStmt) else [])
            for block in blocks:
                found = search(block, chain + [s.loc])
                if found is not None:
                    return found
        return None

    return set(search(program.functions[program.function_of(loc)].body, []))


def snapshot(program):
    """The text, the objects and a shallow copy of every statement's fields
    (blocks as the identities of their statements)."""
    def shallow(value):
        return tuple(map(id, value)) if isinstance(value, tuple) else value

    return (
        render_program(program),
        program.consts,
        {name: (fn, fn.body, tuple(map(id, fn.body))) for name, fn in program.functions.items()},
        {
            loc: (program.statement_at(loc), {
                f.name: shallow(getattr(program.statement_at(loc), f.name))
                for f in dataclasses.fields(program.statement_at(loc))
            })
            for loc in program.locations()
        },
    )


def assert_unchanged(before, program):
    text, consts, functions, statements = before
    now_text, now_consts, now_functions, now_statements = snapshot(program)
    assert now_text == text
    assert now_consts is consts
    assert now_functions.keys() == functions.keys()
    for name, (fn, body, ids) in functions.items():
        assert now_functions[name][0] is fn and now_functions[name][1] is body
        assert now_functions[name][2] == ids
    assert now_statements.keys() == statements.keys()
    for loc, (stmt, fields) in statements.items():
        assert now_statements[loc][0] is stmt, loc
        assert now_statements[loc][1] == fields, loc


def assert_path_copied(source, result, edits, edited_is_new=True):
    """The statements that enclose each location in ``edits`` (and the one
    at it, if ``edited_is_new``) and their functions are new objects in
    ``result``; every other statement and function of ``source``, and
    ``consts``, are the same objects."""
    new = set().union(*(enclosing(source, loc) for loc in edits))
    if edited_is_new:
        new |= set(edits)
    new_functions = {source.function_of(loc) for loc in edits}
    assert result.consts is source.consts
    for name, fn in source.functions.items():
        assert (result.functions[name] is fn) is (name not in new_functions), name
    for loc in source.locations():
        shared = result.statement_at(loc) is source.statement_at(loc)
        assert shared is (loc not in new), loc


def outcome(result):
    return result.value, result.error, result.timed_out, result.steps, result.hits


def interleaved_runs(programs, entry, args):
    """Outcome per (program index, argument index), from two threads that
    walk the programs in opposite orders."""
    outcomes = [{}, {}]
    barrier = threading.Barrier(2)

    def work(slot, order):
        barrier.wait()
        for j, call_args in enumerate(args):
            for i in order:
                outcomes[slot][i, j] = outcome(execute(programs[i], entry, call_args))

    order = list(range(len(programs)))
    threads = [threading.Thread(target=work, args=(0, order)),
               threading.Thread(target=work, args=(1, order[::-1]))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-run
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # A thread that raised leaves its outcomes short.
    assert len(outcomes[0]) == len(outcomes[1]) == len(programs) * len(args)
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def assert_runs_match_fresh_parses(shared, build_fresh, entry, args):
    """``shared`` programs run interleaved equal lone runs of the programs
    ``build_fresh()`` makes from a fresh parse, a new one per run."""
    runs = interleaved_runs(shared, entry, args)
    for (i, j), got in runs.items():
        assert got == outcome(execute(build_fresh()[i], entry, args[j])), (i, args[j])


def children_and_merge(base, spec_a, spec_b):
    a = apply_patch(base, patch_of(spec_a))
    b = apply_patch(base, patch_of(spec_b))
    return a, b, shadow_merge(a, b)


class TestApplyPatch:
    @pytest.mark.parametrize("spec", [
        NESTED_CONDITION, OUTER_CONDITION, OTHER_FUNCTION, NESTED_PRECONDITION, GUARDED_LET,
    ], ids=["nested-condition", "outer-condition", "other-function",
            "nested-precondition", "guarded-let"])
    def test_copies_only_the_path_and_leaves_the_base(self, spec):
        base = parse_program(BASE)
        before = snapshot(base)
        patched = apply_patch(base, patch_of(spec))
        assert_unchanged(before, base)
        location = spec[1]
        assert_path_copied(base, patched, [location])
        if spec[0] is PRECONDITION:
            guard = patched.statement_at(location)
            moved = guard.then_body[0]
            assert moved.loc == base.max_location() + 1
            assert dataclasses.replace(moved, loc=location) == base.statement_at(location)
            assert moved.value is base.statement_at(location).value
        # The expressions of the edited statement stay shared.
        edited = patched.statement_at(location)
        assert edited.cond is patched.origin[1].expression

    @pytest.mark.parametrize("spec", [NESTED_CONDITION, NESTED_PRECONDITION, GUARDED_LET],
                             ids=["condition", "precondition", "guarded-let"])
    def test_runs_match_fresh_parses(self, spec):
        def build():
            base = parse_program(BASE)
            return [base, apply_patch(base, patch_of(spec))]

        assert_runs_match_fresh_parses(build(), build, "f", ARGS)


# (location, decision) per decision.
DECISIONS = [(4, True), (9, False), (12, True), (5, SKIP), (6, SKIP)]
DECISION_IDS = ["nested-if", "outer-if", "other-function", "nested-skip", "skipped-let"]


class TestDecide:
    @pytest.mark.parametrize("loc, decision", DECISIONS, ids=DECISION_IDS)
    def test_copies_only_the_path_and_leaves_the_base(self, loc, decision):
        base = parse_program(BASE)
        before = snapshot(base)
        decided = decide(base, loc, decision)
        assert_unchanged(before, base)
        assert decided.origin is None
        if decision is SKIP:
            assert set(decided.locations()) == set(base.locations()) - {loc}
            new = enclosing(base, loc)
            for other in decided.locations():
                shared = decided.statement_at(other) is base.statement_at(other)
                assert shared is (other not in new), other
        else:
            assert_path_copied(base, decided, [loc])
            assert decided.statement_at(loc).cond.value is decision
            assert decided.statement_at(loc).then_body is base.statement_at(loc).then_body

    @pytest.mark.parametrize("loc, decision", DECISIONS, ids=DECISION_IDS)
    def test_runs_match_fresh_parses(self, loc, decision):
        def build():
            base = parse_program(BASE)
            return [base, decide(base, loc, decision)]

        assert_runs_match_fresh_parses(build(), build, "f", ARGS)


def new_closures(program, before):
    """The keys ``program``'s runs added to the closure table that are not
    in ``before``."""
    return {key for key in program.closures if key not in before}


def lowered_nodes(program):
    """Id -> node of every node with a closure in the table: statements,
    functions and the conditions of ifs and whiles."""
    stmts = [program.statement_at(loc) for loc in program.locations()]
    conds = [s.cond for s in stmts if isinstance(s, (IfStmt, WhileStmt))]
    return {id(node): node for node in [*stmts, *program.functions.values(), *conds]}


class TestClosureSharing:
    """A child lowers closures only for what it does not share with its
    base: the statements on the edited path and the edited function."""

    @pytest.mark.parametrize("edit", [
        *(lambda base, d=d: decide(base, *d) for d in DECISIONS),
        *(lambda base, s=s: apply_patch(base, patch_of(s))
          for s in (NESTED_CONDITION, OUTER_CONDITION, OTHER_FUNCTION, NESTED_PRECONDITION)),
        lambda base: shadow_merge(*(apply_patch(base, patch_of(s))
                                    for s in (NESTED_CONDITION, GUARDED_LET))),
    ], ids=[f"decide-{i}" for i in DECISION_IDS]
       + ["patch-nested-condition", "patch-outer-condition", "patch-other-function",
          "patch-nested-precondition", "merge"])
    def test_a_child_lowers_only_its_edited_path(self, edit):
        base = parse_program(BASE)
        branches = [loc for loc in base.locations()
                    if isinstance(base.statement_at(loc), (IfStmt, WhileStmt))]
        execute(base, "f", ARGS[0])
        before = set(base.closures)
        assert len(before) == (len(base.locations()) + len(branches)
                               + len(base.functions))
        base_nodes = lowered_nodes(base)
        assert before == set(base_nodes)
        child = edit(base)
        assert child.closures is base.closures
        unshared = {key for key in lowered_nodes(child) if key not in base_nodes}
        execute(child, "f", ARGS[0])
        assert new_closures(child, before) == unshared
        # Running it again, or running the base, lowers nothing more.
        lowered = set(child.closures)
        execute(child, "f", ARGS[1])
        execute(base, "f", ARGS[1])
        assert set(child.closures) == lowered


class TestShadowMerge:
    @pytest.mark.parametrize("spec_a, spec_b", [
        (NESTED_CONDITION, OUTER_CONDITION),
        (OUTER_CONDITION, GUARDED_LET),
        (NESTED_PRECONDITION, OTHER_FUNCTION),
    ], ids=["two-conditions", "condition-and-guarded-let", "two-functions"])
    def test_copies_only_the_paths_and_leaves_its_inputs(self, spec_a, spec_b):
        base = parse_program(BASE)
        a = apply_patch(base, patch_of(spec_a))
        b = apply_patch(base, patch_of(spec_b))
        before = [snapshot(p) for p in (base, a, b)]
        merged = shadow_merge(a, b)
        for snap, program in zip(before, (base, a, b)):
            assert_unchanged(snap, program)
        # The checks go into the blocks that hold the two locations; the
        # statements at those locations themselves stay shared.
        assert_path_copied(a, merged, [spec_a[1], spec_b[1]], edited_is_new=False)

    @pytest.mark.parametrize("spec_a, spec_b", [
        (NESTED_CONDITION, OUTER_CONDITION),
        (OUTER_CONDITION, GUARDED_LET),
        (NESTED_PRECONDITION, OTHER_FUNCTION),
    ], ids=["two-conditions", "condition-and-guarded-let", "two-functions"])
    def test_runs_match_fresh_parses(self, spec_a, spec_b):
        def build():
            base = parse_program(BASE)
            return [base, *children_and_merge(base, spec_a, spec_b)]

        assert_runs_match_fresh_parses(build(), build, "f", ARGS)


class TestSeeding:
    def test_mutants_share_the_seed_program(self, monkeypatch):
        seed_id, program_text, suite_text, entry = builtin_seed_sources()[0]
        programs = []
        original = corpus.run_suite

        def recording(program, suite, **kwargs):
            if not programs:
                programs.append((program, snapshot(program)))
            elif all(program is not p for p, _ in programs):
                programs.append((program, None))
            return original(program, suite, **kwargs)

        monkeypatch.setattr(corpus, "run_suite", recording)
        assert seed_condition_bugs(seed_id, program_text, suite_text, entry)
        (base, before), *mutants = programs
        assert len(mutants) > 2
        assert_unchanged(before, base)

        for mutant, _ in mutants:
            changed = [
                loc for loc in base.locations()
                if isinstance(base.statement_at(loc), IfStmt)
                and mutant.statement_at(loc).cond != base.statement_at(loc).cond
            ]
            assert len(changed) == 1
            assert_path_copied(base, mutant, changed)

        # Two mutants of one seed merge, and everything runs as fresh parses do.
        first, second = mutants[0][0], mutants[-1][0]
        specs = [
            (CONDITION, p.origin[1].location, p.origin[1].expression) for p in (first, second)
        ]
        shared = [base, first, second, shadow_merge(first, second)]

        def build():
            fresh = parse_program(program_text)
            children = [apply_patch(fresh, Patch(*spec)) for spec in specs]
            return [fresh, *children, shadow_merge(*children)]

        args = [[x, lo, hi] for x in (-4, 0, 3, 9, 12) for lo, hi in ((0, 10), (3, 3), (-9, -2))]
        assert_runs_match_fresh_parses(shared, build, entry, args)
