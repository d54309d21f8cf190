"""Name resolution errors and the scope visible at each location.

One case per ``ResolutionError`` the parser raises, with its message, and
the first error of a program with several. ``Program.scope_at`` is checked
at every location of the packaged and seeded bundle programs, of their
patched children and of the children's merge, against a reference search
kept here: parameters plus the ``let``s declared earlier in the enclosing
block chain.
"""
import re

import pytest

from condfix.corpus import builtin_seeded_bundles, default_corpus_dir, load_corpus
from condfix.errors import ResolutionError
from condfix.minilang import (
    IfStmt, LetStmt, WhileStmt, apply_patch, parse_program, shadow_merge,
)
from condfix.pipeline import repair
from test_sharing import BASE, GUARDED_LET, NESTED_PRECONDITION, OUTER_CONDITION, patch_of

# (source, message of the ResolutionError, or None when it resolves).
CASES = {
    "duplicate-parameter": (
        "fn f(x: int, x: int) -> int { return x; }",
        "duplicate parameter 'x' in 'f'",
    ),
    "duplicate-let": (
        "fn f(x: int) -> int { let a: int = 1; let a: int = 2; return a; }",
        "duplicate declaration of 'a' in 'f'",
    ),
    "let-shadows-a-parameter": (
        "fn f(x: int) -> int { let x: int = 1; return x; }",
        "duplicate declaration of 'x' in 'f'",
    ),
    "nested-let-shadows-an-outer-let": (
        "fn f(x: int) -> int { let a: int = 1; if (x > 0) { let a: int = 2; } return a; }",
        "duplicate declaration of 'a' in 'f'",
    ),
    "name-reused-in-later-sibling-blocks": (
        "fn f(x: int) -> int {\n"
        "  if (x > 0) { let t: int = 1; x = t; } else { let t: int = 2; x = t; }\n"
        "  while (x > 9) { let t: int = x - 1; x = t; }\n"
        "  let t: int = x;\n"
        "  return t;\n"
        "}",
        None,
    ),
    "assignment-to-undeclared-variable": (
        "fn f(x: int) -> int { z = 1; return x; }",
        "assignment to undeclared variable 'z'",
    ),
    "block-local-used-after-its-block": (
        "fn f(x: int) -> int { if (x > 0) { let t: int = 1; } return t; }",
        "unresolved identifier 't'",
    ),
    "unresolved-identifier": (
        "fn f(x: int) -> int { return y; }",
        "unresolved identifier 'y'",
    ),
    "undefined-function": (
        "fn f(x: int) -> int { return h(x); }",
        "call to undefined function 'h'",
    ),
    "wrong-call-arity": (
        "fn f(x: int) -> int { return g(x, x); }\nfn g(y: int) -> int { return y; }",
        "'g' expects 1 arguments, got 2",
    ),
    "method-call-on-a-primitive": (
        "fn f(x: int) -> int { return x.length(); }",
        "method call on non-class variable 'x'",
    ),
    "unregistered-method": (
        "fn f(s: Str) -> int { return s.reverse(); }",
        "no state query 'reverse' registered for class 'Str'",
    ),
    # With several errors, the first in source order is reported: a
    # condition before its body, a body before a later statement, one
    # function (parameters, then body) before the next.
    "condition-before-its-body": (
        "fn f(x: int) -> int { if (a > 0) { return b; } return c; }",
        "unresolved identifier 'a'",
    ),
    "nested-body-before-a-later-statement": (
        "fn f(x: int) -> int { while (x > 0) { x = b; } return c; }",
        "unresolved identifier 'b'",
    ),
    "earlier-function-first": (
        "fn f(x: int) -> int { return a; }\nfn g(y: int, y: int) -> int { return y; }",
        "unresolved identifier 'a'",
    ),
    "parameters-before-body": (
        "fn f(x: int) -> int { return x; }\nfn g(y: int, y: int) -> int { return b; }",
        "duplicate parameter 'y' in 'g'",
    ),
}


@pytest.mark.parametrize("source, message", CASES.values(), ids=CASES.keys())
def test_resolution(source, message):
    if message is None:
        parse_program(source)
    else:
        with pytest.raises(ResolutionError, match=f"^{re.escape(message)}$"):
            parse_program(source)


def reference_scope(program, loc):
    """Parameters plus the lets declared earlier in the block chain that
    encloses ``loc``, found by searching the function's statements."""
    fn = program.functions[program.function_of(loc)]

    def search(stmts, outer):
        seen = dict(outer)
        for s in stmts:
            if s.loc == loc:
                return seen
            blocks = ([s.then_body, s.else_body] if isinstance(s, IfStmt)
                      else [s.body] if isinstance(s, WhileStmt) else [])
            for block in blocks:
                hit = search(block, seen)
                if hit is not None:
                    return hit
            if isinstance(s, LetStmt):
                seen[s.name] = s.type
        return None

    return search(fn.body, {p.name: p.type for p in fn.params})


def corpus_programs():
    """(name, program) for each bundle program, its synthesized and human
    children, and their merge."""
    programs = []
    for bundle in load_corpus(default_corpus_dir()) + builtin_seeded_bundles():
        baseline = bundle.self_check()
        program, suite = bundle.program, bundle.suite
        programs.append((bundle.id, program))
        human = apply_patch(program, bundle.human)
        programs.append((f"{bundle.id}/human", human))
        report = repair(program, suite, baseline=baseline)
        if report.patched:
            patched = apply_patch(program, report.patch)
            programs.append((f"{bundle.id}/patched", patched))
            programs.append((f"{bundle.id}/merged", shadow_merge(patched, human)))
    return programs


def guarded_let_programs():
    """A let wrapped by a precondition, alone and merged with other children."""
    base = parse_program(BASE)
    guarded = apply_patch(base, patch_of(GUARDED_LET))
    return [
        ("guarded-let", guarded),
        ("guarded-let/merged", shadow_merge(apply_patch(base, patch_of(OUTER_CONDITION)), guarded)),
        ("guarded-let/mirrored", shadow_merge(apply_patch(base, patch_of(NESTED_PRECONDITION)), guarded)),
    ]


def test_scope_at_matches_the_reference_search_everywhere():
    programs = corpus_programs()
    assert sum(1 for name, _ in programs if "/" not in name) == 18
    programs += guarded_let_programs()
    checked = 0
    for name, program in programs:
        for loc in program.locations():
            assert program.scope_at(loc) == reference_scope(program, loc), (name, loc)
            checked += 1
    assert checked > 500


def test_a_guarded_let_leaves_scope_after_its_guard():
    # Locations 6 (let d) and 7 (acc = acc + d) share the else block of
    # BASE; the guard moves the let to a fresh location inside it.
    base = parse_program(BASE)
    guarded = apply_patch(base, patch_of(GUARDED_LET))
    moved = guarded.statement_at(6).then_body[0].loc
    assert "d" in base.scope_at(7)
    assert "d" not in guarded.scope_at(7)
    assert guarded.scope_at(moved) == guarded.scope_at(6) == base.scope_at(6)
