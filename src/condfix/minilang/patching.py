"""Program edits: patches (condition updates and precondition additions),
angelic decisions and the trace probe.

Applying a patch produces a new program and leaves its input as it was;
every location other than the patched one is preserved, which keeps
diff-style reporting stable. The new program copies only the statements
that enclose the patched location, and their function; every other
statement, every expression and ``consts`` are shared with the input
(path copying, after Driscoll, Sarnak, Sleator & Tarjan, "Making data
structures persistent", JCSS 1989). This is sound because statements are
frozen and blocks are tuples (see ``ast``): nothing a program shares can
change under it. The new program also shares its input's table of lowered
closures and their frame slots, so it lowers only the statements on the
copied path (see ``interp``), and only they compute their call-depth
share (see ``ast.depth``).

A statement wrapped by a new precondition keeps executing under the guard
and is re-addressed at a fresh location past the current maximum. The new
program records its base and the patch as ``origin``, which lets
``shadow_merge`` run two one-patch children of one base as one program.

``decide`` makes the edit an angelic trial runs. It replaces an ``if``
condition with a zero-step ``Forced`` node, whose value a probed ``if``
still stores as the condition's, or for ``SKIP`` drops a plain statement
from its block. ``probe`` makes the edit trace collection runs: it marks
one statement, whose state every run of the new program snapshots. A
decided or probed program records no ``origin``.
"""
from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Callable, Optional

from ..errors import KindMismatchError, PatchScopeError, ResolutionError
from .ast import (
    BLOCKS, Binary, Block, BoolLit, Expr, Forced, IfStmt, Program, StatementKind, Stmt,
    ThrowStmt,
)
from .parser import resolve_expr
from .printer import render_expr

# Thrown by a shadow_merge check; no MiniLang source can name it.
DECISIONS_DIFFER = "$DecisionsDiffer"

SKIP = None  # the decision that drops a statement instead of forcing it


class PatchKind(enum.Enum):
    CONDITION_UPDATE = "condition-update"
    PRECONDITION_ADDITION = "precondition-addition"

    @property
    def statement_kind(self) -> StatementKind:
        """The kind of statement a patch of this kind applies to."""
        return StatementKind.IF if self is PatchKind.CONDITION_UPDATE else StatementKind.PLAIN


@dataclasses.dataclass(frozen=True)
class Patch:
    kind: PatchKind
    location: int
    expression: Expr

    @property
    def expression_text(self) -> str:
        return render_expr(self.expression)


def apply_patch(program: Program, patch: Patch) -> Program:
    """Return a new program with the patch applied.

    Raises KindMismatchError if the patch kind does not fit the statement
    kind, and PatchScopeError if the expression references names that are
    not visible at the patched location.
    """
    _require(program, patch.location, patch.kind.statement_kind, patch.kind.value)
    scope = program.scope_at(patch.location)
    try:
        resolve_expr(patch.expression, scope, program)
    except ResolutionError as exc:
        raise PatchScopeError(str(exc)) from exc

    if patch.kind == PatchKind.CONDITION_UPDATE:
        def edit(stmt: Stmt) -> Block:
            return (dataclasses.replace(stmt, cond=patch.expression),)
    else:
        fresh = program.max_location() + 1

        def edit(stmt: Stmt) -> Block:
            moved = dataclasses.replace(stmt, loc=fresh)
            return (IfStmt(cond=patch.expression, then_body=(moved,), loc=patch.location),)

    patched = _replace_statement(program, patch.location, edit)
    patched.origin = (program, patch)
    return patched


def decide(program: Program, loc: int, decision: Optional[bool]) -> Program:
    """A new program with the condition of the ``if`` at ``loc`` forced to
    ``decision``, or for ``SKIP`` the plain statement at ``loc`` dropped.
    Raises KindMismatchError on any other statement kind."""
    if decision is SKIP:
        _require(program, loc, StatementKind.PLAIN, "a skip")
        return _replace_statement(program, loc, lambda stmt: ())
    _require(program, loc, StatementKind.IF, "a forced condition")
    return _replace_statement(
        program, loc, lambda stmt: (dataclasses.replace(stmt, cond=Forced(decision)),)
    )


def probe(program: Program, loc: int) -> Program:
    """A new program whose statement at ``loc`` is probed: each time a run
    reaches it, the run appends a snapshot of the state to its
    ``snapshots`` (see ``interp``). Raises KeyError on an unknown location."""
    return _replace_statement(program, loc, lambda stmt: (dataclasses.replace(stmt, probe=True),))


def shadow_merge(program_a: Program, program_b: Program) -> Optional[Program]:
    """One program that runs like ``program_a`` and throws DECISIONS_DIFFER
    wherever ``program_b`` would decide differently; None unless both are
    one-patch children of the same base object.

    A side's decision at a patched location is its patch expression if it
    patched there, else the base condition of an if and ``true`` for a
    plain statement. Just before each location either side patched, the
    merged program checks ``if (<a's decision> != <b's decision>)``. A
    statement only ``program_b`` guards is also wrapped in ``if (true)``,
    so that its declarations go out of scope and its closures nest as in
    ``program_b``.

    Expressions are pure, and each check runs in the state of the decision
    after it, so while no check throws both sides take the merged run's
    path. Every statement and expression either side evaluates, the merged
    run evaluates too, at a closure nesting at least as deep: its steps and
    per-call frame reservation are at least each side's. A merged run that
    returns a value therefore shows that both sides return it within the
    same step budget and call depth.
    """
    if program_a.origin is None or program_b.origin is None:
        return None
    base, patch_a = program_a.origin
    base_b, patch_b = program_b.origin
    if base is not base_b:
        return None

    def decision(patch: Patch, loc: int) -> Expr:
        if patch.location == loc:
            return patch.expression
        stmt = base.statement_at(loc)
        return stmt.cond if isinstance(stmt, IfStmt) else BoolLit(True)

    merged = program_a
    fresh = itertools.count(program_a.max_location() + 1)
    for loc in sorted({patch_a.location, patch_b.location}):
        check = IfStmt(
            cond=Binary("!=", decision(patch_a, loc), decision(patch_b, loc)),
            then_body=(ThrowStmt(DECISIONS_DIFFER, loc=next(fresh)),),
            loc=next(fresh),
        )
        mirror = (patch_b.kind is PatchKind.PRECONDITION_ADDITION
                  and patch_b.location == loc != patch_a.location)

        def insert(stmt: Stmt) -> Block:
            if mirror:
                stmt = IfStmt(cond=BoolLit(True), then_body=(stmt,), loc=next(fresh))
            return (check, stmt)

        merged = _replace_statement(merged, loc, insert)
    return merged


def _require(program: Program, loc: int, kind: StatementKind, edit: str) -> None:
    found = program.kind_of(loc)
    if found != kind:
        raise KindMismatchError(
            f"{edit} requires statement kind {kind.value} at {loc}, found {found.value}"
        )


def _replace_statement(
    program: Program, loc: int, replace: Callable[[Stmt], Block]
) -> Program:
    """A new program with ``replace(stmt)`` in place of the statement at
    ``loc`` in its block.

    Only the function that holds ``loc`` and the statements that enclose
    it are copied (path copying); every other statement, every expression,
    ``consts`` and the closure table are shared with ``program``, which is
    left as it was.
    """
    fn = program.functions[program.function_of(loc)]
    functions = dict(program.functions)
    functions[fn.name] = dataclasses.replace(fn, body=_rewrite(fn.body, loc, replace))
    return Program(consts=program.consts, functions=functions, closures=program.closures,
                   slots=program.slots)


def _rewrite(stmts: Block, loc: int, replace: Callable[[Stmt], Block]) -> Optional[Block]:
    """``stmts`` with ``replace(stmt)`` in place of the statement at ``loc``,
    copying each enclosing statement; None if ``loc`` is not in ``stmts``.
    A module-level function, not a closure, so that no reference cycle
    keeps an edit alive past its last use."""
    for i, s in enumerate(stmts):
        if s.loc == loc:
            return stmts[:i] + replace(s) + stmts[i + 1:]
        for name in BLOCKS.get(type(s), ()):
            block = _rewrite(getattr(s, name), loc, replace)
            if block is not None:
                return stmts[:i] + (dataclasses.replace(s, **{name: block}),) + stmts[i + 1:]
    return None
