"""Patches: condition updates and precondition additions.

Applying a patch produces a new program; every location other than the
patched one is preserved, which keeps diff-style reporting stable. A
statement wrapped by a new precondition keeps executing under the guard
and is re-addressed at a fresh location past the current maximum.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import KindMismatchError, PatchScopeError, ResolutionError
from .ast import Expr, IfStmt, Program, StatementKind
from .parser import resolve_expr
from .printer import render_expr


class PatchKind(enum.Enum):
    CONDITION_UPDATE = "condition-update"
    PRECONDITION_ADDITION = "precondition-addition"

    @property
    def statement_kind(self) -> StatementKind:
        """The kind of statement a patch of this kind applies to."""
        return StatementKind.IF if self is PatchKind.CONDITION_UPDATE else StatementKind.PLAIN


@dataclass(frozen=True)
class Patch:
    kind: PatchKind
    location: int
    expression: Expr

    @property
    def expression_text(self) -> str:
        return render_expr(self.expression)

    def describe(self) -> str:
        return f"{self.kind.value} at location {self.location}: {self.expression_text}"


def apply_patch(program: Program, patch: Patch) -> Program:
    """Return a new program with the patch applied.

    Raises KindMismatchError if the patch kind does not fit the statement
    kind, and PatchScopeError if the expression references names that are
    not visible at the patched location.
    """
    kind = program.kind_of(patch.location)
    if kind != patch.kind.statement_kind:
        raise KindMismatchError(
            f"{patch.kind.value} requires statement kind {patch.kind.statement_kind.value}"
            f" at {patch.location}, found {kind.value}"
        )

    scope = program.scope_at(patch.location)
    try:
        resolve_expr(patch.expression, scope, program)
    except ResolutionError as exc:
        raise PatchScopeError(str(exc)) from exc

    patched = program.clone()
    if patch.kind == PatchKind.CONDITION_UPDATE:
        stmt = patched.statement_at(patch.location)
        stmt.cond = patch.expression
    else:
        fresh = patched.max_location() + 1
        _wrap_statement(patched, patch.location, patch.expression, fresh)
    patched.reindex()
    return patched


def _wrap_statement(program: Program, loc: int, guard: Expr, fresh_loc: int) -> None:
    def rewrite(stmts) -> bool:
        for i, s in enumerate(stmts):
            if s.loc == loc:
                s.loc = fresh_loc
                stmts[i] = IfStmt(cond=guard, then_body=[s], else_body=[], loc=loc)
                return True
            if isinstance(s, IfStmt):
                if rewrite(s.then_body) or rewrite(s.else_body):
                    return True
            elif hasattr(s, "body"):
                if rewrite(s.body):
                    return True
        return False

    for fn in program.functions.values():
        if rewrite(fn.body):
            return
    raise KeyError(f"unknown location {loc}")
