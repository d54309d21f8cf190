"""AST for MiniLang programs.

Statements carry stable integer locations, assigned in source order during
parsing. Every node is a frozen dataclass and every block a tuple, so no
node changes once built: programs made by patching share statements with
their base (see ``patching``), and so do the closures the interpreter
lowered them to (see ``interp``), which stay valid for as long as the
node lives. A ``Program`` indexes its statements, the function of each and
the scope at each in one walk when it is built.

The call-depth rule lives here too (``depth``). Each statement computes
its share of it once, so a path-copied program recomputes only the
statements on its copied path.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from .values import Value


# --- expressions ----------------------------------------------------------


class Expr:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class RealLit(Expr):
    value: float


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class NullLit(Expr):
    pass


@dataclass(frozen=True)
class VarRef(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-" | "!"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # || && == != < <= > >= + - * / %
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Forced(Expr):
    value: bool  # a condition forced by ``patching.decide``; it takes no step


@dataclass(frozen=True)
class MethodCall(Expr):
    receiver: str  # variable name of a class-typed binding
    method: str


@dataclass(frozen=True)
class CallExpr(Expr):
    func: str
    args: Tuple[Expr, ...]


def nesting(expr: Expr) -> int:
    """The levels ``expr`` nests: one per node, and two for a method call
    and its receiver. It is also the most Python frames the expression's
    lowered closures stack up (see ``interp``)."""
    if isinstance(expr, Unary):
        return 1 + nesting(expr.operand)
    if isinstance(expr, Binary):
        return 1 + max(nesting(expr.left), nesting(expr.right))
    if isinstance(expr, MethodCall):
        return 2
    if isinstance(expr, CallExpr):
        return 1 + max(map(nesting, expr.args), default=0)
    return 1


# --- statements -----------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    """A statement; each kind adds its fields and ``loc``, its location.
    ``probe`` marks the statement whose state a run snapshots (see
    ``patching.probe``); it takes no part in comparison or repr."""

    probe: bool = field(default=False, kw_only=True, compare=False, repr=False)

    @cached_property
    def frames(self) -> int:
        """The frames the statement adds to its block's depth (see
        ``depth``), computed once per node."""
        return _frames(self)


Block = Tuple["Stmt", ...]  # a string: see ``values.Value``


@dataclass(frozen=True)
class LetStmt(Stmt):
    name: str
    type: str
    value: Expr
    loc: int = 0


@dataclass(frozen=True)
class AssignStmt(Stmt):
    name: str
    value: Expr
    loc: int = 0


@dataclass(frozen=True)
class IfStmt(Stmt):
    cond: Expr
    then_body: Block = ()
    else_body: Block = ()
    loc: int = 0


@dataclass(frozen=True)
class WhileStmt(Stmt):
    cond: Expr
    body: Block = ()
    loc: int = 0


@dataclass(frozen=True)
class ReturnStmt(Stmt):
    value: Expr
    loc: int = 0


@dataclass(frozen=True)
class ThrowStmt(Stmt):
    error: str
    loc: int = 0


@dataclass(frozen=True)
class CallStmt(Stmt):
    call: CallExpr
    loc: int = 0


# The blocks of each statement type that has any.
BLOCKS = {IfStmt: ("then_body", "else_body"), WhileStmt: ("body",)}


def depth(block: Block) -> int:
    """The closure-nesting depth of ``block``: the most Python frames its
    lowered closures stack up (see ``interp``), not counting the callees of
    a call or the leaf helpers (operators, snapshots, registry methods). A
    call reserves its function body's depth plus one.

    A block, a statement and an expression node are one frame each, and a
    return is its expression alone. An ``if`` or ``while`` condition counts
    one level around its expression: the frame of a probed ``if``'s
    condition, which snapshots the state as the condition starts. So the
    depth is the same however the interpreter lowers the block and
    whichever statement is probed; a forced condition or a skipped
    statement is an edit, whose program reserves what it needs itself."""
    return max((s.frames for s in block), default=0)


def _frames(stmt: Stmt) -> int:
    """The block's frame for ``stmt`` and the statement's own depth."""
    if isinstance(stmt, ReturnStmt):
        return 1 + nesting(stmt.value)
    if isinstance(stmt, IfStmt):
        inner = max(1 + nesting(stmt.cond), depth(stmt.then_body), depth(stmt.else_body))
    elif isinstance(stmt, WhileStmt):
        inner = max(1 + nesting(stmt.cond), depth(stmt.body))
    elif isinstance(stmt, CallStmt):
        inner = nesting(stmt.call)
    elif isinstance(stmt, ThrowStmt):
        inner = 0
    else:
        inner = nesting(stmt.value)
    return 2 + inner


# --- declarations ---------------------------------------------------------


@dataclass(frozen=True)
class Param:
    name: str
    type: str


@dataclass(frozen=True)
class ConstDef:
    name: str
    type: str
    value: Value


@dataclass(frozen=True)
class FunctionDef:
    name: str
    params: Tuple[Param, ...]
    return_type: str
    body: Block


class StatementKind(enum.Enum):
    IF = "if"
    PLAIN = "plain"
    LOOP = "loop"


def kind_of_stmt(stmt: Stmt) -> StatementKind:
    if isinstance(stmt, IfStmt):
        return StatementKind.IF
    if isinstance(stmt, WhileStmt):
        return StatementKind.LOOP
    return StatementKind.PLAIN


@dataclass
class Program:
    consts: Dict[str, ConstDef]
    functions: Dict[str, FunctionDef]
    registry: object  # StateQueryRegistry
    # id(node) -> (node, closure) per statement, function and if or while
    # condition lowered. Shared with every program path-copied from this
    # one (see ``interp``).
    closures: Dict[int, tuple] = field(default_factory=dict, repr=False, compare=False)
    # The name of each interpreter frame slot, by slot, numbered as the
    # closures are lowered and shared with them (see ``interp``).
    slots: List[str] = field(default_factory=list, repr=False, compare=False)
    # Function name -> closure, built by the interpreter on the first run.
    compiled: Optional[Dict[str, Callable]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # (base program, patch) for a program made by ``apply_patch``.
    origin: Optional[Tuple["Program", object]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Location -> statement, its function's name, and the names visible
        # at it mapped to declared types: the function's parameters plus the
        # locals declared earlier in the enclosing block chain. Global
        # constants are tracked separately in ``consts``.
        self._index: Dict[int, Stmt] = {}
        self._owner: Dict[int, str] = {}
        self._scope: Dict[int, Dict[str, str]] = {}
        for fn in self.functions.values():
            self._walk(fn.body, fn.name, {p.name: p.type for p in fn.params})
        self._max_location = max(self._index, default=0)

    def _walk(self, stmts: Block, fn_name: str, scope: Dict[str, str]) -> None:
        # A method: a recursive nested function would make a reference cycle.
        for s in stmts:
            if s.loc in self._index:
                raise ValueError(f"duplicate location {s.loc}")
            self._index[s.loc] = s
            self._owner[s.loc] = fn_name
            self._scope[s.loc] = scope
            for name in BLOCKS.get(type(s), ()):
                self._walk(getattr(s, name), fn_name, scope)
            if isinstance(s, LetStmt):
                scope = {**scope, s.name: s.type}

    def locations(self) -> List[int]:
        return sorted(self._index)

    def statement_at(self, loc: int) -> Stmt:
        if loc not in self._index:
            raise KeyError(f"unknown location {loc}")
        return self._index[loc]

    def function_of(self, loc: int) -> str:
        if loc not in self._owner:
            raise KeyError(f"unknown location {loc}")
        return self._owner[loc]

    def kind_of(self, loc: int) -> StatementKind:
        return kind_of_stmt(self.statement_at(loc))

    def max_location(self) -> int:
        return self._max_location

    def scope_at(self, loc: int) -> Dict[str, str]:
        """A new dict of the names visible at a statement, mapped to their
        declared types."""
        if loc not in self._scope:
            raise KeyError(f"unknown location {loc}")
        return dict(self._scope[loc])
