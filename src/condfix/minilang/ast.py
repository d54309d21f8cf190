"""AST for MiniLang programs.

Statements carry stable integer locations, assigned in source order during
parsing. No code edits a statement once a program is parsed, and programs
made by patching share statements with their base (see ``patching``). An
in-place edit is therefore only for a program that shares nothing, a fresh
parse or a ``clone()``, and must end with ``reindex()``, which rebuilds the
location index and drops the interpreter's compiled closures and the record
of the patch that made the program.
"""
from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
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
class MethodCall(Expr):
    receiver: str  # variable name of a class-typed binding
    method: str


@dataclass(frozen=True)
class CallExpr(Expr):
    func: str
    args: Tuple[Expr, ...]


# --- statements -----------------------------------------------------------


class Stmt:
    loc: int


@dataclass
class LetStmt(Stmt):
    name: str
    type: str
    value: Expr
    loc: int = 0


@dataclass
class AssignStmt(Stmt):
    name: str
    value: Expr
    loc: int = 0


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)
    loc: int = 0


@dataclass
class WhileStmt(Stmt):
    cond: Expr
    body: List[Stmt] = field(default_factory=list)
    loc: int = 0


@dataclass
class ReturnStmt(Stmt):
    value: Expr
    loc: int = 0


@dataclass
class ThrowStmt(Stmt):
    error: str
    loc: int = 0


@dataclass
class CallStmt(Stmt):
    call: CallExpr
    loc: int = 0


# --- declarations ---------------------------------------------------------


@dataclass
class Param:
    name: str
    type: str


@dataclass
class ConstDef:
    name: str
    type: str
    value: Value


@dataclass
class FunctionDef:
    name: str
    params: List[Param]
    return_type: str
    body: List[Stmt]


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
    _index: Dict[int, Stmt] = field(default_factory=dict, repr=False)
    _owner: Dict[int, str] = field(default_factory=dict, repr=False)
    # Function name -> closure, built by the interpreter on first execution.
    compiled: Optional[Dict[str, Callable]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # (base program, patch) for a program made by ``apply_patch``.
    origin: Optional[Tuple["Program", object]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def reindex(self) -> None:
        """Rebuild the location index and drop the compiled closures and the
        origin; call after any in-place edit."""
        self._index = {}
        self._owner = {}
        self.compiled = None
        self.origin = None

        def walk(stmts, fn_name):
            for s in stmts:
                if s.loc in self._index:
                    raise ValueError(f"duplicate location {s.loc}")
                self._index[s.loc] = s
                self._owner[s.loc] = fn_name
                if isinstance(s, IfStmt):
                    walk(s.then_body, fn_name)
                    walk(s.else_body, fn_name)
                elif isinstance(s, WhileStmt):
                    walk(s.body, fn_name)

        for fn in self.functions.values():
            walk(fn.body, fn.name)

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
        return max(self._index) if self._index else 0

    def clone(self) -> "Program":
        """A fully independent deep copy that shares no statement with this
        program; only tests call it."""
        cloned = Program(
            consts=copy.deepcopy(self.consts),
            functions=copy.deepcopy(self.functions),
            registry=self.registry,
        )
        cloned.reindex()
        return cloned

    def scope_at(self, loc: int) -> Dict[str, str]:
        """Names visible at a statement, mapped to declared types.

        Visibility: function parameters, plus locals declared earlier in the
        enclosing block chain. Global constants are tracked separately in
        ``consts``.
        """
        fn = self.functions[self.function_of(loc)]
        scope: Dict[str, str] = {p.name: p.type for p in fn.params}

        def search(stmts, outer) -> Optional[Dict[str, str]]:
            seen = dict(outer)
            for s in stmts:
                if s.loc == loc:
                    return seen
                if isinstance(s, IfStmt):
                    hit = search(s.then_body, seen)
                    if hit is None:
                        hit = search(s.else_body, seen)
                    if hit is not None:
                        return hit
                elif isinstance(s, WhileStmt):
                    hit = search(s.body, seen)
                    if hit is not None:
                        return hit
                elif isinstance(s, LetStmt):
                    seen[s.name] = s.type
            return None

        found = search(fn.body, scope)
        if found is None:
            raise KeyError(f"location {loc} not found in function {fn.name}")
        return found
