"""Recursive-descent parser and name resolution for MiniLang.

Statement locations are positive integers assigned in source order while
parsing, dense per program and stable across executions.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import MiniLangSyntaxError, ResolutionError
from .ast import (
    AssignStmt, Binary, BoolLit, CallExpr, CallStmt, ConstDef, Expr,
    FunctionDef, IfStmt, IntLit, LetStmt, MethodCall, NullLit, Param,
    Program, RealLit, ReturnStmt, Stmt, ThrowStmt, Unary, VarRef, WhileStmt,
)
from .lexer import Token, tokenize
from .printer import PRECEDENCE
from .registry import StateQueryRegistry, default_registry
from .values import NULL, Obj, Value, wrap_int


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.next_loc = 1

    # -- token helpers --

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise MiniLangSyntaxError(msg, tok.line, tok.column)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.error(f"expected {want!r}, found {tok.text or tok.kind!r}")
        return self.advance()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def fresh_loc(self) -> int:
        loc = self.next_loc
        self.next_loc += 1
        return loc

    # -- grammar --

    def parse_program(self) -> Tuple[Dict[str, ConstDef], Dict[str, FunctionDef]]:
        consts: Dict[str, ConstDef] = {}
        functions: Dict[str, FunctionDef] = {}
        while self.peek().kind != "eof":
            if self.peek().kind == "keyword" and self.peek().text == "const":
                const = self.parse_const()
                if const.name in consts:
                    self.error(f"duplicate constant {const.name!r}")
                consts[const.name] = const
            elif self.peek().kind == "keyword" and self.peek().text == "fn":
                fn = self.parse_function()
                if fn.name in functions:
                    self.error(f"duplicate function name {fn.name!r}")
                functions[fn.name] = fn
            else:
                self.error("expected 'fn' or 'const' declaration")
        return consts, functions

    def parse_const(self) -> ConstDef:
        self.expect("keyword", "const")
        name = self.expect("ident").text
        self.expect("op", ":")
        type_name = self.parse_type()
        self.expect("op", "=")
        value = self.parse_literal_value()
        self.expect("op", ";")
        return ConstDef(name, type_name, value)

    def parse_function(self) -> FunctionDef:
        self.expect("keyword", "fn")
        name = self.expect("ident").text
        self.expect("op", "(")
        params: List[Param] = []
        if not self.accept("op", ")"):
            while True:
                pname = self.expect("ident").text
                self.expect("op", ":")
                ptype = self.parse_type()
                params.append(Param(pname, ptype))
                if self.accept("op", ")"):
                    break
                self.expect("op", ",")
        self.expect("op", "->")
        ret = self.parse_type()
        body = self.parse_block()
        return FunctionDef(name, params, ret, body)

    def parse_type(self) -> str:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("bool", "int", "real"):
            return self.advance().text
        if tok.kind == "ident" and tok.text[0].isupper():
            return self.advance().text
        self.error("expected a type (bool, int, real, or a class name)")

    def parse_block(self) -> List[Stmt]:
        self.expect("op", "{")
        stmts: List[Stmt] = []
        while not self.accept("op", "}"):
            stmts.append(self.parse_statement())
        return stmts

    def parse_statement(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.text == "let":
                loc = self.fresh_loc()
                self.advance()
                name = self.expect("ident").text
                self.expect("op", ":")
                type_name = self.parse_type()
                self.expect("op", "=")
                value = self.parse_expression()
                self.expect("op", ";")
                return LetStmt(name, type_name, value, loc)
            if tok.text == "if":
                loc = self.fresh_loc()
                self.advance()
                self.expect("op", "(")
                cond = self.parse_expression()
                self.expect("op", ")")
                then_body = self.parse_block()
                else_body: List[Stmt] = []
                if self.accept("keyword", "else"):
                    if self.peek().kind == "keyword" and self.peek().text == "if":
                        else_body = [self.parse_statement()]
                    else:
                        else_body = self.parse_block()
                return IfStmt(cond, then_body, else_body, loc)
            if tok.text == "while":
                loc = self.fresh_loc()
                self.advance()
                self.expect("op", "(")
                cond = self.parse_expression()
                self.expect("op", ")")
                body = self.parse_block()
                return WhileStmt(cond, body, loc)
            if tok.text == "return":
                loc = self.fresh_loc()
                self.advance()
                value = self.parse_expression()
                self.expect("op", ";")
                return ReturnStmt(value, loc)
            if tok.text == "throw":
                loc = self.fresh_loc()
                self.advance()
                error_name = self.expect("ident").text
                self.expect("op", ";")
                return ThrowStmt(error_name, loc)
        if tok.kind == "ident":
            loc = self.fresh_loc()
            name = self.advance().text
            if self.accept("op", "="):
                value = self.parse_expression()
                self.expect("op", ";")
                return AssignStmt(name, value, loc)
            if self.peek().kind == "op" and self.peek().text == "(":
                call = self.parse_call_tail(name)
                self.expect("op", ";")
                return CallStmt(call, loc)
            self.error("expected '=' or '(' after identifier")
        self.error("expected a statement")

    # -- expressions (precedence climbing over printer.PRECEDENCE; every
    #    binary operator is left-associative) --

    def parse_expression(self, min_precedence: int = 1) -> Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            precedence = PRECEDENCE.get(tok.text, 0) if tok.kind == "op" else 0
            if precedence < min_precedence:
                return left
            self.advance()
            left = Binary(tok.text, left, self.parse_expression(precedence + 1))

    def parse_unary(self) -> Expr:
        if self.accept("op", "!"):
            return Unary("!", self.parse_unary())
        if self.accept("op", "-"):
            return Unary("-", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.peek().kind == "op" and self.peek().text == ".":
            if not isinstance(expr, VarRef):
                self.error("method calls are only allowed on variables")
            self.advance()
            method = self.expect("ident").text
            self.expect("op", "(")
            self.expect("op", ")")
            expr = MethodCall(expr.name, method)
        return expr

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(wrap_int(int(tok.text)))
        if tok.kind == "real":
            self.advance()
            return RealLit(float(tok.text))
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.advance()
            return BoolLit(tok.text == "true")
        if tok.kind == "keyword" and tok.text == "null":
            self.advance()
            return NullLit()
        if tok.kind == "ident":
            name = self.advance().text
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.parse_call_tail(name)
            return VarRef(name)
        if self.accept("op", "("):
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        self.error(f"expected an expression, found {tok.text or tok.kind!r}")

    def parse_call_tail(self, name: str) -> CallExpr:
        self.expect("op", "(")
        args: List[Expr] = []
        if not self.accept("op", ")"):
            while True:
                args.append(self.parse_expression())
                if self.accept("op", ")"):
                    break
                self.expect("op", ",")
        return CallExpr(name, tuple(args))

    # -- literal values (for const declarations and suite files) --

    def parse_literal_value(self) -> Value:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return wrap_int(int(tok.text))
        if tok.kind == "real":
            self.advance()
            return float(tok.text)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.parse_literal_value()
            if isinstance(inner, bool) or not isinstance(inner, (int, float)):
                self.error("'-' applies to numeric literals only")
            return wrap_int(-inner) if isinstance(inner, int) else -inner
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.advance()
            return tok.text == "true"
        if tok.kind == "keyword" and tok.text == "null":
            self.advance()
            return NULL
        if tok.kind == "ident" and tok.text[0].isupper():
            cls = self.advance().text
            self.expect("op", "(")
            payload = ""
            if self.peek().kind == "string":
                payload = self.advance().text
            self.expect("op", ")")
            return Obj(cls, payload)
        self.error("expected a literal value")


# --- public entry points ---------------------------------------------------


def parse_program(text: str, registry: Optional[StateQueryRegistry] = None) -> Program:
    """Parse and resolve a MiniLang program.

    Raises MiniLangSyntaxError with line/column on malformed input and
    ResolutionError on unresolved identifiers, duplicate names, bad arity,
    or unregistered method calls.
    """
    registry = registry or default_registry()
    parser = _Parser(tokenize(text))
    consts, functions = parser.parse_program()
    program = Program(consts=consts, functions=functions, registry=registry)
    program.reindex()
    _resolve(program)
    return program


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (patch text, human patches)."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expression()
    if parser.peek().kind != "eof":
        parser.error("trailing input after expression")
    return expr


def parse_call(text: str) -> Tuple[str, List[Value]]:
    """Parse a test call of the form ``name(lit, lit, ...)``."""
    parser = _Parser(tokenize(text))
    name = parser.expect("ident").text
    parser.expect("op", "(")
    args: List[Value] = []
    if not parser.accept("op", ")"):
        while True:
            args.append(parser.parse_literal_value())
            if parser.accept("op", ")"):
                break
            parser.expect("op", ",")
    if parser.peek().kind != "eof":
        parser.error("trailing input after call")
    return name, args


def parse_value_literal(text: str) -> Value:
    parser = _Parser(tokenize(text))
    value = parser.parse_literal_value()
    if parser.peek().kind != "eof":
        parser.error("trailing input after literal")
    return value


# --- resolution ------------------------------------------------------------


def resolve_expr(expr: Expr, scope: Dict[str, str], program: Program) -> None:
    """Check that every name in ``expr`` resolves in ``scope`` plus globals,
    and that method calls target registered state queries."""
    consts = program.consts
    registry = program.registry

    def walk(e: Expr) -> None:
        if isinstance(e, VarRef):
            if e.name not in scope and e.name not in consts:
                raise ResolutionError(f"unresolved identifier {e.name!r}")
        elif isinstance(e, MethodCall):
            if e.receiver in scope:
                recv_type = scope[e.receiver]
            elif e.receiver in consts:
                recv_type = consts[e.receiver].type
            else:
                raise ResolutionError(f"unresolved identifier {e.receiver!r}")
            if recv_type in ("bool", "int", "real"):
                raise ResolutionError(
                    f"method call on non-class variable {e.receiver!r}"
                )
            registry.lookup(recv_type, e.method)
        elif isinstance(e, Unary):
            walk(e.operand)
        elif isinstance(e, Binary):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, CallExpr):
            if e.func not in program.functions:
                raise ResolutionError(f"call to undefined function {e.func!r}")
            fn = program.functions[e.func]
            if len(fn.params) != len(e.args):
                raise ResolutionError(
                    f"{e.func!r} expects {len(fn.params)} arguments, got {len(e.args)}"
                )
            for a in e.args:
                walk(a)

    walk(expr)


def _resolve(program: Program) -> None:
    for fn in program.functions.values():
        seen = set()
        for p in fn.params:
            if p.name in seen:
                raise ResolutionError(f"duplicate parameter {p.name!r} in {fn.name!r}")
            seen.add(p.name)

        def walk_block(stmts, scope: Dict[str, str]) -> None:
            local = dict(scope)
            for s in stmts:
                if isinstance(s, LetStmt):
                    resolve_expr(s.value, local, program)
                    if s.name in local:
                        raise ResolutionError(
                            f"duplicate declaration of {s.name!r} in {fn.name!r}"
                        )
                    local[s.name] = s.type
                elif isinstance(s, AssignStmt):
                    resolve_expr(s.value, local, program)
                    if s.name not in local:
                        raise ResolutionError(
                            f"assignment to undeclared variable {s.name!r}"
                        )
                elif isinstance(s, IfStmt):
                    resolve_expr(s.cond, local, program)
                    walk_block(s.then_body, local)
                    walk_block(s.else_body, local)
                elif isinstance(s, WhileStmt):
                    resolve_expr(s.cond, local, program)
                    walk_block(s.body, local)
                elif isinstance(s, ReturnStmt):
                    resolve_expr(s.value, local, program)
                elif isinstance(s, CallStmt):
                    resolve_expr(s.call, local, program)

        walk_block(fn.body, {p.name: p.type for p in fn.params})
