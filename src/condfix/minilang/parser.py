"""Recursive-descent parser and name resolution for MiniLang.

Statement locations are positive integers assigned in source order while
parsing, dense per program and stable across executions.

Input nested deeper than ``MAX_NESTING`` levels is a MiniLangSyntaxError
naming its line: a function body's statements are at level 1, and each
block, expression, operand, argument, parenthesis, negated literal or
method-call receiver is one level below what encloses it. At
``MAX_NESTING + 2`` levels (a precondition adds one, ``shadow_merge`` two)
every recursive walk over a program fits in Python's default recursion
limit.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import MiniLangSyntaxError, ResolutionError
from .ast import (
    AssignStmt, Binary, Block, BoolLit, CallExpr, CallStmt, ConstDef, Expr,
    FunctionDef, IfStmt, IntLit, LetStmt, MethodCall, NullLit, Param,
    Program, RealLit, ReturnStmt, Stmt, ThrowStmt, Unary, VarRef, WhileStmt, nesting,
)
from .lexer import Token, tokenize
from .printer import PRECEDENCE
from .registry import QUERIES
from .values import NULL, PRIMITIVE_TYPES, Obj, Value, wrap_int

MAX_NESTING = 100
MAX_INT_DIGITS = 4300  # Python's default limit on int() of a digit string
_RANGES = [  # the token shapes of a grid range ``lo..hi``
    [*lo, ".", ".", *hi] for lo in (["int"], ["-", "int"]) for hi in (["int"], ["-", "int"])]


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.next_loc = 1
        self.depth = 0  # the nesting level being parsed

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

    def nested(self, parse: Callable, *args):
        """``parse(*args)``, one nesting level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        node = parse(*args)
        self.depth -= 1
        return node

    def fresh_loc(self) -> int:
        loc = self.next_loc
        self.next_loc += 1
        return loc

    def number(self) -> Value:
        """The int or real literal being read, an int wrapped to 64 bits. No
        value writes back as a longer int or a real that overflows to inf."""
        tok = self.advance()
        if tok.kind == "real":
            if float(tok.text) != math.inf:
                return float(tok.text)
            self.error("real literal out of range", tok)
        if len(tok.text) > MAX_INT_DIGITS:
            self.error(f"int literal longer than {MAX_INT_DIGITS} digits", tok)
        return wrap_int(int(tok.text[-64:]))  # 10**64 is a multiple of 2**64

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
        return FunctionDef(name, tuple(params), ret, body)

    def parse_type(self) -> str:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in PRIMITIVE_TYPES:
            return self.advance().text
        if tok.kind == "ident" and tok.text[0].isupper():
            return self.advance().text
        self.error("expected a type (bool, int, real, or a class name)")

    def parse_block(self) -> Block:
        self.expect("op", "{")
        stmts: List[Stmt] = []
        while not self.accept("op", "}"):
            stmts.append(self.nested(self.parse_statement))
        return tuple(stmts)

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
                value = self.nested(self.parse_expression)
                self.expect("op", ";")
                return LetStmt(name, type_name, value, loc)
            if tok.text == "if":
                loc = self.fresh_loc()
                self.advance()
                self.expect("op", "(")
                cond = self.nested(self.parse_expression)
                self.expect("op", ")")
                then_body = self.parse_block()
                else_body: Block = ()
                if self.accept("keyword", "else"):
                    if self.peek().kind == "keyword" and self.peek().text == "if":
                        else_body = (self.nested(self.parse_statement),)
                    else:
                        else_body = self.parse_block()
                return IfStmt(cond, then_body, else_body, loc)
            if tok.text == "while":
                loc = self.fresh_loc()
                self.advance()
                self.expect("op", "(")
                cond = self.nested(self.parse_expression)
                self.expect("op", ")")
                body = self.parse_block()
                return WhileStmt(cond, body, loc)
            if tok.text == "return":
                loc = self.fresh_loc()
                self.advance()
                value = self.nested(self.parse_expression)
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
                value = self.nested(self.parse_expression)
                self.expect("op", ";")
                return AssignStmt(name, value, loc)
            if self.peek().kind == "op" and self.peek().text == "(":
                call = self.nested(self.parse_call_tail, name)
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
            left = Binary(tok.text, left, self.nested(self.parse_expression, precedence + 1))
            # A chain sinks its left operand a level without recursing.
            if nesting(left) > MAX_NESTING + 1 - self.depth:
                self.error(f"nesting deeper than {MAX_NESTING} levels")

    def parse_unary(self) -> Expr:
        if self.accept("op", "!"):
            return Unary("!", self.nested(self.parse_unary))
        if self.accept("op", "-"):
            return Unary("-", self.nested(self.parse_unary))
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
            if self.depth >= MAX_NESTING:
                self.error(f"nesting deeper than {MAX_NESTING} levels")
        return expr

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("int", "real"):
            return (IntLit if tok.kind == "int" else RealLit)(self.number())
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
            expr = self.nested(self.parse_expression)
            self.expect("op", ")")
            return expr
        self.error(f"expected an expression, found {tok.text or tok.kind!r}")

    def parse_call_tail(self, name: str) -> CallExpr:
        self.expect("op", "(")
        args: List[Expr] = []
        if not self.accept("op", ")"):
            while True:
                args.append(self.nested(self.parse_expression))
                if self.accept("op", ")"):
                    break
                self.expect("op", ",")
        return CallExpr(name, tuple(args))

    # -- literal values (for const declarations and suite files) --

    def parse_literal_value(self) -> Value:
        tok = self.peek()
        if tok.kind in ("int", "real"):
            return self.number()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.nested(self.parse_literal_value)
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


def parse_program(text: str) -> Program:
    """Parse and resolve a MiniLang program.

    Raises MiniLangSyntaxError with line/column on malformed input and
    ResolutionError on unresolved identifiers, duplicate names, bad arity,
    or method calls that no state query of the receiver's class serves.
    """
    parser = _Parser(tokenize(text))
    consts, functions = parser.parse_program()
    program = Program(consts=consts, functions=functions)
    _resolve(program)
    return program


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (patch text, human patches)."""
    parser = _Parser(tokenize(text))
    expr = parser.nested(parser.parse_expression)
    if parser.peek().kind != "eof":
        parser.error("trailing input after expression")
    return expr


def parse_test(text: str) -> Tuple[str, List[Value], Optional[Value], Optional[str]]:
    """Parse a test of the form ``name(lit, lit, ...) -> oracle``, where the
    oracle is a literal or ``error <Name>``: the function's name, its
    arguments, and the expected value or the expected error's name (the
    other one None)."""
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
    parser.expect("op", "->")
    value = error = None
    if parser.accept("ident", "error"):
        error = parser.expect("ident").text
    else:
        value = parser.parse_literal_value()
    if parser.peek().kind != "eof":
        parser.error("trailing input after test")
    return name, args, value, error


def parse_grid(text: str) -> List[Tuple[str, str, Optional[Sequence[Value]]]]:
    """Parse a one-line grid spec, axes ``name = lo..hi`` or ``name = lit |
    lit | ...`` joined by ``;``. Per axis: its name, its text, and its
    values: ``range(lo, hi + 1)``, None for a range whose bounds are not
    int literals, or the literals' list, empty when none follows the ``=``."""
    parser = _Parser(tokenize(text))
    tokens, axes = parser.tokens, []
    while parser.peek().kind != "eof":
        if parser.accept("op", ";"):
            continue
        name = parser.expect("ident")
        parser.expect("op", "=")
        start = end = parser.pos
        while tokens[end].kind != "eof" and tokens[end][:2] != ("op", ";"):
            end += 1
        shape = [tok.text if tok.kind == "op" else tok.kind for tok in tokens[start:end]]
        values: Optional[Sequence[Value]] = []
        if "." in shape:  # no literal holds a "." token: a range
            dot = start + shape.index(".")
            values = None
            if shape in _RANGES and tokens[dot + 1].column == tokens[dot].column + 1:
                lo = parser.parse_literal_value()
                parser.pos += 2
                values = range(lo, parser.parse_literal_value() + 1)
            parser.pos = end
        while parser.pos < end:
            if values:
                parser.expect("op", "|")
            values.append(parser.parse_literal_value())
        axes.append((name.text, text[name.column - 1:tokens[end].column - 1].strip(), values))
    return axes


def parse_value_literal(text: str) -> Value:
    parser = _Parser(tokenize(text))
    value = parser.parse_literal_value()
    if parser.peek().kind != "eof":
        parser.error("trailing input after literal")
    return value


# --- resolution ------------------------------------------------------------


def resolve_expr(expr: Expr, scope: Dict[str, str], program: Program) -> None:
    """Check that every name in ``expr`` resolves in ``scope`` plus globals,
    and that method calls target state queries of the receiver's class."""
    # Recursion by name, not by a nested function, makes no reference cycle.
    consts = program.consts
    if isinstance(expr, VarRef):
        if expr.name not in scope and expr.name not in consts:
            raise ResolutionError(f"unresolved identifier {expr.name!r}")
    elif isinstance(expr, MethodCall):
        if expr.receiver in scope:
            recv_type = scope[expr.receiver]
        elif expr.receiver in consts:
            recv_type = consts[expr.receiver].type
        else:
            raise ResolutionError(f"unresolved identifier {expr.receiver!r}")
        if recv_type in PRIMITIVE_TYPES:
            raise ResolutionError(
                f"method call on non-class variable {expr.receiver!r}"
            )
        if expr.method not in QUERIES.get(recv_type, ()):
            raise ResolutionError(
                f"no state query {expr.method!r} registered for class {recv_type!r}"
            )
    elif isinstance(expr, Unary):
        resolve_expr(expr.operand, scope, program)
    elif isinstance(expr, Binary):
        resolve_expr(expr.left, scope, program)
        resolve_expr(expr.right, scope, program)
    elif isinstance(expr, CallExpr):
        if expr.func not in program.functions:
            raise ResolutionError(f"call to undefined function {expr.func!r}")
        fn = program.functions[expr.func]
        if len(fn.params) != len(expr.args):
            raise ResolutionError(
                f"{expr.func!r} expects {len(fn.params)} arguments, got {len(expr.args)}"
            )
        for a in expr.args:
            resolve_expr(a, scope, program)


def _resolve(program: Program) -> None:
    """Check each function's parameters, then each of its statements
    against the scope recorded at it, in location order: source order, so
    the first error in the text is the one raised."""
    locations: Dict[str, List[int]] = {}
    for loc in program.locations():
        locations.setdefault(program.function_of(loc), []).append(loc)
    for fn in program.functions.values():
        seen = set()
        for p in fn.params:
            if p.name in seen:
                raise ResolutionError(f"duplicate parameter {p.name!r} in {fn.name!r}")
            seen.add(p.name)
        for loc in locations.get(fn.name, ()):
            s, scope = program.statement_at(loc), program.scope_at(loc)
            if isinstance(s, (IfStmt, WhileStmt)):
                resolve_expr(s.cond, scope, program)
            elif isinstance(s, CallStmt):
                resolve_expr(s.call, scope, program)
            elif not isinstance(s, ThrowStmt):
                resolve_expr(s.value, scope, program)
            if isinstance(s, LetStmt) and s.name in scope:
                raise ResolutionError(f"duplicate declaration of {s.name!r} in {fn.name!r}")
            if isinstance(s, AssignStmt) and s.name not in scope:
                raise ResolutionError(f"assignment to undeclared variable {s.name!r}")
