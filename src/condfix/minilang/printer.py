"""Canonical source rendering with minimal parenthesization.

Operator precedence (loosest to tightest): ``||`` < ``&&`` < equality
< relational < additive < multiplicative < unary. All binary operators
are left-associative; a right operand at equal precedence is
parenthesized. ``PRECEDENCE`` is the one binary-precedence table: the
parser climbs the same levels.
"""
from __future__ import annotations

from typing import List, Sequence

from .ast import (
    AssignStmt, Binary, BoolLit, CallExpr, CallStmt, Expr, FunctionDef,
    IfStmt, IntLit, LetStmt, MethodCall, NullLit, Program, RealLit,
    ReturnStmt, Stmt, ThrowStmt, Unary, VarRef, WhileStmt,
)
from .values import format_real, format_value

PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
_UNARY_PRECEDENCE = 7


def render_expr(expr: Expr) -> str:
    text, _ = _render(expr)
    return text


def _render(expr: Expr):
    if isinstance(expr, IntLit):
        return str(expr.value), 100
    if isinstance(expr, RealLit):
        return format_real(expr.value), 100
    if isinstance(expr, BoolLit):
        return ("true" if expr.value else "false"), 100
    if isinstance(expr, NullLit):
        return "null", 100
    if isinstance(expr, VarRef):
        return expr.name, 100
    if isinstance(expr, MethodCall):
        return f"{expr.receiver}.{expr.method}()", 100
    if isinstance(expr, CallExpr):
        args = ", ".join(render_expr(a) for a in expr.args)
        return f"{expr.func}({args})", 100
    if isinstance(expr, Unary):
        inner, prec = _render(expr.operand)
        if prec < _UNARY_PRECEDENCE:
            inner = f"({inner})"
        return f"{expr.op}{inner}", _UNARY_PRECEDENCE
    if isinstance(expr, Binary):
        prec = PRECEDENCE[expr.op]
        left, lp = _render(expr.left)
        right, rp = _render(expr.right)
        if lp < prec:
            left = f"({left})"
        if rp <= prec:
            right = f"({right})"
        return f"{left} {expr.op} {right}", prec
    raise TypeError(f"not an expression node: {expr!r}")


def render_program(program: Program) -> str:
    lines: List[str] = []
    for const in program.consts.values():
        lines.append(f"const {const.name}: {const.type} = {format_value(const.value)};")
    if program.consts:
        lines.append("")
    for i, fn in enumerate(program.functions.values()):
        if i:
            lines.append("")
        lines.extend(_render_function(fn))
    return "\n".join(lines) + "\n"


def _render_function(fn: FunctionDef) -> List[str]:
    params = ", ".join(f"{p.name}: {p.type}" for p in fn.params)
    lines = [f"fn {fn.name}({params}) -> {fn.return_type} {{"]
    lines.extend(_render_block(fn.body, 1))
    lines.append("}")
    return lines


def _render_block(stmts: Sequence[Stmt], depth: int) -> List[str]:
    pad = "  " * depth
    lines: List[str] = []
    for s in stmts:
        if isinstance(s, LetStmt):
            lines.append(f"{pad}let {s.name}: {s.type} = {render_expr(s.value)};")
        elif isinstance(s, AssignStmt):
            lines.append(f"{pad}{s.name} = {render_expr(s.value)};")
        elif isinstance(s, IfStmt):
            lines.append(f"{pad}if ({render_expr(s.cond)}) {{")
            lines.extend(_render_block(s.then_body, depth + 1))
            if s.else_body:
                lines.append(f"{pad}}} else {{")
                lines.extend(_render_block(s.else_body, depth + 1))
            lines.append(f"{pad}}}")
        elif isinstance(s, WhileStmt):
            lines.append(f"{pad}while ({render_expr(s.cond)}) {{")
            lines.extend(_render_block(s.body, depth + 1))
            lines.append(f"{pad}}}")
        elif isinstance(s, ReturnStmt):
            lines.append(f"{pad}return {render_expr(s.value)};")
        elif isinstance(s, ThrowStmt):
            lines.append(f"{pad}throw {s.error};")
        elif isinstance(s, CallStmt):
            lines.append(f"{pad}{render_expr(s.call)};")
        else:
            raise TypeError(f"not a statement node: {s!r}")
    return lines
