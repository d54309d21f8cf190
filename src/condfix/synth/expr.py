"""Patch expressions: the trees a solver model decodes to (see
``problem.decode``), their evaluation over a row, and their MiniLang form.
Redundant forms such as ``!(x == null)`` are preserved, never simplified.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

from ..minilang import (
    Binary, CallExpr, Expr, IntLit, MethodCall, NullLit, Unary, VarRef,
)
from ..minilang.printer import render_expr
from ..trace import ColumnSpec
from .components import Component


@dataclass(frozen=True)
class Leaf:
    column: ColumnSpec


@dataclass(frozen=True)
class App:
    component: Component
    args: Tuple["PatchExpression", ...]


PatchExpression = Union[Leaf, App]


def evaluate(expr: PatchExpression, values: Dict[str, object]):
    """Evaluate over named column values (total; no runtime errors)."""
    if isinstance(expr, Leaf):
        return values[expr.column.name]
    return expr.component.evaluate([evaluate(a, values) for a in expr.args])


def to_source(expr: PatchExpression) -> str:
    """Human-readable text; labeled components print call-style."""
    return render_expr(to_minilang(expr))


def to_minilang(expr: PatchExpression) -> Expr:
    """Convert into a MiniLang expression suitable for a Patch."""
    if isinstance(expr, Leaf):
        col = expr.column
        if col.kind == "var":
            return VarRef(col.var)
        if col.kind == "const":
            return IntLit(col.const)
        if col.kind == "nullcheck":
            return Binary("==", VarRef(col.var), NullLit())
        if col.kind == "query":
            return MethodCall(col.var, col.method)
        raise ValueError(f"column {col.name!r} has no expression recipe")
    comp = expr.component
    args = tuple(to_minilang(a) for a in expr.args)
    if comp.label is not None:
        # Opaque component: render call-style under its display name.
        return CallExpr(comp.label, args)
    if comp.tag == "!":
        return Unary("!", args[0])
    return Binary(comp.tag, args[0], args[1])

