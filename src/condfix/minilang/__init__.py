"""MiniLang: AST, text format, and instrumentable interpreter."""

from .ast import (
    AssignStmt, Binary, BoolLit, CallExpr, CallStmt, ConstDef, Expr, Forced,
    FunctionDef, IfStmt, IntLit, LetStmt, MethodCall, NullLit, Param,
    Program, RealLit, ReturnStmt, StatementKind, Stmt, ThrowStmt, Unary,
    VarRef, WhileStmt,
)
from .interp import (
    DEFAULT_STEP_BUDGET, ExecutionResult, ProbeSnapshot, TIMEOUT, execute, execute_rows,
)
from .parser import (
    parse_expression, parse_grid, parse_program, parse_test, parse_value_literal,
    resolve_expr,
)
from .patching import SKIP, Patch, PatchKind, apply_patch, decide, probe, shadow_merge
from .printer import render_expr, render_program
from .registry import QueryMethod, StateQueryRegistry, default_registry
from .values import (
    INT_MAX, INT_MIN, NULL, Null, Obj, Value, format_real, format_value, wrap_int,
)

__all__ = [
    "AssignStmt", "Binary", "BoolLit", "CallExpr", "CallStmt", "ConstDef",
    "Expr", "Forced", "FunctionDef", "IfStmt", "IntLit", "LetStmt", "MethodCall",
    "NullLit", "Param", "Program", "RealLit", "ReturnStmt", "StatementKind",
    "Stmt", "ThrowStmt", "Unary", "VarRef", "WhileStmt",
    "DEFAULT_STEP_BUDGET", "ExecutionResult", "ProbeSnapshot", "TIMEOUT", "execute",
    "execute_rows",
    "parse_expression", "parse_grid", "parse_program", "parse_test", "parse_value_literal",
    "resolve_expr",
    "SKIP", "Patch", "PatchKind", "apply_patch", "decide", "probe", "shadow_merge",
    "render_expr", "render_program",
    "QueryMethod", "StateQueryRegistry", "default_registry",
    "INT_MAX", "INT_MIN", "NULL", "Null", "Obj", "Value", "format_real",
    "format_value", "wrap_int",
]
