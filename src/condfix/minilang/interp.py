"""Instrumentable interpreter that lowers MiniLang to Python closures.

Each function body is lowered once per Program into nested closures
(Feeley & Lapalme, "Using closures for code generation", 1987) and cached
on the Program; its statements are frozen (see ``ast``), so the closures
never go stale. The closures hold no per-run state: each receives the
run's context (controls, step counter, call depth, collected hits,
condition values and snapshots) and the current call frame, so runs of
one program never share state.

Supports three execution controls: forcing condition outcomes, skipping
plain statements, and probe-based state capture. Runtime failures (null
dereference, division by zero, thrown errors, exhausted step budget or
call depth) are reported inside the ExecutionResult, never raised to the
caller.

Step accounting: one step per statement entry and per expression node
(a method call is two, its receiver being a variable reference), plus one
per finished loop-body run; a skipped statement takes none. The run times
out on step ``budget + 1``.

Operand fusion: a binary node ``<``, ``<=``, ``>``, ``>=``, ``+``,
``-``, ``*``, ``==`` or ``!=`` whose left operand is a variable (not a
program constant) and whose right operand is a variable or an int or
real literal or program constant lowers to one closure that reads both
operands straight from the frame (a superoperator; Proebsting, POPL
1995). It charges the node's three steps at once, and only when they fit
in the budget, both names are bound, the operands are two ints or two
reals, and an int result needs no wrapping. In every other case (a
budget that ends inside the node, an unbound name, mixed or non-numeric
types) it runs the node's general closure from the unchanged step count.
Leaf reads are pure, so that fallback is exact: steps, hits, condition
values, errors and timeouts are those of the unfused node. ``/`` and
``%`` are never fused. ``_block_nesting`` and ``_expr_nesting`` count a
fused node like the unfused one, since the call-depth reservation is a
property of the program, not of its lowering; a fallback adds at most
one Python frame, at the top of the stack, because fused operands never
call.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..errors import ControlError
from .ast import (
    AssignStmt, Binary, BoolLit, CallExpr, CallStmt, Expr, FunctionDef, IfStmt,
    IntLit, LetStmt, MethodCall, NullLit, Program, RealLit, ReturnStmt,
    StatementKind, Stmt, ThrowStmt, Unary, VarRef, WhileStmt,
)
from .values import INT_MAX, INT_MIN, NULL, Null, Obj, Value, matches_declared, wrap_int

DEFAULT_STEP_BUDGET = 1_000_000
# Call depth is counted in the Python frames active MiniLang calls may use:
# each call reserves its body's static closure-nesting depth, and at least
# CALL_FRAMES. A call that would pass MAX_CALL_DEPTH * CALL_FRAMES ends the
# run like an exhausted step budget, well before Python's own recursion
# limit, so where a run stops depends on the program alone and not on the
# caller's stack. A function nesting at most CALL_FRAMES deep gets
# MAX_CALL_DEPTH active calls; a deeper one gets proportionally fewer.
MAX_CALL_DEPTH = 100
CALL_FRAMES = 6

# Builtin runtime error names; user throws share the same namespace.
NULL_DEREFERENCE = "NullDereference"
DIVISION_BY_ZERO = "DivisionByZero"
MISSING_RETURN = "MissingReturn"
UNBOUND_VARIABLE = "UnboundVariable"
TYPE_MISMATCH = "TypeMismatch"
TIMEOUT = "TimeoutDuringExecution"


@dataclass(frozen=True)
class ExecutionControls:
    """Per-execution instrumentation.

    condition_overrides forces the outcome of an if (or while) condition to
    a constant for the whole execution; skip_set suppresses plain statements
    entirely (no hit, no side effect); probes capture a state snapshot on
    every hit of a location.
    """

    condition_overrides: Mapping[int, bool] = field(default_factory=dict)
    skip_set: frozenset = frozenset()
    probes: frozenset = frozenset()

    def validate(self, program: Program) -> None:
        for loc in self.condition_overrides:
            if program.kind_of(loc) == StatementKind.PLAIN:
                raise ControlError(f"cannot override condition of plain statement {loc}")
        for loc in self.skip_set:
            if program.kind_of(loc) != StatementKind.PLAIN:
                raise ControlError(f"can only skip plain statements, not {loc}")
        for loc in self.probes:
            program.statement_at(loc)


NO_CONTROLS = ExecutionControls()


@dataclass
class ProbeSnapshot:
    """State at one hit of a probed location: raw in-scope values, nullness
    of class-typed bindings, and state-query results for non-null objects
    (keyed ``name.method()``)."""

    values: Dict[str, Value]
    null_flags: Dict[str, bool]
    queries: Dict[str, Value]


@dataclass
class ExecutionResult:
    value: Optional[Value] = None
    error: Optional[str] = None
    timed_out: bool = False
    hits: Dict[int, int] = field(default_factory=dict)
    snapshots: Dict[int, List[ProbeSnapshot]] = field(default_factory=dict)
    cond_values: Dict[int, List[bool]] = field(default_factory=dict)
    steps: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


class _Throw(Exception):
    def __init__(self, name):
        self.name = name


class _Timeout(Exception):
    pass


class _Run:
    """The state of one execution, passed to every compiled closure."""

    __slots__ = ("overrides", "skip", "probes", "budget", "steps", "depth",
                 "hits", "cond_values", "snapshots")

    def __init__(self, controls: ExecutionControls, budget: int):
        self.overrides = controls.condition_overrides
        self.skip = controls.skip_set
        self.probes = controls.probes
        self.budget = budget
        self.steps = 0
        self.depth = 0
        self.hits: Dict[int, int] = {}
        self.cond_values: Dict[int, List[bool]] = {}
        self.snapshots: Dict[int, List[ProbeSnapshot]] = {}


# A compiled expression maps (run, frame) to a value. A compiled statement
# or block maps (run, frame) to None, or to the value of a ``return`` it
# ran. A frame is one dict per call: the resolver rejects a declaration of
# a name already visible, so each block removes its own declarations when
# it completes and no chain of scopes is needed.
Compiled = Callable[[_Run, Dict[str, Value]], Optional[Value]]


def _empty_block(run: _Run, frame: Dict[str, Value]) -> None:
    return None


def _equal(left: Value, right: Value) -> bool:
    if isinstance(left, Null) or isinstance(right, Null):
        return left is right
    if isinstance(left, Obj) or isinstance(right, Obj):
        return left == right
    left_is_bool = isinstance(left, bool)
    if left_is_bool != isinstance(right, bool):
        raise _Throw(TYPE_MISMATCH)
    if not left_is_bool and (
        not isinstance(left, (int, float)) or not isinstance(right, (int, float))
        or isinstance(left, float) != isinstance(right, float)
    ):
        raise _Throw(TYPE_MISMATCH)
    return left == right


def _divide(left, right):
    if type(left) is int:
        if right == 0:
            raise _Throw(DIVISION_BY_ZERO)
        q = abs(left) // abs(right)
        return wrap_int(q if (left >= 0) == (right >= 0) else -q)
    if right == 0.0:
        raise _Throw(DIVISION_BY_ZERO)
    return left / right


def _modulo(left, right):
    if type(left) is not int:
        raise _Throw(TYPE_MISMATCH)
    if right == 0:
        raise _Throw(DIVISION_BY_ZERO)
    r = abs(left) % abs(right)
    return wrap_int(r if left >= 0 else -r)


def _not(value):
    if type(value) is not bool:
        raise _Throw(TYPE_MISMATCH)
    return not value


def _negative(value):
    if type(value) is int:
        return wrap_int(-value)
    if type(value) is float:
        return -value
    raise _Throw(TYPE_MISMATCH)


_UNARY = {"!": _not, "-": _negative}
# Both operands int or both real; an int result out of range wraps to
# signed 64 bits (comparisons give bools, always in range).
_NUMERIC = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": _modulo,
}
# The operators a fused binary node applies itself, to two ints or two
# reals only. There each agrees with the node's own closure, except that an
# int result out of range is left to that closure to wrap.
_FUSED = {op: _NUMERIC[op] for op in ("<", "<=", ">", ">=", "+", "-", "*")}
_FUSED.update({"==": operator.eq, "!=": operator.ne})


class _Lowering:
    """Lowers the functions of one program to ``invoke(run, args)`` closures."""

    def __init__(self, program: Program):
        self.program = program
        self.functions: Dict[str, Callable] = {}

    def lower(self) -> Dict[str, Callable]:
        for fn in self.program.functions.values():
            self.functions[fn.name] = self.function(fn)
        return self.functions

    def function(self, fn: FunctionDef) -> Callable:
        name, arity = fn.name, len(fn.params)
        params = [(p.name, p.type) for p in fn.params]
        body = self.block(fn.body, scoped=False)
        frames = max(1 + _block_nesting(fn.body), CALL_FRAMES)
        limit = MAX_CALL_DEPTH * CALL_FRAMES - frames

        def invoke(run: _Run, args: List[Value]) -> Value:
            if len(args) != arity:
                raise ValueError(f"{name}() takes {arity} arguments, got {len(args)}")
            if run.depth > limit:
                raise _Timeout()
            frame: Dict[str, Value] = {}
            for (param, declared), arg in zip(params, args):
                if not matches_declared(arg, declared):
                    raise _Throw(TYPE_MISMATCH)
                frame[param] = arg
            run.depth += frames
            value = body(run, frame)
            run.depth -= frames
            if value is None:
                raise _Throw(MISSING_RETURN)
            return value

        return invoke

    # -- statements --

    def block(self, stmts: Sequence[Stmt], scoped: bool = True) -> Compiled:
        """Enter each statement: one step and, except for a loop, which
        records each of its condition checks, one hit. Skipped statements
        cost nothing."""
        entries = tuple((s.loc, not isinstance(s, WhileStmt), self.stmt(s)) for s in stmts)
        declared = tuple(s.name for s in stmts if isinstance(s, LetStmt)) if scoped else ()
        if not entries:
            return _empty_block
        capture = self.capture

        def block(run, frame):
            for loc, hit, stmt in entries:
                if loc in run.skip:
                    continue
                run.steps += 1
                if run.steps > run.budget:
                    raise _Timeout()
                if hit:
                    run.hits[loc] = run.hits.get(loc, 0) + 1
                    if loc in run.probes:
                        capture(run, loc, frame)
                value = stmt(run, frame)
                if value is not None:
                    return value
            for name in declared:
                frame.pop(name, None)
            return None

        return block

    def stmt(self, stmt: Stmt) -> Compiled:
        if isinstance(stmt, (IfStmt, WhileStmt)):
            return self.branching(stmt)
        if isinstance(stmt, LetStmt):
            name, value = stmt.name, self.expr(stmt.value)

            def let(run, frame):
                frame[name] = value(run, frame)

            return let
        if isinstance(stmt, AssignStmt):
            name, value = stmt.name, self.expr(stmt.value)

            def assign(run, frame):
                result = value(run, frame)
                if name not in frame:
                    raise _Throw(UNBOUND_VARIABLE)
                frame[name] = result

            return assign
        if isinstance(stmt, ReturnStmt):
            return self.expr(stmt.value)
        if isinstance(stmt, ThrowStmt):
            error = stmt.error

            def throw(run, frame):
                raise _Throw(error)

            return throw
        if isinstance(stmt, CallStmt):
            call = self.expr(stmt.call)

            def call_stmt(run, frame):
                call(run, frame)

            return call_stmt
        raise TypeError(f"not a statement node: {stmt!r}")

    def branching(self, stmt) -> Compiled:
        loc, cond = stmt.loc, self.expr(stmt.cond)

        def condition(run, frame) -> bool:
            # A forced condition replaces evaluation of the original expression.
            if loc in run.overrides:
                value = run.overrides[loc]
            else:
                value = cond(run, frame)
                if type(value) is not bool:
                    raise _Throw(TYPE_MISMATCH)
            values = run.cond_values.get(loc)
            if values is None:
                run.cond_values[loc] = [value]
            else:
                values.append(value)
            return value

        if isinstance(stmt, IfStmt):
            then_body, else_body = self.block(stmt.then_body), self.block(stmt.else_body)

            def if_stmt(run, frame):
                if condition(run, frame):
                    return then_body(run, frame)
                return else_body(run, frame)

            return if_stmt

        body, capture = self.block(stmt.body), self.capture

        def while_stmt(run, frame):
            while True:
                run.hits[loc] = run.hits.get(loc, 0) + 1
                if loc in run.probes:
                    capture(run, loc, frame)
                if not condition(run, frame):
                    return None
                value = body(run, frame)
                if value is not None:
                    return value
                run.steps += 1
                if run.steps > run.budget:
                    raise _Timeout()

        return while_stmt

    def capture(self, run: _Run, loc: int, frame: Dict[str, Value]) -> None:
        """Append a snapshot of the state at a probed location."""
        values = {c.name: c.value for c in self.program.consts.values()}
        values.update(frame)
        null_flags: Dict[str, bool] = {}
        queries: Dict[str, Value] = {}
        for name, value in values.items():
            if isinstance(value, Null):
                null_flags[name] = True
            elif isinstance(value, Obj):
                null_flags[name] = False
                for method in self.program.registry.methods_for(value.cls).values():
                    queries[f"{name}.{method.name}()"] = method.fn(value.payload)
        run.snapshots.setdefault(loc, []).append(ProbeSnapshot(values, null_flags, queries))

    # -- expressions --

    def expr(self, expr: Expr) -> Compiled:
        if isinstance(expr, (IntLit, RealLit, BoolLit, NullLit)):
            return self.constant(NULL if isinstance(expr, NullLit) else expr.value)
        if isinstance(expr, VarRef):
            return self.variable(expr.name)
        if isinstance(expr, Unary):
            return self.unary(expr)
        if isinstance(expr, Binary):
            return self.binary(expr)
        if isinstance(expr, MethodCall):
            return self.method_call(expr)
        if isinstance(expr, CallExpr):
            return self.call(expr)
        raise TypeError(f"not an expression node: {expr!r}")

    @staticmethod
    def constant(value: Value) -> Compiled:
        def constant(run, frame):
            run.steps += 1
            if run.steps > run.budget:
                raise _Timeout()
            return value

        return constant

    def variable(self, name: str) -> Compiled:
        if name in self.program.consts:
            return self.constant(self.program.consts[name].value)

        def variable(run, frame):
            run.steps += 1
            if run.steps > run.budget:
                raise _Timeout()
            try:
                return frame[name]
            except KeyError:
                raise _Throw(UNBOUND_VARIABLE) from None

        return variable

    def unary(self, expr: Unary) -> Compiled:
        operand = self.expr(expr.operand)
        if expr.op not in _UNARY:
            raise TypeError(f"unknown unary operator {expr.op!r}")
        apply = _UNARY[expr.op]

        def unary(run, frame):
            run.steps += 1
            if run.steps > run.budget:
                raise _Timeout()
            return apply(operand(run, frame))

        return unary

    def binary(self, expr: Binary) -> Compiled:
        op = expr.op
        left, right = self.expr(expr.left), self.expr(expr.right)
        if op in ("&&", "||"):
            # The left operand decides alone when it equals this value.
            decisive = op == "||"

            def logical(run, frame):
                run.steps += 1
                if run.steps > run.budget:
                    raise _Timeout()
                value = left(run, frame)
                if type(value) is not bool:
                    raise _Throw(TYPE_MISMATCH)
                if value is decisive:
                    return value
                value = right(run, frame)
                if type(value) is not bool:
                    raise _Throw(TYPE_MISMATCH)
                return value

            return logical

        if op in ("==", "!="):
            positive = op == "=="

            def equality(run, frame):
                run.steps += 1
                if run.steps > run.budget:
                    raise _Timeout()
                a = left(run, frame)
                b = right(run, frame)
                if type(a) is int and type(b) is int:
                    return (a == b) is positive
                return _equal(a, b) is positive

            return self.fused(expr, equality)

        if op not in _NUMERIC:
            raise TypeError(f"unknown binary operator {op!r}")
        apply = _NUMERIC[op]

        def numeric(run, frame):
            run.steps += 1
            if run.steps > run.budget:
                raise _Timeout()
            a = left(run, frame)
            b = right(run, frame)
            kind = type(a)
            if kind is not type(b) or (kind is not int and kind is not float):
                raise _Throw(TYPE_MISMATCH)
            value = apply(a, b)
            if kind is int and not INT_MIN <= value <= INT_MAX:
                return wrap_int(value)
            return value

        return self.fused(expr, numeric)

    def fused(self, expr: Binary, general: Compiled) -> Compiled:
        """The closure for a binary node: a fused one when its left operand
        is a variable and its right one a variable or an int or real
        constant (see "Operand fusion" in the module docstring), else
        ``general``, the node's own closure, which a fused one also runs
        whenever it cannot finish the node itself."""
        left, right = expr.left, expr.right
        if expr.op not in _FUSED or not self.local(left):
            return general
        apply, name = _FUSED[expr.op], left.name

        if self.local(right):
            other = right.name

            def fused_variables(run, frame):
                steps = run.steps + 3
                if steps <= run.budget:
                    try:
                        a = frame[name]
                        b = frame[other]
                    except KeyError:
                        return general(run, frame)
                    kind = type(a)
                    if kind is type(b) and (kind is int or kind is float):
                        value = apply(a, b)
                        if INT_MIN <= value <= INT_MAX or kind is float:
                            run.steps = steps
                            return value
                return general(run, frame)

            return fused_variables

        if isinstance(right, (IntLit, RealLit)):
            b = right.value
        elif isinstance(right, VarRef):
            b = self.program.consts[right.name].value
        else:
            return general
        kind = type(b)
        if kind is not int and kind is not float:
            return general

        def fused_constant(run, frame):
            steps = run.steps + 3
            if steps <= run.budget:
                try:
                    a = frame[name]
                except KeyError:
                    return general(run, frame)
                if type(a) is kind:
                    value = apply(a, b)
                    if INT_MIN <= value <= INT_MAX or kind is float:
                        run.steps = steps
                        return value
            return general(run, frame)

        return fused_constant

    def local(self, expr: Expr) -> bool:
        """Whether ``expr`` reads a variable of the frame."""
        return isinstance(expr, VarRef) and expr.name not in self.program.consts

    def method_call(self, expr: MethodCall) -> Compiled:
        receiver, method = self.variable(expr.receiver), expr.method
        registry = self.program.registry

        def method_call(run, frame):
            run.steps += 1
            if run.steps > run.budget:
                raise _Timeout()
            value = receiver(run, frame)
            if isinstance(value, Null):
                raise _Throw(NULL_DEREFERENCE)
            if not isinstance(value, Obj):
                raise _Throw(TYPE_MISMATCH)
            return registry.lookup(value.cls, method).fn(value.payload)

        return method_call

    def call(self, expr: CallExpr) -> Compiled:
        functions, name = self.functions, expr.func
        args = tuple(self.expr(a) for a in expr.args)

        def call(run, frame):
            run.steps += 1
            if run.steps > run.budget:
                raise _Timeout()
            values = []
            for arg in args:
                values.append(arg(run, frame))
            return functions[name](run, values)

        return call


# The static closure-nesting depth of lowered code: the most Python frames
# its closures stack up, not counting the callees of a call or the leaf
# helpers (operators, snapshots, registry methods). It follows the shapes
# _Lowering builds: a block, a statement and an expression node are one
# closure each, a return is its expression, and an if or while condition
# adds one closure around its expression. A fused binary node counts as the
# unfused node it falls back to.

def _block_nesting(stmts: Sequence[Stmt]) -> int:
    return 1 + max(map(_stmt_nesting, stmts)) if stmts else 0


def _stmt_nesting(stmt: Stmt) -> int:
    if isinstance(stmt, IfStmt):
        return 1 + max(1 + _expr_nesting(stmt.cond),
                       _block_nesting(stmt.then_body), _block_nesting(stmt.else_body))
    if isinstance(stmt, WhileStmt):
        return 1 + max(1 + _expr_nesting(stmt.cond), _block_nesting(stmt.body))
    if isinstance(stmt, ReturnStmt):
        return _expr_nesting(stmt.value)
    if isinstance(stmt, (LetStmt, AssignStmt)):
        return 1 + _expr_nesting(stmt.value)
    if isinstance(stmt, CallStmt):
        return 1 + _expr_nesting(stmt.call)
    return 1


def _expr_nesting(expr: Expr) -> int:
    if isinstance(expr, Unary):
        return 1 + _expr_nesting(expr.operand)
    if isinstance(expr, Binary):
        return 1 + max(_expr_nesting(expr.left), _expr_nesting(expr.right))
    if isinstance(expr, MethodCall):
        return 2
    if isinstance(expr, CallExpr):
        return 1 + max(map(_expr_nesting, expr.args), default=0)
    return 1


def _lowered(program: Program) -> Dict[str, Callable]:
    """The program's functions as closures, lowered on first use. Runs that
    race here each lower the program; either result serves every run."""
    compiled = program.compiled
    if compiled is None:
        compiled = program.compiled = _Lowering(program).lower()
    return compiled


def execute(
    program: Program,
    function: str,
    args: Sequence[Value],
    controls: Optional[ExecutionControls] = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> ExecutionResult:
    """Run one function call under the given controls.

    Runtime errors and budget exhaustion (steps or call depth) are captured
    in the result; hits, snapshots, and condition values collected before a
    failure are kept.
    """
    controls = controls or NO_CONTROLS
    controls.validate(program)
    if function not in program.functions:
        raise ValueError(f"undefined function {function!r}")
    invoke = _lowered(program)[function]
    run = _Run(controls, step_budget)
    result = ExecutionResult(
        hits=run.hits, snapshots=run.snapshots, cond_values=run.cond_values
    )
    try:
        result.value = invoke(run, list(args))
    except _Throw as t:
        result.error = t.name
    except (_Timeout, RecursionError):
        # The call-depth budget keeps MiniLang calls within Python's stack
        # unless the caller itself runs deep in it; that exhausts the run too.
        result.error = TIMEOUT
        result.timed_out = True
    result.steps = run.steps
    return result
