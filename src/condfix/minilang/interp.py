"""Interpreter that lowers MiniLang to Python closures (Feeley & Lapalme,
"Using closures for code generation", 1987).

A closure holds no per-run state: it receives the run's context and the
current call frame, so runs never share state. Runtime failures (null
dereference, division by zero, thrown errors, exhausted step budget or
call depth) are reported in the ExecutionResult, never raised. The one
exception ``execute`` raises for a run is ``DeadlineExceeded``.
``execute_rows`` runs one call per row of arguments in one run state and
yields only each row's outcome, for callers that read nothing else.

Instrumentation: every run counts a hit per statement entry, in
``run.hits``, a list indexed by location and sized to the program's
largest location. The result keeps that list, and ``ExecutionResult.hits``
turns it into a dict only when read: the baseline suite run reads it as
the spectrum's coverage, and most other runs never do. The probe is a
program edit (``patching.probe``): a probed ``if`` snapshots the state as
its condition starts and stores the value the condition gives in the
snapshot, and any other probed statement snapshots the state before it
runs. A snapshot copies the constants' values and the frame's bound
slots, by name; ``trace.collect`` derives every synthesis column from
them. Angelic decisions are program edits too (``patching.decide``): a
forced condition is a ``Forced`` node, a skipped statement is absent.

Shared closures: each statement's and function's closure, and the
closure of each ``if`` or ``while`` condition (a pure tree's fallback, see
"Fused expression trees"), is cached in ``Program.closures`` by node
identity, a table that a program shares with every program path-copied
from it, along with consts, the only program part a closure reads (state
queries come from the one table, ``registry.QUERIES``). A statement that
a loop runs in line (see "Generated loops") has no entry of its own. An
edit so lowers only the statements on its path and its function. A
probed statement is a node of its own, so its closure never serves the
unprobed one. Calls find their callee in ``run.functions`` and snapshots
close over the consts and slot names alone, so no closure refers to a
program.

Frames (lexical addressing; Abelson & Sussman, SICP §5.5.6): a call's
frame is a list with one slot per local name, and a closure reads or
writes a variable at a slot fixed when it is lowered. The resolver
rejects a declaration of a name already visible, so one slot per name
serves every scope: a block that completes resets the slots it declared
to ``UNBOUND``, and reading or assigning an unbound slot raises
``UnboundVariable``. Names are numbered once per closure table, in
``Program.slots``, which path copies share as they share the table; the
numbering only grows, so a slot a closure holds stays valid. A program
constant never takes a slot. A call fills ``[UNBOUND] * n`` with its
arguments, ``n`` being the slots numbered when its function was lowered.

Steps: one per statement entry and per expression node (a method call is
two, its receiver being a variable reference; a ``Forced`` condition is
none), plus one per finished loop-body run. The run times out on step
``budget + 1``.

Deadline: a run counts its steps through a ``budget.Budget``, so each
step is one increment and one compare against the run's ``limit``. With
no deadline the limit is the step budget. With one, the run reads the
clock each time its step count reaches a multiple of 4,096 (within the
budget), and a read past the deadline raises ``DeadlineExceeded``: a cut
run returns no result, so no caller can mistake it for an answer. A run
of fewer steps never reads the clock. A deadline that does not pass
changes no step, value, error or timeout.

Call depth: each call reserves its body's static closure-nesting depth
plus one (``ast.depth``), a property of the program computed once per
statement node, so an edited program reserves what its own statements
need, however they are lowered. In the packaged corpus, skipping ``cm2``
location 12 lowers a reservation from 10 to 8 frames and skipping ``pm2``
location 4 from 8 to 6; no corpus run reaches the call-depth limit.

Fused expression trees (superoperators; Proebsting, POPL 1995): a *pure
tree* is an expression built from variables, literals and program
constants, ``!`` and unary ``-``, every binary operator, and method calls;
a call or a ``Forced`` value is never part of one. Each maximal pure tree
whose root is an operator or a method call lowers to one generated
function, or runs in line where a loop or one-statement shape holds it
(see "Generated loops"). Its fast path reads the variables straight from
their slots and keeps the step count in a local: it runs only when the
tree's largest step count fits under the run's limit, charges each node's
step, and charges the right operand of ``&&`` or ``||`` only when it
runs. Its guards and the node closures derive from one table of operator
semantics (``values.OPERATORS`` and ``UNARY_OPERATORS``): where the
closures would throw or wrap (an unbound slot, mixed or unhandled types,
an int result out of range, a null receiver or one whose class has no
such state query, a zero divisor) it runs the tree's closures instead,
from the unchanged step count. Trees are pure, so that fallback is
exact: steps, hits, snapshots, errors and timeouts are those of the
closures alone. The fallback is lowered on its first run, and numbers no
slot, as the tree's walk numbered them all; it is also the entry of an
``if`` or ``while`` condition in the table.

Generated loops (copy-and-patch; Xu & Kjolstad, OOPSLA 2021): a ``while``
lowers to one Python function, generated from the loop's shape, that
keeps the run's step count and limit in locals. In line it runs its
condition, each body statement's entry step and hit, each ``let`` or
assignment of a pure tree, the unbinding of a block's ``let`` slots, the
loop-body step, and each unprobed ``if`` with its branch blocks,
recursively: a forced ``if`` as the branch it takes, any other with its
condition's pure tree in line or a call to the condition's closure. It
calls every other statement's closure (a call, any other ``let`` or
assignment, a ``return``, a ``throw``, a nested ``while`` and a probed
statement), writing the count back to the run before each call,
``run.check()``, raise and return, and reading the count and limit back
after each. A ``let`` or assignment of a pure tree and an ``if`` on one
outside a loop are generated the same way, as one-statement shapes whose
branch blocks are closures, and any other pure tree as an expression
shape. Conditions and stores render their trees through one tree writer.
A shape holds operators, the kinds of constants and the structure;
slots, locations, constants, closures and fallbacks are arguments of the
shape's ``make``, so no MiniLang name or literal enters the source, and
the ``make`` of each shape is compiled once per process, in a bounded
cache (``_make``).

Unrolled blocks: outside a loop, a block of one or two statements that
declares nothing runs its statements in line instead of looping over
them, and returns what its last statement returns.

Forced ``if``: an unprobed ``if`` whose condition is ``Forced`` lowers to
the closure of the branch it takes, or inside a loop to that branch in
line; the ``if`` takes its entry step, and the condition none, as before.

Python frames: a pure tree's fast path is one frame where its closures
are one per level. Its fallback stacks at most two frames more than the
closures alone (the tree function's and the lazy lowering's), at the top
of the stack and never around a call, because pure trees never call; an
unrolled block or a forced ``if`` adds none. A generated loop is one
frame where its ``while`` closure, body block and in-line statements
were several, so it never stacks more frames than ``ast.depth`` counts.
"""
from __future__ import annotations

import builtins
import functools
import itertools
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..budget import Budget, Exhausted
from .ast import (
    AssignStmt, Binary, BoolLit, CallExpr, CallStmt, Expr, Forced, FunctionDef,
    IfStmt, IntLit, LetStmt, MethodCall, NullLit, Program, RealLit, ReturnStmt,
    Stmt, ThrowStmt, Unary, VarRef, WhileStmt, depth,
)
from .registry import QUERIES
from .values import (
    INT_MAX, INT_MIN, NULL, OPERATORS, UNARY_OPERATORS, Null, Obj, Value, divide,
    matches_declared, modulo, wrap_int,
)

DEFAULT_STEP_BUDGET = 1_000_000
# Call depth is counted in the Python frames active MiniLang calls may use:
# each call reserves its body's static closure-nesting depth (``ast.depth``)
# plus one, and at least CALL_FRAMES. A call that would pass
# MAX_CALL_DEPTH * CALL_FRAMES ends the run like an exhausted step budget,
# well before Python's own recursion limit, so where a run stops depends on
# the program alone and not on the caller's stack. A function nesting at
# most CALL_FRAMES deep gets MAX_CALL_DEPTH active calls; a deeper one gets
# proportionally fewer.
MAX_CALL_DEPTH = 100
CALL_FRAMES = 6

# Builtin runtime error names; user throws share the same namespace.
NULL_DEREFERENCE = "NullDereference"
DIVISION_BY_ZERO = "DivisionByZero"
MISSING_RETURN = "MissingReturn"
UNBOUND_VARIABLE = "UnboundVariable"
TYPE_MISMATCH = "TypeMismatch"
TIMEOUT = "TimeoutDuringExecution"


@dataclass
class ProbeSnapshot:
    """State at one hit of a probed statement: the program's constants and
    the frame's bindings, by name. At a probed ``if``, ``condition`` is the
    value its condition gave, or None if the condition ended the run."""

    values: Dict[str, Value]
    condition: Optional[Value] = None


@dataclass
class ExecutionResult:
    value: Optional[Value] = None
    error: Optional[str] = None
    timed_out: bool = False
    snapshots: List[ProbeSnapshot] = field(default_factory=list)
    steps: int = 0
    # The run's hit count per location, indexed by location.
    counts: List[int] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def hits(self) -> Dict[int, int]:
        """A new dict of each location the run entered to its hit count."""
        return {loc: count for loc, count in enumerate(self.counts) if count}


class _Throw(Exception):
    def __init__(self, name):
        self.name = name


class _Run(Budget):
    """The state of one execution, passed to every compiled closure. Its
    count is the run's steps."""

    __slots__ = ("functions", "depth", "hits", "snapshots")

    def __init__(self, functions: Dict[str, Callable], budget: int, deadline: Optional[float],
                 hits: List[int]):
        super().__init__(budget, deadline)
        self.functions = functions
        self.depth = 0
        self.hits = hits  # the hit count per location
        self.snapshots: List[ProbeSnapshot] = []


# A compiled expression maps (run, frame) to a value. A compiled statement
# or block maps (run, frame) to None, or to the value of a ``return`` it
# ran. A frame is one list per call, of a slot per name (see "Frames" in
# the module docstring); an unbound slot holds UNBOUND. The run type is a
# string, as ``values.Value`` explains.
Compiled = Callable[["_Run", List[Value]], Optional[Value]]
UNBOUND = object()


def _empty_block(run: _Run, frame: List[Value]) -> None:
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


class _Closures:
    """Lowers expressions to one closure per node: every node outside a
    pure tree, and each pure tree's fallback."""

    def __init__(self, consts, names: List[str]):
        self.consts, self.names = consts, names

    def slot(self, name: str) -> int:
        """The frame slot of the local ``name``, numbered on first use. Two
        lowerings that race here may both append the name; the first copy
        serves both, and the other slot is never bound."""
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def expr(self, expr: Expr) -> Compiled:
        if isinstance(expr, Forced):
            value = expr.value

            def forced(run, frame):
                return value

            return forced
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
            run.count += 1
            if run.count > run.limit:
                run.check()
            return value

        return constant

    def variable(self, name: str) -> Compiled:
        if name in self.consts:
            return self.constant(self.consts[name].value)
        slot = self.slot(name)

        def variable(run, frame):
            run.count += 1
            if run.count > run.limit:
                run.check()
            value = frame[slot]
            if value is UNBOUND:
                raise _Throw(UNBOUND_VARIABLE)
            return value

        return variable

    def unary(self, expr: Unary) -> Compiled:
        if expr.op not in UNARY_OPERATORS:
            raise TypeError(f"unknown unary operator {expr.op!r}")
        operand = self.expr(expr.operand)
        entry = UNARY_OPERATORS[expr.op]
        operands, apply = entry.operands, entry.fn

        def unary(run, frame):
            run.count += 1
            if run.count > run.limit:
                run.check()
            value = operand(run, frame)
            kind = type(value)
            if kind not in operands:
                raise _Throw(TYPE_MISMATCH)
            value = apply(value)
            if kind is int and not INT_MIN <= value <= INT_MAX:
                return wrap_int(value)
            return value

        return unary

    def binary(self, expr: Binary) -> Compiled:
        op = expr.op
        if op not in OPERATORS:
            raise TypeError(f"unknown binary operator {op!r}")
        left, right = self.expr(expr.left), self.expr(expr.right)
        if op == "&&" or op == "||":
            # The left operand decides alone when it equals this value.
            decisive = op == "||"

            def logical(run, frame):
                run.count += 1
                if run.count > run.limit:
                    run.check()
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

        if op == "==" or op == "!=":
            positive = op == "=="

            def equality(run, frame):
                run.count += 1
                if run.count > run.limit:
                    run.check()
                a = left(run, frame)
                b = right(run, frame)
                if type(a) is int and type(b) is int:
                    return (a == b) is positive
                return _equal(a, b) is positive

            return equality

        entry = OPERATORS[op]
        operands, apply, zero_throws = entry.operands, entry.fn, entry.zero_throws

        def numeric(run, frame):
            run.count += 1
            if run.count > run.limit:
                run.check()
            a = left(run, frame)
            b = right(run, frame)
            kind = type(a)
            if kind is not type(b) or kind not in operands:
                raise _Throw(TYPE_MISMATCH)
            if zero_throws and b == 0:
                raise _Throw(DIVISION_BY_ZERO)
            value = apply(a, b)
            if kind is int and not INT_MIN <= value <= INT_MAX:
                return wrap_int(value)
            return value

        return numeric

    def method_call(self, expr: MethodCall) -> Compiled:
        receiver, method = self.variable(expr.receiver), expr.method

        def method_call(run, frame):
            run.count += 1
            if run.count > run.limit:
                run.check()
            value = receiver(run, frame)
            if isinstance(value, Null):
                raise _Throw(NULL_DEREFERENCE)
            queries = QUERIES.get(value.cls) if isinstance(value, Obj) else None
            if queries is None or method not in queries:
                raise _Throw(TYPE_MISMATCH)
            return queries[method].fn(value.payload)

        return method_call

    def call(self, expr: CallExpr) -> Compiled:
        name, args = expr.func, tuple(self.expr(a) for a in expr.args)

        def call(run, frame):
            run.count += 1
            if run.count > run.limit:
                run.check()
            values = []
            for arg in args:
                values.append(arg(run, frame))
            return run.functions[name](run, values)

        return call


class _Lowering(_Closures):
    """Lowers the statements and functions of programs sharing one table."""

    def __init__(self, program: Program):
        super().__init__(program.consts, program.slots)
        self.table = program.closures
        self.capture = _capturer(program.consts, self.names)
        # Lowers fallbacks; it holds no table, so a fallback makes no cycle.
        self.closures = _Closures(program.consts, self.names)

    def cached(self, node, lower: Callable):
        """``lower(node)``, made once per node of the table's programs."""
        entry = self.table.get(id(node))
        if entry is None:
            entry = self.table[id(node)] = (node, lower(node))
        return entry[1]

    def function(self, fn: FunctionDef) -> Callable:
        name, arity = fn.name, len(fn.params)
        params = [(self.slot(p.name), p.type) for p in fn.params]
        body = self.block(fn.body, scoped=False)
        size = len(self.names)  # every slot the body uses is numbered
        frames = max(1 + depth(fn.body), CALL_FRAMES)
        limit = MAX_CALL_DEPTH * CALL_FRAMES - frames

        def invoke(run: _Run, args: List[Value]) -> Value:
            if len(args) != arity:
                raise ValueError(f"{name}() takes {arity} arguments, got {len(args)}")
            if run.depth > limit:
                raise Exhausted()
            frame = [UNBOUND] * size
            for (slot, declared), arg in zip(params, args):
                if not matches_declared(arg, declared):
                    raise _Throw(TYPE_MISMATCH)
                frame[slot] = arg
            run.depth += frames
            value = body(run, frame)
            run.depth -= frames
            if value is None:
                raise _Throw(MISSING_RETURN)
            return value

        return invoke

    # -- statements --

    def block(self, stmts: Sequence[Stmt], scoped: bool = True) -> Compiled:
        """The block's closure. Entering each statement takes one step and
        counts one hit. A probed statement other than an ``if`` (see
        ``if_stmt``) takes a snapshot next, in a wrapper whose frame
        ``ast.depth`` leaves out, so that a probed run reserves the call
        frames an unprobed one does."""
        entries = [(s.loc, self.called(s)) for s in stmts]
        declared = (tuple(self.slot(s.name) for s in stmts if isinstance(s, LetStmt))
                    if scoped else ())
        if not entries:
            return _empty_block
        if declared or len(entries) > 2:
            return _block_loop(tuple(entries), declared)
        return _short_block(entries)

    def called(self, stmt: Stmt) -> Compiled:
        """The closure a block calls to run ``stmt`` after its entry."""
        closure = self.cached(stmt, self.stmt)
        if stmt.probe and not isinstance(stmt, IfStmt):
            closure = _snapshot_first(closure, self.capture)
        return closure

    def stmt(self, stmt: Stmt) -> Compiled:
        if isinstance(stmt, IfStmt):
            return self.if_stmt(stmt)
        if isinstance(stmt, WhileStmt):
            params = []
            return _make(self.loop(stmt, params))(*params)
        if isinstance(stmt, (LetStmt, AssignStmt)):
            params = []
            shape = self.store(stmt, params)
            if shape is not None:
                return _make(shape)(*params)
            slot, value = self.slot(stmt.name), self.expr(stmt.value)
            if isinstance(stmt, LetStmt):
                def let(run, frame):
                    frame[slot] = value(run, frame)

                return let

            def assign(run, frame):
                result = value(run, frame)
                if frame[slot] is UNBOUND:
                    raise _Throw(UNBOUND_VARIABLE)
                frame[slot] = result

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

    def if_stmt(self, stmt: IfStmt) -> Compiled:
        """An ``if`` outside a loop. One whose condition is a pure tree is
        a one-statement shape; any other type-checks its condition's value
        in line. A probed ``if`` runs its condition (a tree's generated
        function, else its closure) in a wrapper that takes a snapshot as
        the condition starts and stores the value it gives."""
        params = []
        if isinstance(stmt.cond, Forced):
            cond, shape = self.cached(stmt.cond, self.expr), ("call",)
        else:
            shape = self.condition(stmt.cond, params)
            cond = params[-1]
        then_body, else_body = self.block(stmt.then_body), self.block(stmt.else_body)
        if stmt.probe:
            if shape[0] == "tree":
                cond = _make(("expr", shape[1]))(*params)
            cond = _snapshot_condition(cond, self.capture)
        elif isinstance(stmt.cond, Forced):
            return then_body if stmt.cond.value else else_body
        elif shape[0] == "tree":
            return _make(("if", shape, ("tail",), ("tail",)))(*params, then_body, else_body)

        def if_stmt(run, frame):
            value = cond(run, frame)
            if value is True:
                return then_body(run, frame)
            if value is False:
                return else_body(run, frame)
            raise _Throw(TYPE_MISMATCH)

        return if_stmt

    # -- generated code: shapes and their parameters, in one walk --

    def loop(self, stmt: WhileStmt, params: list) -> tuple:
        """The shape of a ``while``; see "Generated loops" in the module
        docstring. Each walk method appends the parameters of its shape to
        ``params``, in the order ``_render`` numbers them."""
        return ("while", self.condition(stmt.cond, params), self.body(stmt.body, params))

    def condition(self, cond: Expr, params: list) -> tuple:
        """An ``if`` or ``while`` condition: a pure tree in line, whose
        fallback is the condition's entry in the table, else a call to the
        condition's closure."""
        shape = self.tree(cond, params)
        if shape is None:
            params.append(self.cached(cond, self.expr))
            return ("call",)
        params.append(self.cached(cond, self.fallback))
        return ("tree", shape)

    def store(self, stmt, params: list) -> Optional[tuple]:
        """A ``let`` or assignment of a pure tree, or None. A let binds its
        target, and so has an assignment that every run of its tree reads
        (the fast path reads only bound slots); any other assignment checks
        that its target is bound."""
        shape = self.tree(stmt.value, params)
        if shape is None:
            return None
        bound = isinstance(stmt, LetStmt) or _always_reads(stmt.value, stmt.name)
        params += (self.fallback(stmt.value), self.slot(stmt.name))
        return ("store", shape, bound)

    def body(self, stmts: Sequence[Stmt], params: list) -> tuple:
        """A block run in line: each statement's location and shape, then
        the slots its ``let``s declared."""
        entries = []
        for s in stmts:
            params.append(s.loc)
            entries.append(self.inline(s, params))
        declared = [self.slot(s.name) for s in stmts if isinstance(s, LetStmt)]
        params += declared
        return ("block", tuple(entries), len(declared))

    def inline(self, stmt: Stmt, params: list) -> tuple:
        """A statement of a loop body: an unprobed ``if`` and a store of a
        pure tree run in line, and every other statement is a call to its
        closure."""
        if not stmt.probe:
            if isinstance(stmt, IfStmt) and isinstance(stmt.cond, Forced):
                self.cached(stmt.cond, self.expr)  # every condition has its entry
                return self.body(stmt.then_body if stmt.cond.value else stmt.else_body, params)
            if isinstance(stmt, IfStmt):
                return ("if", self.condition(stmt.cond, params),
                        self.body(stmt.then_body, params), self.body(stmt.else_body, params))
            if isinstance(stmt, (LetStmt, AssignStmt)):
                shape = self.store(stmt, params)
                if shape is not None:
                    return shape
        params.append(self.called(stmt))
        return ("tail",) if isinstance(stmt, ReturnStmt) else ("call",)

    # -- expressions --

    def expr(self, expr: Expr) -> Compiled:
        """A pure tree's generated function, else the node's closure."""
        params = []
        shape = self.tree(expr, params)
        if shape is None:
            return super().expr(expr)
        params.append(self.fallback(expr))
        return _make(("expr", shape))(*params)

    def fallback(self, expr: Expr) -> Compiled:
        """The closure tree of the pure tree ``expr``, lowered on its first
        run (see "Fused expression trees" in the module docstring)."""
        closures, closure = self.closures, None

        def fallback(run, frame):
            nonlocal closure
            if closure is None:
                closure = closures.expr(expr)
            return closure(run, frame)

        return fallback

    def tree(self, expr: Expr, params: list) -> Optional[tuple]:
        """The shape of ``expr`` if it is a pure tree whose root is an
        operator or a method call, appending its parameters, else None."""
        if not isinstance(expr, (Unary, Binary, MethodCall)):
            return None
        mark = len(params)
        shape = self.node(expr, params)
        if shape is None:
            del params[mark:]
        return shape

    def node(self, expr: Expr, params: list) -> Optional[tuple]:
        """The shape of a node of a pure tree, or None where the tree holds
        a call or a forced value. A variable of the frame is its slot, a
        literal or program constant its value with the value's kind, and a
        method call its receiver and the method's name."""
        if isinstance(expr, VarRef):
            return self.variable_leaf(expr.name, params)
        if isinstance(expr, Binary):
            if expr.op not in OPERATORS:
                raise TypeError(f"unknown binary operator {expr.op!r}")
            left = self.node(expr.left, params)
            right = None if left is None else self.node(expr.right, params)
            return None if right is None else ("binary", expr.op, left, right)
        if isinstance(expr, (IntLit, RealLit, BoolLit, NullLit)):
            value = NULL if isinstance(expr, NullLit) else expr.value
            params.append(value)
            return ("const", type(value).__name__)
        if isinstance(expr, Unary):
            if expr.op not in UNARY_OPERATORS:
                raise TypeError(f"unknown unary operator {expr.op!r}")
            operand = self.node(expr.operand, params)
            return None if operand is None else ("unary", expr.op, operand)
        if isinstance(expr, MethodCall):
            receiver = self.variable_leaf(expr.receiver, params)
            params.append(expr.method)
            return ("method", receiver)
        return None

    def variable_leaf(self, name: str, params: list) -> tuple:
        """A variable of a pure tree: a slot, or a program constant's
        value."""
        if name in self.consts:
            value = self.consts[name].value
            params.append(value)
            return ("const", type(value).__name__)
        params.append(self.slot(name))
        return ("slot",)


def _always_reads(expr: Expr, name: str) -> bool:
    """Whether every run of the pure tree ``expr`` reads the variable
    ``name``: the right operand of ``&&`` or ``||`` may not run."""
    if isinstance(expr, VarRef):
        return expr.name == name
    if isinstance(expr, MethodCall):
        return expr.receiver == name
    if isinstance(expr, Unary):
        return _always_reads(expr.operand, name)
    if isinstance(expr, Binary):
        return _always_reads(expr.left, name) or (
            expr.op not in ("&&", "||") and _always_reads(expr.right, name))
    return False


def _block_loop(entries: Tuple[Tuple[int, Compiled], ...], declared: Tuple[int, ...]) -> Compiled:
    """A block of ``(location, statement)`` entries, run in a loop, that
    unbinds the slots it ``declared`` when it completes."""
    def block(run, frame):
        for loc, stmt in entries:
            run.count += 1
            if run.count > run.limit:
                run.check()
            run.hits[loc] += 1
            value = stmt(run, frame)
            if value is not None:
                return value
        for slot in declared:
            frame[slot] = UNBOUND
        return None

    return block


def _short_block(entries: List[Tuple[int, Compiled]]) -> Compiled:
    """A block of one or two statements that declares nothing, unrolled:
    it returns what its last statement returns."""
    if len(entries) == 1:
        [(loc, stmt)] = entries

        def block(run, frame):
            run.count += 1
            if run.count > run.limit:
                run.check()
            run.hits[loc] += 1
            return stmt(run, frame)

        return block
    (loc, first), (last_loc, last) = entries

    def block(run, frame):
        run.count += 1
        if run.count > run.limit:
            run.check()
        run.hits[loc] += 1
        value = first(run, frame)
        if value is not None:
            return value
        run.count += 1
        if run.count > run.limit:
            run.check()
        run.hits[last_loc] += 1
        return last(run, frame)

    return block


# Generated code (see "Generated loops" in the module docstring): ``_render``
# writes the source of a shape's ``make``, whose parameters p0, p1, ... are
# the shape's slots, locations, constants, closures and fallbacks, numbered
# in the order the walk that built the shape (``_Lowering.loop`` and the
# methods after it) appended them. The source holds no MiniLang name or
# literal, so one compiled ``make`` serves every statement and expression
# of its shape.
# Compiled shapes kept: the `corpus` benchmark's set-up makes 23, one pass
# 28 more, and 300 `diverge` repairs after those 21 more.
_SHAPES = 128
_GLOBALS = {"UNBOUND": UNBOUND, "_Throw": _Throw, "TYPE_MISMATCH": TYPE_MISMATCH,
            "UNBOUND_VARIABLE": UNBOUND_VARIABLE, "INT_MIN": INT_MIN, "INT_MAX": INT_MAX,
            "Obj": Obj, "QUERIES": QUERIES, "divide": divide, "modulo": modulo,
            "__builtins__": builtins}


@functools.lru_cache(maxsize=_SHAPES)
def _make(shape: tuple) -> Callable:
    """The ``make`` of ``shape``, compiled once per process while cached.
    Every ``make`` shares ``_GLOBALS`` as its globals."""
    [code] = [c for c in compile(_render(shape), "<minilang shape>", "exec").co_consts
              if isinstance(c, types.CodeType)]
    return types.FunctionType(code, _GLOBALS)


def _render(shape: tuple) -> str:
    """The source of ``make``, which returns the shape's function of
    ``(run, frame)``. That function keeps the run's step count and limit
    in locals, and writes the count back to ``run`` before every call,
    ``run.check()``, raise and return, and reads both back after each."""
    lines, numbers, temps = [], itertools.count(), itertools.count()

    def param():
        return f"p{next(numbers)}"

    def emit(depth, *texts):
        lines.extend("    " * depth + text for text in texts)

    def call(depth, closure):
        emit(depth, "run.count = count", f"value = {closure}(run, frame)",
             "count = run.count", "limit = run.limit")

    def step(depth):
        emit(depth, "count += 1", "if count > limit:")
        emit(depth + 1, "run.count = count", "run.check()", "limit = run.limit")

    def typecheck(depth):
        emit(depth, "if value is not True and value is not False:",
             "    raise _Throw(TYPE_MISMATCH)")

    def reads(text, count):
        """``count`` reads of the value ``text``: a name is read as it is,
        and any other value binds a temporary at its first read."""
        if text.isidentifier():
            return [text] * count
        name = f"t{next(temps)}"
        return [f"({name} := {text})"] + [name] * (count - 1)

    def typed(value, kind, guards):
        """``value`` read after a guard that its type is the one named
        ``kind``."""
        test, value = reads(value, 2)
        guards.append(f"({test} is True or {value} is False)" if kind == "bool"
                      else f"type({test}) is {kind}")
        return value

    def node(shape, guards):
        """``(value, kind, steps, most)`` of a tree node: its value as an
        expression, the name of its Python type if the shape fixes it, the
        steps it always takes and the most it can take. Appends to
        ``guards`` the tests the fast path needs, in the order they run;
        the value is read after them."""
        if shape[0] == "slot":
            return f"frame[{param()}]", None, 1, 1
        if shape[0] == "const":
            return param(), shape[1], 1, 1
        if shape[0] == "method":
            receiver, kind, _, _ = node(shape[1], guards)
            method, queries = param(), f"q{next(temps)}"
            if kind != "Obj":
                receiver = typed(receiver, "Obj", guards)
            # a class without the query throws, so the fallback decides it
            guards.append(f"{method} in ({queries} := QUERIES.get({receiver}.cls, ()))")
            return f"{queries}[{method}].fn({receiver}.payload)", None, 2, 2
        if shape[0] == "unary":
            return operation(UNARY_OPERATORS[shape[1]], [node(shape[2], guards)], guards)
        op, left, right = shape[1:]
        if op == "&&" or op == "||":
            return logical(op, node(left, guards), right, guards)
        left, right = node(left, guards), node(right, guards)
        if op == "==" or op == "!=":
            return (equality(op, left, right, guards), "bool", 1 + left[2] + right[2],
                    1 + left[3] + right[3])
        return operation(OPERATORS[op], [left, right], guards)

    def operation(entry, operands, guards):
        """An operator of the table (``values.Operator``) on its operands'
        nodes. The fast path needs the operands to share one of its operand
        types, a divisor that is not zero and an int result in range, where
        the closures would throw or wrap."""
        values = [value for value, _, _, _ in operands]
        kinds = {kind for _, kind, _, _ in operands} - {None}
        steps, most = 1 + sum(o[2] for o in operands), 1 + sum(o[3] for o in operands)
        allowed = [t.__name__ for t in entry.operands]
        kind = k = None
        if kinds:
            kind = kinds.pop() if len(kinds) == 1 else None
            if kind not in allowed:
                guards.append("False")
                return entry.code.format(*values), None, steps, most
            values = [v if known else typed(v, kind, guards)
                      for v, (_, known, _, _) in zip(values, operands)]
        elif len(allowed) == 1:
            kind = allowed[0]
            values = [typed(v, kind, guards) for v in values]
        else:
            k = f"k{next(temps)}"
            tests, values = map(list, zip(*(reads(v, 2) for v in values)))
            same = "".join(f" is type({test})" for test in tests[1:])
            either = " or ".join(f"{k} is {t}" for t in allowed)
            guards.append(f"({k} := type({tests[0]})){same} and ({either})")
        if entry.zero_throws:
            test, values[-1] = reads(values[-1], 2)
            guards.append(f"{test} != 0")
        value = entry.code.format(*values)
        if entry.result is bool:
            return value, "bool", steps, most
        if kind == "float":
            return value, kind, steps, most
        t = f"t{next(temps)}"
        tail = "" if kind == "int" else f" or {k} is float"
        guards.append(f"(INT_MIN <= ({t} := {value}) <= INT_MAX{tail})")
        return t, kind, steps, most

    def logical(op, left, right, guards):
        """``&&`` and ``||``: the right operand's guards run only when the
        left one does not decide, and add its steps to ``n`` first."""
        value, kind, steps, most = left
        if kind == "bool":
            test, value = reads(value, 2)
        else:
            test = value = typed(value, "bool", guards)
        inner = []
        other, kind, right_steps, right_most = node(right, inner)
        if kind != "bool":
            other = typed(other, "bool", inner)
        decides = test if op == "||" else f"not {test}"
        inner.insert(0, f"(n := n + {right_steps})")
        guards.append(f"({decides} or {' and '.join(inner)})")
        return (OPERATORS[op].code.format(value, other), "bool", steps + 1,
                most + 1 + right_most)

    def equality(op, left, right, guards):
        """``==`` and ``!=``: null compares by identity and a record by
        ``==``, whatever the other operand; any other pair must have one
        type, as ``_equal`` requires."""
        (a, a_kind, _, _), (b, b_kind, _, _) = left, right
        kinds = (a_kind, b_kind)
        if "Null" in kinds or "Obj" in kinds:
            # the other operand needs no type, and only a slot can be unbound
            if a.startswith("frame["):
                test, a = reads(a, 2)
                guards.append(f"{test} is not UNBOUND")
            if b.startswith("frame["):
                test, b = reads(b, 2)
                guards.append(f"{test} is not UNBOUND")
            if "Null" in kinds:
                return f"({a} {'is' if op == '==' else 'is not'} {b})"
        elif a_kind and b_kind:
            if a_kind != b_kind:
                guards.append("False")
        elif b_kind:
            a = typed(a, b_kind, guards)
        elif a_kind:
            b = typed(b, a_kind, guards)
        else:
            k = f"k{next(temps)}"
            (a_test, a), (b_test, b) = reads(a, 2), reads(b, 2)
            guards.append(f"({k} := type({a_test})) is type({b_test}) and {k} is not object")
        return OPERATORS[op].code.format(a, b)

    def tree(shape, condition):
        """The guards of a tree's fast path, its value, the steps it always
        takes and the most it can take, and its fallback. A condition's
        guards also check that its value is a bool, binding it to
        ``value``."""
        guards = []
        value, kind, steps, most = node(shape, guards)
        if condition and kind != "bool":
            guards.append(f"((value := {value}) is True or value is False)")
            value = "value"
        return guards, value, steps, most, param()

    def fast(limit, guards, most):
        """The test that opens a tree's fast path."""
        return "".join([f"if count + {most} <= {limit}", *(f" and {g}" for g in guards), ":"])

    def in_line(depth, shape, condition):
        """The tree's value in ``value``: its fast path when it fits under
        the limit and every guard holds, else its fallback run from the
        unchanged count, whose value a condition type-checks."""
        guards, value, steps, most, fallback = tree(shape, condition)
        if steps != most:
            emit(depth, f"n = count + {steps}")
        emit(depth, fast("limit", guards, most))
        if value != "value":
            emit(depth + 1, f"value = {value}")
        emit(depth + 1, "count = n" if steps != most else f"count += {steps}")
        emit(depth, "else:")
        call(depth + 1, fallback)
        if condition:
            typecheck(depth + 1)

    def condition(depth, cond):
        if cond[0] == "tree":
            in_line(depth, cond[1], True)
        else:
            call(depth, param())
            typecheck(depth)

    def statement(depth, shape):
        kind = shape[0]
        if kind == "block":
            _, entries, declared = shape
            for entry in entries:
                loc = param()
                step(depth)
                emit(depth, f"hits[{loc}] += 1")
                statement(depth, entry)
            for _ in range(declared):
                emit(depth, f"frame[{param()}] = UNBOUND")
            if not entries and not declared:
                emit(depth, "pass")
        elif kind == "store":
            _, tree_shape, bound = shape
            in_line(depth, tree_shape, False)
            target = param()
            if not bound:
                emit(depth, f"if frame[{target}] is UNBOUND:")
                emit(depth + 1, "run.count = count", "raise _Throw(UNBOUND_VARIABLE)")
            emit(depth, f"frame[{target}] = value")
        elif kind == "if":
            condition(depth, shape[1])
            emit(depth, "if value:")
            statement(depth + 1, shape[2])
            emit(depth, "else:")
            statement(depth + 1, shape[3])
        elif kind == "tail":
            emit(depth, "run.count = count", f"return {param()}(run, frame)")
        elif kind == "call":
            call(depth, param())
            emit(depth, "if value is not None:", "    return value")
        else:
            assert kind == "while", shape
            emit(depth, "while True:")
            condition(depth + 1, shape[1])
            emit(depth + 1, "if not value:", "    run.count = count", "    return None")
            statement(depth + 1, shape[2])
            step(depth + 1)

    if shape[0] == "expr":
        # A tree alone: its fast path reads the limit from the run.
        guards, value, steps, most, fallback = tree(shape[1], False)
        emit(1, "def tree(run, frame):", "    count = run.count")
        if steps != most:
            emit(2, f"n = count + {steps}")
        emit(2, fast("run.limit", guards, most))
        emit(3, "run.count = n" if steps != most else f"run.count = count + {steps}",
             f"return {value}")
        emit(2, f"return {fallback}(run, frame)")
        emit(1, "return tree")
    else:
        loops = shape[0] == "while"
        if loops:
            name = "fused_loop" if shape[1][0] == "tree" else "loop"
        else:
            name = "fused_" + shape[0]
        emit(1, f"def {name}(run, frame):", "    count = run.count", "    limit = run.limit")
        if loops:
            emit(2, "hits = run.hits")
        statement(2, shape)
        if not loops:
            emit(2, "run.count = count")
        emit(1, f"return {name}")
    header = f"def make({', '.join(f'p{i}' for i in range(next(numbers)))}):"
    return "\n".join([header, *lines, ""])


def _capturer(consts, names: List[str]) -> Callable:
    """The snapshot taker of the programs with these consts and slot
    ``names``."""
    def capture(run: _Run, frame: List[Value]) -> ProbeSnapshot:
        """Append a snapshot of the state at a probed statement: the
        constants, then the frame's bound slots by name."""
        values = {c.name: c.value for c in consts.values()}
        for name, value in zip(names, frame):
            if value is not UNBOUND:
                values[name] = value
        snapshot = ProbeSnapshot(values)
        run.snapshots.append(snapshot)
        return snapshot

    return capture


def _snapshot_first(stmt: Compiled, capture: Callable) -> Compiled:
    """A probed statement other than an ``if``: a snapshot, then ``stmt``."""
    def probed(run, frame):
        capture(run, frame)
        return stmt(run, frame)

    return probed


def _snapshot_condition(cond: Compiled, capture: Callable) -> Compiled:
    """The condition of a probed ``if``: a snapshot as it starts, which
    then stores the value it gives."""
    def probed(run, frame):
        snapshot = capture(run, frame)
        snapshot.condition = value = cond(run, frame)
        return value

    return probed


def _lowered(program: Program) -> Dict[str, Callable]:
    """The program's functions as closures, lowered on its first run. Runs
    that race here each lower the program; either result serves every run."""
    compiled = program.compiled
    if compiled is None:
        lowering = _Lowering(program)
        compiled = program.compiled = {
            name: lowering.cached(fn, lowering.function)
            for name, fn in program.functions.items()
        }
    return compiled


def execute(
    program: Program,
    function: str,
    args: Sequence[Value],
    step_budget: int = DEFAULT_STEP_BUDGET,
    deadline: Optional[float] = None,
) -> ExecutionResult:
    """Run one function call, counting a hit per statement entry.
    Snapshots come from the program's probed statement, if it has one (see
    ``patching.probe``).

    Runtime errors and budget exhaustion (steps or call depth) are captured
    in the result; hits and snapshots collected before a failure are kept.
    A run that reads the clock past ``deadline`` raises DeadlineExceeded
    instead of returning a result.
    """
    if function not in program.functions:
        raise ValueError(f"undefined function {function!r}")
    functions = _lowered(program)
    hits = [0] * (program.max_location() + 1)
    run = _Run(functions, step_budget, deadline, hits)
    value, error, timed_out = _outcome(functions[function], run, args)
    return ExecutionResult(value, error, timed_out, run.snapshots, steps=run.count, counts=hits)


def execute_rows(
    program: Program,
    function: str,
    rows: Iterable[Sequence[Value]],
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> Iterator[Tuple[Optional[Value], Optional[str], bool]]:
    """The outcome of one call of ``function`` per row of arguments, as
    ``execute`` would end it: its value, error and whether that error is an
    exhausted budget, yielded as the rows are read.

    The program is lowered once and every row runs in one run state, whose
    count, limit and depth are reset before each row, so that a row ending
    in a throw or an exhausted budget leaves nothing to the next one. The
    rows share one hit list, which nothing reads, and take no snapshot
    that anything reads. There is no deadline.
    """
    if function not in program.functions:
        raise ValueError(f"undefined function {function!r}")
    functions = _lowered(program)
    entry = functions[function]
    run = _Run(functions, step_budget, None, [0] * (program.max_location() + 1))
    for args in rows:
        run.count, run.limit, run.depth = 0, step_budget, 0
        yield _outcome(entry, run, args)


def _outcome(entry: Callable, run: _Run,
             args: Sequence[Value]) -> Tuple[Optional[Value], Optional[str], bool]:
    """The value of one call of ``entry`` in ``run``, or the error it ends
    in; the last item tells whether that error is an exhausted budget."""
    try:
        return entry(run, list(args)), None, False
    except _Throw as t:
        return None, t.name, False
    except (Exhausted, RecursionError):
        # The call-depth budget keeps MiniLang calls within Python's stack
        # unless the caller itself runs deep in it; that exhausts the run too.
        return None, TIMEOUT, True
