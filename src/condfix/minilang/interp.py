"""Interpreter that lowers MiniLang to Python closures (Feeley & Lapalme,
"Using closures for code generation", 1987).

A closure holds no per-run state: it receives the run's context and the
current call frame, so runs never share state. Runtime failures (null
dereference, division by zero, thrown errors, exhausted step budget or
call depth) are reported in the ExecutionResult, never raised. The one
exception ``execute`` raises for a run is ``DeadlineExceeded``.

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
expression closure of each ``if`` or ``while`` condition, is cached in
``Program.closures`` by node identity, a table that a program shares
with every program path-copied from it, along with consts and registry,
the only program parts a closure reads. An edit so lowers only the
statements on its path and its function. A probed statement is a node of
its own, so its closure never serves the unprobed one. Calls find their
callee in ``run.functions`` and snapshots close over the consts and slot
names alone, so no closure refers to a program.

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

Fused statements (superoperators; Proebsting, POPL 1995): a ``let`` or
assignment of a binary node ``<``, ``<=``, ``>``, ``>=``, ``+``, ``-``,
``*``, ``==`` or ``!=`` whose left operand is a variable (not a program
constant) and whose right operand is a variable or an int or real literal
or program constant, and an ``if`` or ``while`` whose condition is such a
node with a comparison operator, is one closure that runs the node in
line, reading its variables straight from their slots. It charges the
node's three steps at once, and only when they fit under the run's limit,
both slots are bound, the operands are two ints or two reals, and an int
result needs no wrapping. In every other case (a budget or clock read
that falls inside the node, an unbound slot, mixed or non-numeric types)
it runs the node's own closure from the unchanged step count, and then
finishes as the unfused statement does. Leaf reads are pure, so that
fallback is exact: steps, hits, snapshots, errors and timeouts are those
of the unfused statement. ``/`` and ``%`` are never fused, and neither is
the condition of a probed ``if``. An expression node alone never fuses.

Unrolled blocks: a block of one or two statements that declares nothing
runs its statements in line instead of looping over them, and returns
what its last statement returns.

Forced ``if``: an unprobed ``if`` whose condition is ``Forced`` lowers to
the closure of the branch it takes; the ``if`` takes its entry step, and
the condition none, as before.

A fused statement's fallback adds at most one Python frame, at the top of
the stack, and never around a call, because fused operands never call; an
unrolled block or a forced ``if`` adds none.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..budget import Budget, Exhausted
from .ast import (
    AssignStmt, Binary, BoolLit, CallExpr, CallStmt, Expr, Forced, FunctionDef,
    IfStmt, IntLit, LetStmt, MethodCall, NullLit, Program, RealLit, ReturnStmt,
    Stmt, ThrowStmt, Unary, VarRef, WhileStmt, depth,
)
from .values import INT_MAX, INT_MIN, NULL, Null, Obj, Value, matches_declared, wrap_int

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
# the module docstring); an unbound slot holds UNBOUND.
Compiled = Callable[[_Run, List[Value]], Optional[Value]]
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
# The operators a fused statement applies itself, to two ints or two reals
# only. There each agrees with the node's own closure, except that an int
# result out of range is left to that closure to wrap. The comparisons give
# bools, so only they fuse into an ``if`` or ``while``.
_COMPARISONS = {op: _NUMERIC[op] for op in ("<", "<=", ">", ">=")}
_COMPARISONS.update({"==": operator.eq, "!=": operator.ne})
_FUSED = {op: _NUMERIC[op] for op in ("+", "-", "*")}
_FUSED.update(_COMPARISONS)


class _Lowering:
    """Lowers the statements and functions of programs sharing one table."""

    def __init__(self, program: Program):
        self.consts, self.registry, self.table = program.consts, program.registry, program.closures
        self.names = program.slots
        self.capture = _capturer(program.consts, self.names)

    def cached(self, node, lower: Callable):
        """``lower(node)``, made once per node of the table's programs."""
        entry = self.table.get(id(node))
        if entry is None:
            entry = self.table[id(node)] = (node, lower(node))
        return entry[1]

    def slot(self, name: str) -> int:
        """The frame slot of the local ``name``, numbered on first use. Two
        lowerings that race here may both append the name; the first copy
        serves both, and the other slot is never bound."""
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

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
        ``branching``) takes a snapshot next, in a wrapper whose frame
        ``ast.depth`` leaves out, so that a probed run reserves the call
        frames an unprobed one does."""
        entries = []
        for s in stmts:
            stmt = self.cached(s, self.stmt)
            if s.probe and not isinstance(s, IfStmt):
                stmt = _snapshot_first(stmt, self.capture)
            entries.append((s.loc, stmt))
        declared = (tuple(self.slot(s.name) for s in stmts if isinstance(s, LetStmt))
                    if scoped else ())
        if not entries:
            return _empty_block
        if declared or len(entries) > 2:
            return _block_loop(tuple(entries), declared)
        return _short_block(entries)

    def stmt(self, stmt: Stmt) -> Compiled:
        if isinstance(stmt, (IfStmt, WhileStmt)):
            return self.branching(stmt)
        if isinstance(stmt, (LetStmt, AssignStmt)):
            slot = self.slot(stmt.name)
            declares = isinstance(stmt, LetStmt)
            fused = self.operands(stmt.value, _FUSED)
            if fused is not None:
                # A let binds its name, and so has an assignment read it.
                bound = declares or slot in fused[1:3]
                return _fused_store(slot, bound, self.binary(stmt.value), *fused)
            value = self.expr(stmt.value)
            if declares:
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

    def branching(self, stmt) -> Compiled:
        """An ``if`` or ``while``, whose condition is type-checked in line.
        A probed ``if`` runs its condition in a wrapper that takes a
        snapshot as the condition starts and stores the value it gives."""
        cond = self.cached(stmt.cond, self.expr)
        fused = None if stmt.probe else self.operands(stmt.cond, _COMPARISONS)
        if isinstance(stmt, IfStmt):
            then_body, else_body = self.block(stmt.then_body), self.block(stmt.else_body)
            if isinstance(stmt.cond, Forced) and not stmt.probe:
                return then_body if stmt.cond.value else else_body
            if fused is not None:
                return _fused_if(cond, then_body, else_body, *fused)
            if stmt.probe:
                cond = _snapshot_condition(cond, self.capture)

            def if_stmt(run, frame):
                value = cond(run, frame)
                if value is True:
                    return then_body(run, frame)
                if value is False:
                    return else_body(run, frame)
                raise _Throw(TYPE_MISMATCH)

            return if_stmt

        body = self.block(stmt.body)
        if fused is not None:
            return _fused_while(cond, body, *fused)

        def while_stmt(run, frame):
            while True:
                value = cond(run, frame)
                if value is not True:
                    if value is False:
                        return None
                    raise _Throw(TYPE_MISMATCH)
                value = body(run, frame)
                if value is not None:
                    return value
                run.count += 1
                if run.count > run.limit:
                    run.check()

        return while_stmt

    # -- expressions --

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
        operand = self.expr(expr.operand)
        if expr.op not in _UNARY:
            raise TypeError(f"unknown unary operator {expr.op!r}")
        apply = _UNARY[expr.op]

        def unary(run, frame):
            run.count += 1
            if run.count > run.limit:
                run.check()
            return apply(operand(run, frame))

        return unary

    def binary(self, expr: Binary) -> Compiled:
        """The binary node's closure, which a fused statement also runs
        whenever it cannot finish the node itself."""
        op = expr.op
        left, right = self.expr(expr.left), self.expr(expr.right)
        if op in ("&&", "||"):
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

        if op in ("==", "!="):
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

        if op not in _NUMERIC:
            raise TypeError(f"unknown binary operator {op!r}")
        apply = _NUMERIC[op]

        def numeric(run, frame):
            run.count += 1
            if run.count > run.limit:
                run.check()
            a = left(run, frame)
            b = right(run, frame)
            kind = type(a)
            if kind is not type(b) or (kind is not int and kind is not float):
                raise _Throw(TYPE_MISMATCH)
            value = apply(a, b)
            if kind is int and not INT_MIN <= value <= INT_MAX:
                return wrap_int(value)
            return value

        return numeric

    def operands(self, expr: Expr, operators: Dict[str, Callable]) -> Optional[tuple]:
        """``(apply, left, right, constant)`` for a binary node with an
        operator in ``operators`` whose left operand is a variable of the
        frame (``left`` its slot) and whose right one is a variable
        (``right`` its slot, ``constant`` None) or an int or real constant
        (``right`` None, ``constant`` its value); None for any other node
        (see "Fused statements" in the module docstring)."""
        if not isinstance(expr, Binary) or expr.op not in operators or not self.local(expr.left):
            return None
        apply, left, right = operators[expr.op], self.slot(expr.left.name), expr.right
        if self.local(right):
            return apply, left, self.slot(right.name), None
        if isinstance(right, (IntLit, RealLit)):
            constant = right.value
        elif isinstance(right, VarRef):
            constant = self.consts[right.name].value
        else:
            return None
        if type(constant) is not int and type(constant) is not float:
            return None
        return apply, left, None, constant

    def local(self, expr: Expr) -> bool:
        """Whether ``expr`` reads a variable of the frame."""
        return isinstance(expr, VarRef) and expr.name not in self.consts

    def method_call(self, expr: MethodCall) -> Compiled:
        receiver, method, registry = self.variable(expr.receiver), expr.method, self.registry

        def method_call(run, frame):
            run.count += 1
            if run.count > run.limit:
                run.check()
            value = receiver(run, frame)
            if isinstance(value, Null):
                raise _Throw(NULL_DEREFERENCE)
            if not isinstance(value, Obj):
                raise _Throw(TYPE_MISMATCH)
            return registry.lookup(value.cls, method).fn(value.payload)

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


# The fused closures below read a node's operands from the frame slots
# ``left`` and ``right``, or take ``constant`` where ``right`` is None (see
# ``_Lowering.operands``): an unbound slot reads as UNBOUND, which fails
# the type test, so that the closure falls back to the node's own closure,
# which raises the error.


def _fused_store(slot: int, bound: bool, general: Compiled, apply, left, right,
                 constant) -> Compiled:
    """A ``let`` or assignment of a fused binary node to ``slot``.
    ``bound`` skips the check that an assignment's target is bound."""
    def fused_store(run, frame):
        steps = run.count + 3
        a = frame[left]
        b = constant if right is None else frame[right]
        kind = type(a)
        if steps <= run.limit and kind is type(b) and (kind is int or kind is float):
            value = apply(a, b)
            if kind is float or INT_MIN <= value <= INT_MAX:
                run.count = steps
            else:
                value = general(run, frame)
        else:
            value = general(run, frame)
        if bound or frame[slot] is not UNBOUND:
            frame[slot] = value
            return None
        raise _Throw(UNBOUND_VARIABLE)

    return fused_store


def _fused_if(cond: Compiled, then_body: Compiled, else_body: Compiled, apply, left, right,
              constant) -> Compiled:
    """An ``if`` whose condition is a fused comparison; ``cond`` is the
    condition's closure."""
    def fused_if(run, frame):
        steps = run.count + 3
        a = frame[left]
        b = constant if right is None else frame[right]
        kind = type(a)
        if steps <= run.limit and kind is type(b) and (kind is int or kind is float):
            run.count = steps
            if apply(a, b):
                return then_body(run, frame)
            return else_body(run, frame)
        value = cond(run, frame)
        if value is True:
            return then_body(run, frame)
        if value is False:
            return else_body(run, frame)
        raise _Throw(TYPE_MISMATCH)

    return fused_if


def _fused_while(cond: Compiled, body: Compiled, apply, left, right, constant) -> Compiled:
    """A ``while`` whose condition is a fused comparison; ``cond`` is the
    condition's closure."""
    def fused_while(run, frame):
        while True:
            steps = run.count + 3
            a = frame[left]
            b = constant if right is None else frame[right]
            kind = type(a)
            if steps <= run.limit and kind is type(b) and (kind is int or kind is float):
                run.count = steps
                if not apply(a, b):
                    return None
            else:
                value = cond(run, frame)
                if value is not True:
                    if value is False:
                        return None
                    raise _Throw(TYPE_MISMATCH)
            value = body(run, frame)
            if value is not None:
                return value
            run.count += 1
            if run.count > run.limit:
                run.check()

    return fused_while


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
    result = ExecutionResult(snapshots=run.snapshots, counts=hits)
    try:
        result.value = functions[function](run, list(args))
    except _Throw as t:
        result.error = t.name
    except (Exhausted, RecursionError):
        # The call-depth budget keeps MiniLang calls within Python's stack
        # unless the caller itself runs deep in it; that exhausts the run too.
        result.error = TIMEOUT
        result.timed_out = True
    result.steps = run.count
    return result
