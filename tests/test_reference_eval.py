"""A plain big-step evaluator of MiniLang, checked against ``execute``.

The evaluator walks the AST and follows the step rules of the
interpreter's module docstring, with no lowering, fusion, unrolling or
shared closures: one step per statement entry and per expression node (a
method call is two, a ``Forced`` condition none), one per finished
loop-body run, and the run times out on step ``budget + 1``. A run counts
a hit per statement entry; a probed ``if`` snapshots as its condition
starts and stores the value it gives, and any other probed statement
snapshots before it runs. It models neither the call-depth budget nor the
deadline: no run checked here comes near either.

Each run must agree with the evaluator on value, error, timeout, steps,
hits and snapshots. A snapshot holds only its values and condition, so
the evaluator checks the whole of each.
"""
import pytest

from condfix.corpus import builtin_seeded_bundles, default_corpus_dir, load_corpus
from condfix.minilang import (
    NULL, SKIP, AssignStmt, Binary, BoolLit, CallExpr, CallStmt, Forced, IfStmt, IntLit,
    LetStmt, MethodCall, NullLit, Obj, RealLit, ReturnStmt, StatementKind, ThrowStmt,
    Unary, VarRef, WhileStmt, decide, execute, parse_program, probe,
)
from conftest import CALLS

TIMEOUT = "TimeoutDuringExecution"


class _Stop(Exception):
    """The run ends with an error; ``timed_out`` when its budget ran out."""

    def __init__(self, error, timed_out=False):
        self.error, self.timed_out = error, timed_out


class _Return(Exception):
    def __init__(self, value):
        self.value = value


def _wrap(x):
    return (x + (1 << 63)) % (1 << 64) - (1 << 63)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _fits(v, declared):
    if declared in ("bool", "int", "real"):
        return {"bool": isinstance(v, bool), "int": _is_int(v),
                "real": isinstance(v, float)}[declared]
    return v is NULL or (isinstance(v, Obj) and v.cls == declared)


def _equal(a, b):
    if a is NULL or b is NULL:
        return a is b
    if isinstance(a, Obj) or isinstance(b, Obj):
        return a == b
    if isinstance(a, bool) and isinstance(b, bool):
        return a == b
    if (_is_int(a) and _is_int(b)) or (isinstance(a, float) and isinstance(b, float)):
        return a == b
    raise _Stop("TypeMismatch")


def _arithmetic(op, a, b):
    if not ((_is_int(a) and _is_int(b)) or (isinstance(a, float) and isinstance(b, float))):
        raise _Stop("TypeMismatch")
    if op in ("/", "%"):
        if op == "%" and isinstance(a, float):
            raise _Stop("TypeMismatch")
        if b == 0:
            raise _Stop("DivisionByZero")
        if isinstance(a, float):
            return a / b
        magnitude = abs(a) // abs(b) if op == "/" else abs(a) % abs(b)
        negative = (a < 0) != (b < 0) if op == "/" else a < 0
        return _wrap(-magnitude if negative else magnitude)
    value = {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}.get(op)
    if value is None:
        value = {"+": a + b, "-": a - b, "*": a * b}[op]
        return _wrap(value) if _is_int(a) else value
    return value


class Reference:
    def __init__(self, program, budget):
        self.program, self.budget = program, budget
        self.steps, self.hits, self.snapshots = 0, {}, []

    def step(self):
        self.steps += 1
        if self.steps > self.budget:
            raise _Stop(TIMEOUT, timed_out=True)

    def snapshot(self, frame):
        values = {c.name: c.value for c in self.program.consts.values()}
        values.update(frame)
        self.snapshots.append([values, None])
        return self.snapshots[-1]

    def call(self, name, args):
        fn = self.program.functions[name]
        frame = {}
        for param, arg in zip(fn.params, args):
            if not _fits(arg, param.type):
                raise _Stop("TypeMismatch")
            frame[param.name] = arg
        try:
            self.block(fn.body, frame)
        except _Return as ret:
            return ret.value
        raise _Stop("MissingReturn")

    def block(self, stmts, frame):
        for s in stmts:
            self.step()
            self.hits[s.loc] = self.hits.get(s.loc, 0) + 1
            if s.probe and not isinstance(s, IfStmt):
                self.snapshot(frame)
            self.stmt(s, frame)
        for s in stmts:
            if isinstance(s, LetStmt):
                frame.pop(s.name, None)

    def condition(self, cond, frame):
        value = self.expr(cond, frame)
        if not isinstance(value, bool):
            raise _Stop("TypeMismatch")
        return value

    def stmt(self, s, frame):
        if isinstance(s, LetStmt):
            frame[s.name] = self.expr(s.value, frame)
        elif isinstance(s, AssignStmt):
            value = self.expr(s.value, frame)
            if s.name not in frame:
                raise _Stop("UnboundVariable")
            frame[s.name] = value
        elif isinstance(s, IfStmt):
            snapshot = self.snapshot(frame) if s.probe else None
            value = self.condition(s.cond, frame)
            if snapshot is not None:
                snapshot[1] = value
            self.block(s.then_body if value else s.else_body, frame)
        elif isinstance(s, WhileStmt):
            while self.condition(s.cond, frame):
                self.block(s.body, frame)
                self.step()
        elif isinstance(s, ReturnStmt):
            raise _Return(self.expr(s.value, frame))
        elif isinstance(s, ThrowStmt):
            raise _Stop(s.error)
        else:
            assert isinstance(s, CallStmt)
            self.expr(s.call, frame)

    def expr(self, e, frame):
        if isinstance(e, Forced):
            return e.value
        self.step()
        if isinstance(e, (IntLit, RealLit, BoolLit)):
            return e.value
        if isinstance(e, NullLit):
            return NULL
        if isinstance(e, VarRef):
            if e.name in self.program.consts:
                return self.program.consts[e.name].value
            if e.name not in frame:
                raise _Stop("UnboundVariable")
            return frame[e.name]
        if isinstance(e, Unary):
            value = self.expr(e.operand, frame)
            if e.op == "!" and isinstance(value, bool):
                return not value
            if e.op == "-" and (_is_int(value) or isinstance(value, float)):
                return _wrap(-value) if _is_int(value) else -value
            raise _Stop("TypeMismatch")
        if isinstance(e, Binary) and e.op in ("&&", "||"):
            left = self.expr(e.left, frame)
            if not isinstance(left, bool):
                raise _Stop("TypeMismatch")
            if left == (e.op == "||"):
                return left
            return self.condition(e.right, frame)
        if isinstance(e, Binary):
            a, b = self.expr(e.left, frame), self.expr(e.right, frame)
            if e.op in ("==", "!="):
                return _equal(a, b) == (e.op == "==")
            return _arithmetic(e.op, a, b)
        if isinstance(e, MethodCall):
            receiver = self.expr(VarRef(e.receiver), frame)
            if receiver is NULL:
                raise _Stop("NullDereference")
            if not isinstance(receiver, Obj):
                raise _Stop("TypeMismatch")
            return self.program.registry.lookup(receiver.cls, e.method).fn(receiver.payload)
        assert isinstance(e, CallExpr)
        return self.call(e.func, [self.expr(a, frame) for a in e.args])


def _key(value):
    """A value that compares equal to itself, NaN included."""
    return "NaN" if value != value else (type(value), value)


def reference(program, function, args, budget):
    ref = Reference(program, budget)
    value = error = None
    timed_out = False
    try:
        value = ref.call(function, list(args))
    except _Stop as stop:
        error, timed_out = stop.error, stop.timed_out
    return _key(value), error, timed_out, ref.steps, ref.hits, ref.snapshots


def check(program, function, args, budget, deadlines=(None,)):
    """Assert that ``execute``, under each deadline, agrees with the
    evaluator."""
    expected = reference(program, function, args, budget)
    for deadline in deadlines:
        result = execute(program, function, args, step_budget=budget, deadline=deadline)
        snapshots = [[s.values, s.condition] for s in result.snapshots]
        actual = (_key(result.value), result.error, result.timed_out, result.steps,
                  result.hits, snapshots)
        assert actual == expected, (function, args, budget, deadline)


def edits(program):
    """The program, each ``if`` forced both ways, each plain statement
    skipped, and each statement probed."""
    yield program
    for loc in program.locations():
        kind = program.kind_of(loc)
        if kind is StatementKind.IF:
            yield decide(program, loc, True)
            yield decide(program, loc, False)
        elif kind is StatementKind.PLAIN:
            yield decide(program, loc, SKIP)
        yield probe(program, loc)


BUDGET = 5_000  # the step budget of the benchmark's diverge workload
BUNDLES = load_corpus(default_corpus_dir()) + builtin_seeded_bundles()


@pytest.mark.parametrize("bundle", BUNDLES, ids=[b.id for b in BUNDLES])
def test_every_suite_test_of_the_corpus(bundle):
    program, suite = bundle.program, bundle.suite
    for test in suite:
        check(program, test.function, test.args, 1_000_000)
    # an edit can loop for ever, so edited runs get the workload's budget
    for edited in edits(program):
        for test in suite:
            check(edited, test.function, test.args, BUDGET)
    # every budget that cuts a plain run, down to no step at all
    for test in suite:
        full = execute(program, test.function, test.args)
        for budget in range(min(full.steps, 200) + 1):
            check(program, test.function, test.args, budget)


def test_a_call_statement_and_an_else_if():
    program = parse_program(CALLS)
    for edited in edits(program):
        for x in range(-3, 5):
            check(edited, "sign", [x], BUDGET)
    for x in (-3, 0, 5):
        for budget in range(20):
            check(program, "sign", [x], budget)


# The three loop shapes of the benchmark's ``diverge`` workload, with
# COND the comparison that decides which way each iteration moves.
LOOPS = {
    "walk": """\
fn walk(pos: int, target: int) -> int {
  let steps: int = 0;
  while (pos != target) {
    if (COND) {
      pos = pos + 1;
    } else {
      pos = pos - 1;
    }
    steps = steps + 1;
  }
  return steps;
}
""",
    "walkSum": """\
fn walkSum(pos: int, target: int) -> int {
  let total: int = 0;
  while (pos != target) {
    if (COND) {
      pos = pos + 1;
    } else {
      pos = pos - 1;
    }
    total = total + pos;
  }
  return total;
}
""",
    "meet": """\
fn meet(a: int, b: int) -> int {
  while (a != b) {
    if (COND) {
      a = a + 1;
    } else {
      b = b + 1;
    }
  }
  return a;
}
""",
}
# The correct comparison and every wrong-way one.
COMPARISONS = ("x < y", "x > y", "x >= y", "y < x", "y <= x")
CASES = [(-7, -4), (-1, 5), (6, 3), (2, -6), (2, 2)]
ITERATION = 16  # steps of one walk iteration


@pytest.mark.parametrize("name", LOOPS)
@pytest.mark.parametrize("comparison", COMPARISONS)
def test_diverge_loops(name, comparison):
    params = ("pos", "target") if name != "meet" else ("a", "b")
    cond = comparison.replace("x", "X").replace("y", params[1]).replace("X", params[0])
    program = parse_program(LOOPS[name].replace("COND", cond))
    [if_loc] = [loc for loc in program.locations() if program.kind_of(loc) is StatementKind.IF]
    variants = [program, decide(program, if_loc, True), decide(program, if_loc, False)]
    probed = [probe(program, loc) for loc in program.locations()]
    for variant, cases in [(v, CASES) for v in variants] + [(p, CASES[:3]) for p in probed]:
        for args in cases:
            # a deadline that does not pass still moves the limit at each
            # clock read, which falls inside statements of a long run
            check(variant, name, args, BUDGET, deadlines=(None, float("inf")))
    # every budget through three iterations: inside each and at its end
    for variant in variants:
        for args in CASES[:2]:
            for budget in range(3 * ITERATION + 8):
                check(variant, name, args, budget)
