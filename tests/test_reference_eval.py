"""A plain big-step evaluator of MiniLang, checked against ``execute``.

The evaluator walks the AST and follows the step rules of the
interpreter's module docstring, with no lowering, fusion, unrolling or
shared closures: one step per statement entry and per expression node (a
method call is two, a ``Forced`` condition none), one per finished
loop-body run, and the run times out on step ``budget + 1``. A run counts
a hit per statement entry; a probed ``if`` snapshots as its condition
starts and stores the value it gives, and any other probed statement
snapshots before it runs. It models the call-depth reservation as
``invoke`` makes it: each call reserves ``max(1 + depth(body),
CALL_FRAMES)`` frames, and a call whose reserved depth would pass
``MAX_CALL_DEPTH * CALL_FRAMES`` ends the run as a timeout. It does not
model the deadline: a deadline that does not pass changes no run.

Each run must agree with the evaluator on value, error, timeout, steps,
hits and snapshots. A snapshot holds only its values and condition, so
the evaluator checks the whole of each.
"""
import re
from dataclasses import replace

import pytest

from condfix.corpus import builtin_seeded_bundles, default_corpus_dir, load_corpus
from condfix.minilang import (
    NULL, SKIP, AssignStmt, Binary, BoolLit, CallExpr, CallStmt, Forced, IfStmt, IntLit,
    LetStmt, MethodCall, NullLit, Obj, RealLit, ReturnStmt, StatementKind, ThrowStmt,
    Unary, VarRef, WhileStmt, decide, execute, parse_program, probe, render_program,
)
from condfix.minilang.ast import BLOCKS, Program, depth
from condfix.minilang.interp import CALL_FRAMES, MAX_CALL_DEPTH
from condfix.minilang.parser import MAX_NESTING
from condfix.minilang.values import INT_MAX, INT_MIN
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


# The state queries, written out apart from ``registry.QUERIES``.
_QUERIES = {("Str", "length"): len, ("Str", "isEmpty"): lambda payload: payload == ""}


class Reference:
    def __init__(self, program, budget):
        self.program, self.budget = program, budget
        self.steps, self.hits, self.snapshots = 0, {}, []
        self.depth = 0  # the frames the active calls reserve
        self.iterations = []  # the step count at the end of each loop-body run

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
        frames = max(1 + depth(fn.body), CALL_FRAMES)
        if self.depth > MAX_CALL_DEPTH * CALL_FRAMES - frames:
            raise _Stop(TIMEOUT, timed_out=True)
        frame = {}
        for param, arg in zip(fn.params, args):
            if not _fits(arg, param.type):
                raise _Stop("TypeMismatch")
            frame[param.name] = arg
        self.depth += frames
        try:
            self.block(fn.body, frame)
        except _Return as ret:
            self.depth -= frames
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
                self.iterations.append(self.steps)
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
            if not isinstance(receiver, Obj) or (receiver.cls, e.method) not in _QUERIES:
                raise _Stop("TypeMismatch")
            return _QUERIES[receiver.cls, e.method](receiver.payload)
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


def check(program, function, args, budget, deadlines=(None,), expected=None):
    """Assert that ``execute``, under each deadline, agrees with the
    evaluator, or with ``expected``, the evaluator's outcome at this budget
    if the caller has it."""
    if expected is None:
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


def loop_variants(text, comparison):
    """A ``LOOPS`` program with ``comparison`` over its two parameters, and
    the program with its ``if`` decided true and false."""
    params = re.search(r"\((\w+): int, (\w+): int\)", text).groups()
    cond = comparison.replace("x", "X").replace("y", params[1]).replace("X", params[0])
    program = parse_program(text.replace("COND", cond))
    [if_loc] = [loc for loc in program.locations() if program.kind_of(loc) is StatementKind.IF]
    return [program, decide(program, if_loc, True), decide(program, if_loc, False)]


@pytest.mark.parametrize("name", LOOPS)
@pytest.mark.parametrize("comparison", COMPARISONS)
def test_diverge_loops(name, comparison):
    variants = loop_variants(LOOPS[name], comparison)
    program = variants[0]
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


# Loop edges: (id, program, function, args, the plain run's value or
# error). Each takes a generated loop off its fused fast path, or through
# a statement that it calls.
LOOP_EDGES = [
    ("int-store-wraps", """\
fn f(x: int, d: int) -> int {
  let i: int = 0;
  while (i < 5) {
    x = x + d;
    i = i + 1;
  }
  return x;
}
""", "f", [9223372036854775806, 1], -9223372036854775805),
    ("real-loop", """\
fn f(n: int) -> real {
  let x: real = 0.0;
  let i: int = 0;
  while (x < 2.5) {
    x = x + 0.5;
    i = i + n;
  }
  return x;
}
""", "f", [1], 2.5),
    ("int-real-condition", """\
fn f(i: int, n: int, r: real) -> int {
  let k: int = 0;
  while (i < n) {
    k = k + 1;
    if (k > 2) {
      n = r;
    }
  }
  return k;
}
""", "f", [0, 10, 4.5], "TypeMismatch"),
    ("let-in-body", """\
fn f(n: int) -> int {
  let s: int = 0;
  let i: int = 0;
  while (i < n) {
    let d: int = i * 2;
    s = s + d;
    i = i + 1;
  }
  return s;
}
""", "f", [5], 20),
    ("return-from-branch", """\
fn f(n: int) -> int {
  let i: int = 0;
  while (i < 100) {
    i = i + 1;
    if (i >= n) {
      return i * 10;
    }
  }
  return 0;
}
""", "f", [4], 40),
    ("throw-in-body", """\
fn f(n: int) -> int {
  let i: int = 0;
  while (i < n) {
    i = i + 1;
    if (i == 4) {
      throw Boom;
    }
  }
  return i;
}
""", "f", [9], "Boom"),
    ("nested-while", """\
fn f(n: int) -> int {
  let s: int = 0;
  let i: int = 0;
  while (i < n) {
    let j: int = 0;
    while (j < i) {
      s = s + j;
      j = j + 1;
    }
    i = i + 1;
  }
  return s;
}
""", "f", [5], 10),
    ("call-in-body", """\
fn sq(x: int) -> int {
  return x * x;
}

fn note(x: int) -> int {
  if (x > 100) {
    throw Big;
  }
  return x;
}

fn f(n: int) -> int {
  let s: int = 0;
  let i: int = 0;
  while (i < n) {
    s = s + sq(i);
    note(s);
    i = i + 1;
  }
  return s;
}
""", "f", [5], 30),
    ("generated-names", """\
fn f(count: int, limit: int) -> int {
  let hits: int = 0;
  let run: int = 0;
  let frame: int = 1;
  let a: int = 0;
  let b: int = 1;
  let c: int = 0;
  while (count < limit) {
    c = a + b;
    a = b;
    b = c;
    hits = hits + 1;
    run = run + frame;
    count = count + 1;
  }
  return c * 1000 + hits * 10 + run;
}
""", "f", [0, 6], 13066),
]


@pytest.mark.parametrize("source, function, args, expected",
                         [edge[1:] for edge in LOOP_EDGES], ids=[edge[0] for edge in LOOP_EDGES])
def test_loop_edges(source, function, args, expected):
    program = parse_program(source)
    result = execute(program, function, args)
    assert (result.value if result.ok else result.error) == expected
    # every budget through the first three loop-body runs
    ref = Reference(program, 1_000_000)
    try:
        ref.call(function, list(args))
    except _Stop:
        pass
    end = ref.iterations[2] if len(ref.iterations) > 2 else ref.steps
    for budget in range(end + 1):
        check(program, function, args, budget, deadlines=(None, float("inf")))
    # a forced wrong way, a loop runs to the budget, past a clock read
    for edited in edits(program):
        check(edited, function, args, BUDGET, deadlines=(None, float("inf")))


# Expression edges: (id, program, function, args, the plain run's value or
# error). Each runs a pure tree whose generated fast path must hand the
# run to the tree's closures, or decide a case the closures decide, with
# the same steps. The ``unbound`` program runs with its ``let`` skipped, so
# that its tree reads an unbound variable.
DEEP = MAX_NESTING - 4
# Each call reserves its deep tree's frames, so six calls fit in the limit
# and the deepest one runs the tree (and, under a cut budget, its
# fallback) on top of them.
DEEP_RECURSION = """\
fn f(n: int, b: bool) -> bool {
  if (n > 0) {
    return f(n - 1, b);
  }
  return """ + "!" * (DEEP - 4) + """(b || n > 0);
}
"""
EXPRESSION_EDGES = [
    ("nan-equals-itself", "fn f(r: real) -> bool { return r == r || r != r && !(r == r); }",
     "f", [float("nan")], True),
    ("signed-zeros", "fn f(a: real, b: real) -> bool { return a == b && !(a != b); }",
     "f", [0.0, -0.0], True),
    ("int-max-plus-one", "fn f(x: int) -> int { return x + 1 - 1; }", "f", [INT_MAX], INT_MAX),
    ("negated-int-min", "fn f(x: int) -> bool { return -x == x && -(x + 1) != x + 1; }",
     "f", [INT_MIN], True),
    ("negated-int-min-of-an-int-node", "fn f(x: int) -> bool { return -(x - 1) == x - 1; }",
     "f", [INT_MIN + 1], True),
    ("int-real-mix", "fn f(x: int, r: real) -> bool { return x < 1 || x < r; }",
     "f", [3, 2.5], "TypeMismatch"),
    ("bool-equals-int", "fn f(b: bool) -> bool { return !b || b == 1; }", "f", [True],
     "TypeMismatch"),
    ("record-equals-null", "fn f(s: Str) -> bool { return s == null || null != s; }",
     "f", [Obj("Str", "ab")], True),
    ("null-equals-null", "fn f(s: Str) -> bool { return s == null && null == null; }",
     "f", [NULL], True),
    ("record-equals-record", "fn f(s: Str, t: Str) -> bool { return s == t && !(s != t); }",
     "f", [Obj("Str", "ab"), Obj("Str", "ab")], True),
    ("method-on-null", "fn f(s: Str) -> int { return s.length() + 1; }", "f", [NULL],
     "NullDereference"),
    ("method-on-a-constant",
     'const P: Str = Str("abc");\nfn f(x: int) -> int { return P.length() * x - P.length(); }',
     "f", [4], 9),
    ("method-of-another-class",
     "fn f(a: Foo) -> int { let s: Str = a; return s.length() + 1; }",
     "f", [Obj("Foo", "ab")], "TypeMismatch"),
    ("method-of-another-class-on-a-constant",
     'const K: Str = Foo("ab");\nfn g() -> bool { return K.isEmpty(); }',
     "g", [], "TypeMismatch"),
    ("unbound", "fn f(x: int, s: Str) -> bool { let t: Str = s; return x > 1 && t == null; }",
     "f", [5, NULL], "UnboundVariable"),
    ("and-skips-a-mistyped-right", "fn f(x: int) -> bool { return x < 0 && x; }", "f", [3], False),
    ("or-skips-a-mistyped-right", "fn f(x: int) -> bool { return x > 0 || x; }", "f", [3], True),
    ("or-runs-a-mistyped-right", "fn f(x: int) -> bool { return x < 0 || x; }", "f", [3],
     "TypeMismatch"),
    ("not-of-an-int", "fn f(x: int) -> bool { return !(x + 1); }", "f", [3], "TypeMismatch"),
    ("an-if-on-an-int", "fn f(s: Str) -> int { if (s.length()) { return 1; } return 2; }",
     "f", [Obj("Str", "ab")], "TypeMismatch"),
    ("a-while-on-an-int", "fn f(x: int) -> int { while (x * 2) { x = 0; } return x; }",
     "f", [3], "TypeMismatch"),
    ("division-by-zero", "fn f(x: int) -> int { return x / (x - 3) + x % 2; }", "f", [3],
     "DivisionByZero"),
    ("int-min-divided-by-minus-one", "fn f(x: int, y: int) -> int { return x / y; }",
     "f", [INT_MIN, -1], INT_MIN),
    ("quotient-truncates-toward-zero", "fn f(x: int, y: int) -> int { return x / y; }",
     "f", [-7, 2], -3),
    ("remainder-takes-the-dividend-sign", "fn f(x: int, y: int) -> int { return x % y; }",
     "f", [-7, 2], -1),
    ("real-divided-by-negative-zero", "fn f(r: real, z: real) -> real { return r / z; }",
     "f", [1.5, -0.0], "DivisionByZero"),
    ("real-divided-by-nan", "fn f(r: real, z: real) -> bool { return r / z != r / z; }",
     "f", [1.5, float("nan")], True),
    ("near-max-nesting", "fn f(b: bool) -> bool { return " + "!" * DEEP + "(b && b); }",
     "f", [True], True),
    ("near-max-nesting-at-the-deepest-call", DEEP_RECURSION, "f", [5, True], True),
    ("near-max-nesting-past-the-call-depth-limit", DEEP_RECURSION, "f", [6, True],
     "TimeoutDuringExecution"),
]


def through_calls(program):
    """``program`` with each read of a parameter made through an identity
    function of the parameter's type, so that no tree that reads one is
    pure and the node closures decide its operators."""
    types = set()

    def expr(e, params):
        if isinstance(e, VarRef) and e.name in params:
            types.add(params[e.name])
            return CallExpr(f"via{params[e.name].capitalize()}", (e,))
        if isinstance(e, Unary):
            return Unary(e.op, expr(e.operand, params))
        if isinstance(e, Binary):
            return Binary(e.op, expr(e.left, params), expr(e.right, params))
        if isinstance(e, CallExpr):
            return CallExpr(e.func, tuple(expr(a, params) for a in e.args))
        return e

    def stmt(s, params):
        changes = {name: expr(getattr(s, name), params)
                   for name in ("value", "cond", "call") if hasattr(s, name)}
        changes.update((name, tuple(stmt(t, params) for t in getattr(s, name)))
                       for name in BLOCKS.get(type(s), ()))
        return replace(s, **changes)

    functions = {}
    for name, fn in program.functions.items():
        params = {p.name: p.type for p in fn.params}
        functions[name] = replace(fn, body=tuple(stmt(s, params) for s in fn.body))
    text = render_program(Program(program.consts, functions))
    text += "".join(f"\nfn via{t.capitalize()}(a: {t}) -> {t} {{ return a; }}\n"
                    for t in sorted(types))
    return parse_program(text)


@pytest.mark.parametrize("name, source, function, args, expected", EXPRESSION_EDGES,
                         ids=[edge[0] for edge in EXPRESSION_EDGES])
def test_expression_edges(name, source, function, args, expected):
    check_edge(name, parse_program(source), function, args, expected)


# near-max-nesting's tree sits at the nesting limit, which reading its
# parameter through a call passes; the two rows after it run a like tree
# four levels shallower.
CALL_EDGES = [edge for edge in EXPRESSION_EDGES if edge[0] != "near-max-nesting"]


@pytest.mark.parametrize("name, source, function, args, expected", CALL_EDGES,
                         ids=[edge[0] for edge in CALL_EDGES])
def test_expression_edges_through_calls(name, source, function, args, expected):
    check_edge(name, through_calls(parse_program(source)), function, args, expected)


def check_edge(name, program, function, args, expected):
    if name == "unbound":
        program = decide(program, 1, SKIP)  # the let of t
    result = execute(program, function, args)
    assert (result.value if result.ok else result.error) == expected
    # every budget through the whole run, each with and without a deadline
    for budget in range(result.steps + 2):
        check(program, function, args, budget, deadlines=(None, float("inf")))
    check(program, function, args, BUDGET, deadlines=(None, float("inf")))
