"""Seeded random MiniLang programs, checked against the reference evaluator.

Differential testing (McKeeman, "Differential testing for software",
Digital Technical Journal, 1998): each generated program runs under
``execute`` and under ``test_reference_eval.Reference``, which must agree
on value, error, timeout, steps, hits and snapshots at every step budget
from 0 to 59, at the run's step count and one either side of it, and at
5,000.

A program is one function ``f`` over two ints, two reals, a bool and a
record, with a program constant ``K`` of a drawn type, and identity
helpers a tree may call. Its one expression tree holds int, real, bool
and record operands, is at most ``MAX_DEPTH`` operators deep, and draws
about ``MISTYPED`` of its operands from a type other than the one its
operator takes. The tree of a program that may call holds a helper call
at some operands, so the node closures run it as well as the generated
fast path. The tree sits in a ``return``, a ``let``, an assignment, an
``if``, a ``while`` body, the body of a ``while`` nested in a ``while``,
the argument of a call statement in a loop body, a ``let`` in an ``if``
branch of several statements that may return or throw midway, or an
argument of a recursive call of ``f``, which some runs take to the
call-depth limit; a program may first bind a record name to a value of
any type. Arguments come from each type's edges: ``INT_MAX``,
``INT_MIN``, NaN, ±0.0, ±inf, null and records. A record constant may be
of a class with no state queries, so that a query on it throws
``TypeMismatch``. Each program must also parse back from its rendering
as an equal program.

Tier-1 runs ``SLICE`` programs of one seed. The longer sweep runs outside
it:

    PYTHONPATH=src python tests/test_program_fuzz.py [--seeds 6] [--programs 4000]
"""
import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from condfix.minilang import NULL, Obj, execute, parse_program, render_program
from condfix.minilang.values import INT_MAX, INT_MIN, format_value

from test_reference_eval import check, reference

MAX_DEPTH = 5
MISTYPED = 0.08
SLICE = 800
BUDGETS = range(60)
LONG_BUDGET = 5_000

PARAMS = {"int": ("x", "y"), "real": ("u", "v"), "bool": ("b",), "Str": ("s",)}
SIGNATURE = "x: int, y: int, u: real, v: real, b: bool, s: Str"
HELPERS = "".join(f"\nfn id{t.capitalize()}(a: {t}) -> {t} {{ return a; }}\n" for t in PARAMS)
LITERALS = {
    "int": ("0", "1", "2", "3", "4294967296", "9223372036854775807", "9223372036854775808"),
    "real": ("0.0", "0.5", "2.5"),
    "bool": ("true", "false"),
    "Str": ("null",),
}
ARGUMENTS = {
    "int": (INT_MAX, INT_MIN, 0, 1, -1, 7, -7),
    "real": (float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 2.5, -0.5),
    "bool": (True, False),
    "Str": (NULL, Obj("Str", ""), Obj("Str", "ab")),
}
CONSTANTS = {
    "int": (INT_MAX, INT_MIN, 0, 5),
    "real": (0.0, -0.0, 1.5),
    "bool": (True, False),
    "Str": (NULL, Obj("Str", "abc"), Obj("Foo", "ab")),
}
ARITHMETIC = {"int": ("+", "-", "*", "/", "%"), "real": ("+", "-", "*", "/")}
PLACEMENTS = ("return", "let", "assign", "if", "while-store", "while-if", "while-nested",
              "while-call", "block", "recursive")
# What a branch of the ``block`` placement runs between its statements.
MIDWAY = ("", "return r;", "throw Midway;", "if (x < y) { return 7; }")
# The parameter a tree of each type replaces in the ``recursive`` call.
POSITION = {"int": 0, "real": 2, "bool": 4, "Str": 5}


class Generator:
    """One program's tree: ``calls`` lets it call the identity helpers,
    ``records`` names the record-typed names it may read."""

    def __init__(self, rng, const_type, calls, records):
        self.rng, self.const_type, self.calls, self.records = rng, const_type, calls, records
        self.called = False  # whether the tree holds a call

    def expr(self, want, depth=1):
        rng = self.rng
        if rng.random() < MISTYPED:
            want = rng.choice([t for t in PARAMS if t != want])
        if self.calls and rng.random() < 0.15:
            self.called = True
            return f"id{want.capitalize()}({self.expr(want, depth + 1)})"
        if depth > MAX_DEPTH or want == "Str" or rng.random() < 0.25:
            return self.leaf(want)
        return self.operator(want, depth)

    def leaf(self, want):
        rng = self.rng
        names = self.records if want == "Str" else PARAMS[want]
        choices = list(names) + [rng.choice(LITERALS[want])]
        if want == self.const_type:
            choices.append("K")
        if want in ("int", "bool") and rng.random() < 0.2:
            return f"{rng.choice(self.records)}.{'length' if want == 'int' else 'isEmpty'}()"
        return rng.choice(choices)

    def operator(self, want, depth):
        rng, sub = self.rng, depth + 1
        if want in ARITHMETIC:
            if rng.random() < 0.15:
                return f"-{self.expr(want, sub)}"
            op = rng.choice(ARITHMETIC[want])
            return f"({self.expr(want, sub)} {op} {self.expr(want, sub)})"
        kind = rng.randrange(4)
        if kind == 0:
            return f"!{self.expr('bool', sub)}"
        if kind == 1:
            op, side = rng.choice(("&&", "||")), "bool"
        elif kind == 2:
            op, side = rng.choice(("<", "<=", ">", ">=")), rng.choice(("int", "real"))
        else:
            op, side = rng.choice(("==", "!=")), rng.choice(list(PARAMS))
        return f"({self.expr(side, sub)} {op} {self.expr(side, sub)})"


def generate(rng):
    """A program's source, the arguments of its one run, and whether its
    tree holds a call."""
    const_type = rng.choice(list(PARAMS))
    const = f"const K: {const_type} = {format_value(rng.choice(CONSTANTS[const_type]))};\n"
    records = ["s"] + (["K"] if const_type == "Str" else [])
    body = []
    if rng.random() < 0.3:
        records.append("w")
        any_type = rng.choice(list(PARAMS))
        body.append(f"let w: Str = {rng.choice(PARAMS[any_type] + LITERALS[any_type])};")
    tree = Generator(rng, const_type, rng.random() < 0.4, records)
    placement = rng.choice(PLACEMENTS)
    want = ("bool" if placement in ("if", "while-if", "while-nested")
            else rng.choice(list(PARAMS)))
    e = tree.expr(want)
    if placement == "return":
        body.append(f"return {e};")
    elif placement == "let":
        body += [f"let t: {want} = {e};", "return t;"]
    elif placement == "assign":
        target = PARAMS[want][0]
        body += [f"{target} = {e};", f"return {target};"]
    elif placement == "if":
        body += ["let r: int = 0;", f"if ({e}) {{ r = 1; }} else {{ r = 2; }}", "return r;"]
    elif placement == "while-store":
        target = rng.choice(("x", "u", "b", "s") if want != "Str" else ("s",))
        body += ["let i: int = 0;", f"while (i < 3) {{ {target} = {e}; i = i + 1; }}",
                 f"return {target};"]
    elif placement == "while-if":
        body += ["let i: int = 0;", "let r: int = 0;",
                 f"while (i < 3) {{ if ({e}) {{ r = r + 1; }} i = i + 1; }}", "return r;"]
    elif placement == "while-nested":
        body += ["let i: int = 0;", "let r: int = 0;",
                 "while (i < 2) { let j: int = i; "
                 f"while (j < 2) {{ if ({e}) {{ r = r + 1; }} j = j + 1; }} i = i + 1; }}",
                 "return r;"]
    elif placement == "while-call":
        body += ["let i: int = 0;", f"while (i < 2) {{ id{want.capitalize()}({e}); i = i + 1; }}",
                 "return i;"]
    elif placement == "block":
        body += ["let r: int = 0;",
                 f"if ({rng.choice(('b', '!b', 'x < y'))}) {{ let t: {want} = {e}; r = 1; "
                 f"{rng.choice(MIDWAY)} r = r + 2; }} else {{ r = 3; }}",
                 "return r;"]
    else:
        # y counts the calls down; from INT_MAX they reach the depth limit
        args = ["x", "y - 1", "u", "v", "b", "s"]
        args[POSITION[want]] = e
        body += ["if (y <= 0) { return x; }", f"return f({', '.join(args)});"]
    helpers = tree.calls or placement == "while-call"
    source = (const + f"\nfn f({SIGNATURE}) -> int {{\n  " + "\n  ".join(body) + "\n}\n"
              + (HELPERS if helpers else ""))
    args = [rng.choice(ARGUMENTS[t]) for t in ("int", "int", "real", "real", "bool", "Str")]
    return source, args, tree.called


def run(seed, count):
    """Check ``count`` programs of ``seed``; the outcome of each plain run,
    counted by value type or error name."""
    rng, outcomes = random.Random(seed), Counter()
    for _ in range(count):
        source, args, called = generate(rng)
        program = parse_program(source)
        assert parse_program(render_program(program)) == program, source
        full = execute(program, "f", args, step_budget=LONG_BUDGET)
        # a run ends the same under every budget it does not reach
        whole = reference(program, "f", args, LONG_BUDGET)
        budgets = set(BUDGETS) | {full.steps - 1, full.steps, full.steps + 1, LONG_BUDGET}
        for budget in sorted(budgets):
            check(program, "f", args, budget, expected=whole if budget >= whole[3] else None)
        outcomes[full.error or type(full.value).__name__] += 1
        outcomes["calls"] += called
    return outcomes


def test_a_fixed_slice_of_generated_programs_agrees_with_the_reference():
    outcomes = run(1, SLICE)
    # every outcome the generator aims at occurs, and both the fast path
    # and the closures run trees
    for outcome in ("int", "float", "bool", "TypeMismatch", "DivisionByZero",
                    "NullDereference", "calls"):
        assert outcomes[outcome] > SLICE // 50, outcomes
    assert outcomes["calls"] < SLICE // 2, outcomes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=6)
    parser.add_argument("--programs", type=int, default=4_000)
    options = parser.parse_args()
    total = Counter()
    for seed in range(1, options.seeds + 1):
        start = time.perf_counter()
        outcomes = run(seed, options.programs)
        total += outcomes
        print(f"seed {seed}: {options.programs} programs agree in "
              f"{time.perf_counter() - start:.1f} s; {dict(outcomes.most_common())}")
    print(f"all: {dict(total.most_common())}")


if __name__ == "__main__":
    main()
