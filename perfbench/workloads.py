"""The benchmark's workloads: seeded inputs, timed ops and their checks.

Each workload builds its inputs from the seed alone and hands condfix only
those inputs. It yields *groups* of ops (a corpus pass, one repair, one
matrix's ladder); the runner stops between groups, so every run holds
whole groups. An op is one unit of work. It fails when it raises or when
its correctness check fails; only the op itself is timed, never its check.

All condfix calls go through the ``api`` namespace at call time, so the
traced run sees the benchmark's own calls into condfix as well.
"""
from __future__ import annotations

import importlib
import math
import random
import statistics
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

CONDFIX_MODULES = (
    "minilang", "testkit", "faultloc", "angelic", "trace", "synth", "pipeline", "corpus",
)


def import_condfix() -> types.SimpleNamespace:
    """Import condfix afresh, dropping any earlier import, so that each
    set-up pays the full import cost."""
    for name in [n for n in sys.modules if n == "condfix" or n.startswith("condfix.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"condfix.{name}") for name in CONDFIX_MODULES}
    )


# Machine speed on a shared host drifts by a third within seconds, and CPU
# time drifts with it. Every timing is therefore CPU time scaled by how long
# a fixed calibration kernel took just before and just after it: a time
# reads as it would on a host where the kernel takes REFERENCE_KERNEL_S.
# The kernel runs between ops, never inside one.
REFERENCE_KERNEL_S = 0.005


def calibration_kernel() -> int:
    """Fixed pure-Python work (dict updates, tuple building over zip, method
    calls) that runs no condfix code, so no change to condfix moves it."""
    table: dict = {}
    total = 0
    for i in range(16_000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    vectors = [tuple(range(i, i + 12)) for i in range(40)]
    for _ in range(24):
        for left, right in zip(vectors, vectors[1:]):
            total += sum(tuple(a < b for a, b in zip(left, right)))
        vectors.sort(key=lambda v: -v[0])
    for i in range(3_000):
        total += _Cell(i).value()
    return total


class _Cell:
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def value(self) -> int:
        return self.n % 7 if isinstance(self.n, int) else 0


class Clock:
    """CPU timings scaled to the reference speed once the run is over."""

    def __init__(self):
        self.kernel_s: List[float] = []

    def mark(self) -> int:
        """Time the kernel; return the index of that sample, which scales
        the timing that starts now together with the next sample."""
        start = time.process_time()
        calibration_kernel()
        self.kernel_s.append(time.process_time() - start)
        return len(self.kernel_s) - 1

    def scale(self, mark: int) -> float:
        return REFERENCE_KERNEL_S / statistics.mean(self.kernel_s[mark:mark + 2])


class Recorder:
    """Times ops, runs their checks, and keeps the counts a run reports.
    Times are CPU seconds until ``finish`` scales them."""

    def __init__(self, clock: Clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.latencies: List[float] = []  # seconds of each successful op
        self.op_seconds = 0.0  # all seconds inside ops, failed ones included
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()  # exception type name -> ops
        self.violations: List[str] = []  # broken correctness checks
        self._timings: List[Tuple[float, int, bool]] = []  # cpu s, mark, ok

    def op(self, fn: Callable, check: Callable[[object], Optional[str]], *args):
        """Run and time ``fn(*args)``, then check its value.

        Returns the value, or None when the op raised or broke its check;
        either way the op counts as failed and its time stays counted.
        """
        mark = self.clock.mark()
        if self.tracer is not None:
            self.tracer.begin_op(self.attempted)
        self.attempted += 1
        start = time.process_time()
        try:
            value = fn(*args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            value, error = None, type(exc).__name__
        else:
            error = None
        cpu_s = time.process_time() - start
        if self.tracer is not None:
            self.tracer.end_op()
        violation = None if error is not None else check(value)
        self._timings.append((cpu_s, mark, error is None and violation is None))
        if error is not None:
            self.failed += 1
            self.errors[error] += 1
            return None
        if violation is not None:
            self.failed += 1
            self.violations.append(violation)
            return None
        return value

    def finish(self) -> None:
        """Scale every op time to the reference speed."""
        self.clock.mark()
        for cpu_s, mark, ok in self._timings:
            seconds = cpu_s * self.clock.scale(mark)
            self.op_seconds += seconds
            if ok:
                self.latencies.append(seconds)
        self._timings = []


# --- corpus -------------------------------------------------------------------


class Corpus:
    """Repeated passes of the corpus harness over the packaged bundles and
    the built-in mutation-seeded ones, in a seeded order. Bundles are
    reloaded from disk on each pass; one op is one bundle's harness row."""

    name = "corpus"
    groups_per_second = 2.0  # passes per second of --seconds
    traced_groups = 4  # passes in a traced run

    def __init__(self, api, seed: int, workdir: Path):
        self.api = api
        self.rng = random.Random(seed)
        self.dirs = [api.corpus.default_corpus_dir(), workdir / "seeded"]
        for bundle in api.corpus.builtin_seeded_bundles():
            api.corpus.write_bundle(bundle, self.dirs[1] / bundle.id)
        self.config = api.pipeline.RepairConfig()

    def groups(self) -> Iterator[list]:
        while True:
            bundles = [b for d in self.dirs for b in self.api.corpus.load_corpus(d)]
            self.rng.shuffle(bundles)
            yield bundles

    def describe(self, group) -> str:
        return " ".join(bundle.id for bundle in group)

    def run_group(self, recorder: Recorder, bundles) -> None:
        for bundle in bundles:
            recorder.op(self._harness, self._check, bundle)

    def _harness(self, bundle):
        return self.api.corpus.run_harness([bundle], self.config).rows[0]

    @staticmethod
    def _check(row) -> Optional[str]:
        if not row.expected_match:
            return f"corpus {row.id}: {row.outcome} ({row.reason}) does not match {row.expected}"
        if row.grid_equivalent is False:
            return f"corpus {row.id}: patch {row.expression} differs from the human patch on the grid"
        return None


# --- diverge ------------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """A correct MiniLang program with one comparison left as ``COND``."""

    function: str
    params: Tuple[str, ...]
    source: str
    correct: str  # the comparison of the correct program
    mutants: Tuple[str, ...]  # wrong-way comparisons the seed picks from
    reference: Callable[..., int]  # Python model of the correct program
    tag: str  # expected repair outcome: patched | no-patch

    def program(self, cond: str) -> str:
        return self.source.replace("COND", cond)


def _walk_sum(pos: int, target: int) -> int:
    if pos < target:
        return sum(range(pos + 1, target + 1))
    return sum(range(target, pos))


WALK = Template(
    "walk", ("pos", "target"), """\
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
    "pos < target", ("pos > target", "pos >= target", "target < pos", "target <= pos"),
    lambda pos, target: abs(target - pos), "patched",
)

WALK_SUM = Template(
    "walkSum", ("pos", "target"), """\
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
    "pos < target", ("pos > target", "pos >= target", "target < pos", "target <= pos"),
    _walk_sum, "patched",
)

MEET = Template(
    "meet", ("a", "b"), """\
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
    "a < b", ("a > b", "a >= b", "b < a", "b <= a"),
    max, "patched",
)

# Recursive, with a wrong base case: forcing it to false recurses without
# bound. It is kept out of the measured mix because every workload must run
# without failing ops, and today this repair raises RecursionError; the
# benchmark's self-test keeps that visible.
FACT = Template(
    "fact", ("n",), """\
fn fact(n: int) -> int {
  if (COND) {
    return 1;
  }
  return n * fact(n - 1);
}
""",
    "n < 1", ("n < 0",),
    lambda n: math.factorial(max(n, 0)), "no-patch",
)

DIVERGE_TEMPLATES = (WALK, WALK_SUM, MEET)


@dataclass(frozen=True)
class RepairInput:
    template: Template
    program_text: str
    suite_text: str
    grid: Dict[str, List[int]]  # parameter -> values, for the equivalence check

    def describe(self) -> str:
        axes = "; ".join(f"{name} = {values[0]}..{values[-1]}" for name, values in self.grid.items())
        return f"{self.program_text}{self.suite_text}grid: {axes}\n"


def walk_cases(rng: random.Random) -> List[Tuple[int, int]]:
    """(start, target) pairs: walks up and down on both sides of zero, so
    that no comparison against a constant separates up from down, plus one
    walk that starts at its target."""
    up_neg = rng.randint(-9, -3)
    up_pos = rng.randint(3, 9)
    down_pos = rng.randint(2, 6)
    down_neg = rng.randint(-9, -4)
    stay = rng.randint(-5, 5)
    return [
        (up_neg - rng.randint(2, 5), up_neg),
        (rng.randint(-3, 0), up_pos),
        (down_pos + rng.randint(2, 5), down_pos),
        (rng.randint(0, 3), down_neg),
        (stay, stay),
    ]


def fact_input(rng: random.Random) -> RepairInput:
    return _repair_input(FACT, FACT.mutants[0], [(n,) for n in range(5)], rng)


def _repair_input(template: Template, cond: str, cases, rng: random.Random) -> RepairInput:
    suite = "".join(
        f"t{i}: {template.function}({', '.join(map(str, args))}) -> {template.reference(*args)}\n"
        for i, args in enumerate(cases)
    )
    grid = {}
    for name in template.params:
        low = rng.randint(-10, -4)
        grid[name] = list(range(low, low + 8))
    return RepairInput(template, template.program(cond), suite, grid)


class Diverge:
    """``pipeline.repair`` on seeded loop programs whose inner comparison
    points the wrong way, so the buggy and wrongly forced runs exhaust the
    step budget. Every program and suite is new; one op is one repair.

    Repair cost grows with the number of failing tests, and one repair in
    ten gets a double suite (twice the walks). That puts p95 in the middle
    of the double-suite repairs instead of in the tail of host noise.
    """

    name = "diverge"
    groups_per_second = 15.0  # repairs per second of --seconds (ten blocks of 30 per 20 s)
    traced_groups = 60  # groups in a traced run
    STEP_BUDGET = 5_000

    def __init__(self, api, seed: int, workdir: Path):
        self.api = api
        self.rng = random.Random(seed)
        self.config = api.pipeline.RepairConfig(step_budget=self.STEP_BUDGET)

    def groups(self) -> Iterator[RepairInput]:
        seen = set()
        while True:
            # Blocks of 30: each template ten times, once with a double suite.
            block = [(t, rounds) for t in DIVERGE_TEMPLATES for rounds in (2,) + (1,) * 9]
            self.rng.shuffle(block)
            for template, rounds in block:
                while True:
                    cond = self.rng.choice(template.mutants)
                    cases = [case for _ in range(rounds) for case in walk_cases(self.rng)]
                    if (template.function, cond, tuple(cases)) not in seen:
                        break
                seen.add((template.function, cond, tuple(cases)))
                yield _repair_input(template, cond, cases, self.rng)

    def describe(self, group: RepairInput) -> str:
        return group.describe()

    def run_group(self, recorder: Recorder, item: RepairInput) -> None:
        recorder.op(self._repair, lambda result: self._check(item, result), item)

    def _repair(self, item: RepairInput):
        program = self.api.minilang.parse_program(item.program_text)
        suite = self.api.testkit.parse_suite(item.suite_text)
        return program, self.api.pipeline.repair(program, suite, self.config)

    def _check(self, item: RepairInput, result) -> Optional[str]:
        program, report = result
        name = item.template.function
        if item.template.tag == "no-patch":
            return f"diverge {name}: unexpected patch" if report.patched else None
        if not report.patched:
            return f"diverge {name}: no patch ({report.reason})"
        corpus = self.api.corpus
        equivalent = corpus.check_equivalence(
            self.api.minilang.apply_patch(program, report.patch),
            self.api.minilang.parse_program(item.template.program(item.template.correct)),
            name,
            corpus.GridSpec(item.grid),
            self.STEP_BUDGET,
        )
        if not equivalent:
            return f"diverge {name}: patch {report.patch.expression_text} differs from {item.template.correct}"
        return None


# --- synth-ladder -------------------------------------------------------------

INT_VALUES = list(range(-8, 9))
REAL_VALUES = [-2.5, -0.5, 0.0, 0.5, 1.5, 3.25]
ROW_BANDS = ((2, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 20))


class SynthLadder:
    """Seeded random trace matrices in the acceptance-test shape, each
    climbing the synthesis ladder (levels 1 to 4) until the first sat, as
    the pipeline does. One op is one encode + solve (+ decode on sat)."""

    name = "synth-ladder"
    groups_per_second = 9.0  # matrices per second of --seconds (five blocks of 36 per 20 s)
    traced_groups = 72  # groups in a traced run
    NODE_CAP = 10_000
    WALL_LIMIT_S = 600.0  # never binding: the node cap ends every solve first

    def __init__(self, api, seed: int, workdir: Path):
        self.api = api
        self.rng = random.Random(seed)

    def groups(self) -> Iterator:
        trace = self.api.trace
        seen = set()
        while True:
            # Every block of 36 matrices has each width with each band of
            # row counts once, so the mix of cheap and costly shapes is the
            # same for every seed.
            block = [(width, rows) for width in range(1, 7) for rows in ROW_BANDS]
            self.rng.shuffle(block)
            for width, rows in block:
                while True:
                    matrix = trace.deduplicate(self._random_matrix(width, self.rng.randint(*rows)))
                    text = trace.matrix_to_text(matrix)
                    if not matrix.conflicting and text not in seen:
                        break
                seen.add(text)
                yield matrix

    def describe(self, matrix) -> str:
        return self.api.trace.matrix_to_text(matrix)

    def _random_matrix(self, width: int, height: int):
        rng, trace = self.rng, self.api.trace
        columns = [
            trace.ColumnSpec(f"c{i}", rng.choices(["int", "bool", "real"], [6, 3, 1])[0], "var", var=f"c{i}")
            for i in range(width)
        ]
        rows = []
        for r in range(height):
            inputs = []
            for col in columns:
                if col.type == "int":
                    inputs.append(rng.choice(INT_VALUES))
                elif col.type == "real":
                    inputs.append(rng.choice(REAL_VALUES))
                else:
                    inputs.append(rng.random() < 0.5)
            rows.append(trace.TraceRow(f"t{r}", 0, tuple(inputs), rng.random() < 0.5))
        return trace.TraceMatrix(1, "condition", columns, rows)

    def run_group(self, recorder: Recorder, matrix) -> None:
        for level in (1, 2, 3, 4):
            solved = recorder.op(self._solve, lambda result: self._check(matrix, result), matrix, level)
            if solved is None or solved[1].is_sat:
                return

    def _solve(self, matrix, level: int):
        synth = self.api.synth
        problem = synth.encode(matrix, level)
        result = synth.solve(problem, None, self.WALL_LIMIT_S, self.NODE_CAP)
        expr = synth.decode(problem, result.model) if result.is_sat else None
        return problem, result, expr

    def _check(self, matrix, solved) -> Optional[str]:
        problem, result, expr = solved
        if not result.is_sat:
            return None
        if problem.check_model(result.model):
            return "synth-ladder: sat model breaks the structural constraints"
        if not problem.satisfies_rows(result.model):
            return "synth-ladder: sat model does not reproduce every row"
        evaluate = self.api.synth.evaluate
        if any(evaluate(expr, matrix.row_values(row)) != row.expected for row in matrix.rows):
            return f"synth-ladder: decoded {self.api.synth.to_source(expr)} misses a row"
        return None


WORKLOADS = {w.name: w for w in (Corpus, Diverge, SynthLadder)}
