"""Bug-bundle corpus and evaluation harness.

A bundle directory holds a buggy program, its suite, the human-written
patch, and metadata (expected outcome, entry point, optional argument
grid for semantic-equivalence checking):

    program.ml        MiniLang source of the buggy program
    suite.txt         test suite (testkit line format)
    human_patch.txt   kind / location / expr, one ``key: value`` per line
    meta.txt          id / expected / entry / grid, ``key: value`` lines

The harness repairs every bundle, checks the outcome against the
expected tag, measures wasted effort for all metrics against the human
location, and, when a grid is present, compares the synthesized and human
patches point by point. CSV outputs are deterministic: wall-clock timings
stay out of them (they are reported in the JSON report instead).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BundleError
from .faultloc import METRICS, build_spectrum, wasted_effort
from .minilang import (
    DEFAULT_STEP_BUDGET, Binary, IfStmt, IntLit, Patch, PatchKind, Program,
    Value, apply_patch, execute, format_value, parse_expression, parse_program,
    parse_value_literal, render_expr, render_program,
)
from .pipeline import RepairConfig, RepairReport, repair, validate
from .testkit import SuiteResult, TestCase, parse_suite, run_suite, values_match

FIXABLE = "fixable"
LIMITATION = "limitation"


@dataclass(frozen=True)
class HumanPatch:
    kind: PatchKind
    location: int
    expression_text: str

    def to_patch(self) -> Patch:
        return Patch(self.kind, self.location, parse_expression(self.expression_text))


@dataclass
class GridSpec:
    """Per-parameter value lists; the grid is their cartesian product."""

    axes: Dict[str, List[Value]]

    def size(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total


@dataclass
class BugBundle:
    id: str
    program_text: str
    suite_text: str
    human: HumanPatch
    entry: str
    expected: str  # fixable | limitation
    limitation_reason: Optional[str] = None
    grid: Optional[GridSpec] = None

    def program(self) -> Program:
        return parse_program(self.program_text)

    def suite(self) -> List[TestCase]:
        return parse_suite(self.suite_text)

    def self_check(self, step_budget: int = DEFAULT_STEP_BUDGET
                   ) -> Tuple[Program, List[TestCase], SuiteResult]:
        """The buggy program must fail at least one test and the human
        patch must make the whole suite pass. Returns the parsed program,
        the suite and the suite's result on the buggy program."""
        program = self.program()
        suite = self.suite()
        baseline = run_suite(program, suite, step_budget=step_budget)
        if not baseline.failing:
            raise BundleError(f"bundle {self.id}: no failing test on the buggy program")
        if not validate(program, self.human.to_patch(), suite, step_budget):
            raise BundleError(f"bundle {self.id}: human patch does not validate")
        return program, suite, baseline


# --- bundle files -----------------------------------------------------------


def _parse_kv(text: str, what: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise BundleError(f"malformed {what} line: {line!r}")
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def _parse_grid(spec: str) -> GridSpec:
    axes: Dict[str, List[Value]] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        name, _, values_text = part.partition("=")
        name = name.strip()
        values_text = values_text.strip()
        if ".." in values_text and not values_text.startswith(("Str", "null")):
            lo_text, _, hi_text = values_text.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise BundleError(f"malformed grid range {part!r}") from None
            if lo > hi:
                raise BundleError(f"empty grid range {part!r}: lo must not exceed hi")
            axes[name] = list(range(lo, hi + 1))
        else:
            axes[name] = [parse_value_literal(v.strip()) for v in values_text.split("|")]
    if not axes:
        raise BundleError(f"empty grid spec: {spec!r}")
    return GridSpec(axes)


def _render_grid(grid: GridSpec) -> str:
    parts = []
    for name, values in grid.axes.items():
        ints = [v for v in values if isinstance(v, int) and not isinstance(v, bool)]
        if len(ints) == len(values) and values == list(range(values[0], values[-1] + 1)):
            parts.append(f"{name} = {values[0]}..{values[-1]}")
        else:
            parts.append(f"{name} = " + " | ".join(format_value(v) for v in values))
    return "; ".join(parts)


def load_bundle(directory: Path) -> BugBundle:
    directory = Path(directory)
    program_text = (directory / "program.ml").read_text()
    suite_text = (directory / "suite.txt").read_text()
    patch_kv = _parse_kv((directory / "human_patch.txt").read_text(), "human_patch")
    meta = _parse_kv((directory / "meta.txt").read_text(), "meta")

    try:
        kind = PatchKind(patch_kv["kind"])
        human = HumanPatch(kind, int(patch_kv["location"]), patch_kv["expr"])
        expected = meta["expected"]
        entry = meta["entry"]
    except KeyError as exc:
        raise BundleError(f"bundle {directory.name}: missing field {exc}") from exc

    reason = None
    if expected.startswith(LIMITATION):
        reason = expected.split(None, 1)[1] if " " in expected else None
        expected = LIMITATION
    elif expected != FIXABLE:
        raise BundleError(f"bundle {directory.name}: unknown expected tag {expected!r}")

    grid = _parse_grid(meta["grid"]) if "grid" in meta else None
    return BugBundle(
        id=meta.get("id", directory.name),
        program_text=program_text,
        suite_text=suite_text,
        human=human,
        entry=entry,
        expected=expected,
        limitation_reason=reason,
        grid=grid,
    )


def write_bundle(bundle: BugBundle, directory: Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "program.ml").write_text(bundle.program_text)
    (directory / "suite.txt").write_text(bundle.suite_text)
    (directory / "human_patch.txt").write_text(
        f"kind: {bundle.human.kind.value}\n"
        f"location: {bundle.human.location}\n"
        f"expr: {bundle.human.expression_text}\n"
    )
    expected = bundle.expected
    if bundle.expected == LIMITATION and bundle.limitation_reason:
        expected = f"{LIMITATION} {bundle.limitation_reason}"
    meta_lines = [f"id: {bundle.id}", f"expected: {expected}", f"entry: {bundle.entry}"]
    if bundle.grid is not None:
        meta_lines.append(f"grid: {_render_grid(bundle.grid)}")
    (directory / "meta.txt").write_text("\n".join(meta_lines) + "\n")


def load_corpus(root: Path) -> List[BugBundle]:
    root = Path(root)
    bundles = []
    for child in sorted(root.iterdir()):
        if child.is_dir() and (child / "program.ml").exists():
            bundles.append(load_bundle(child))
    return bundles


def default_corpus_dir() -> Path:
    return Path(__file__).parent / "data" / "bundles"


# --- semantic equivalence over an argument grid -----------------------------


def check_equivalence(
    program_a: Program,
    program_b: Program,
    entry: str,
    grid: GridSpec,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> bool:
    """Outputs (value or error name) must agree on every grid point.

    A point where only one side exhausts its step budget counts as a
    disagreement; both sides exhausting counts as agreement.
    """
    fn = program_a.functions.get(entry)
    if fn is None or entry not in program_b.functions:
        raise BundleError(f"entry function {entry!r} missing from a program")
    names = [p.name for p in fn.params]
    if set(names) != set(grid.axes):
        raise BundleError(
            f"grid axes {sorted(grid.axes)} do not match parameters {sorted(names)}"
        )
    empty = sorted(n for n in names if not grid.axes[n])
    if empty:
        raise BundleError(f"grid axes {empty} are empty")
    ordered_axes = [grid.axes[n] for n in names]
    for point in itertools.product(*ordered_axes):
        ra = execute(program_a, entry, list(point), step_budget=step_budget)
        rb = execute(program_b, entry, list(point), step_budget=step_budget)
        if ra.timed_out or rb.timed_out:
            if ra.timed_out and rb.timed_out:
                continue
            return False
        if (ra.error is None) != (rb.error is None):
            return False
        if ra.error is not None:
            if ra.error != rb.error:
                return False
            continue
        if not values_match(ra.value, rb.value):
            return False
    return True


# --- harness ----------------------------------------------------------------


@dataclass
class BundleRow:
    id: str
    expected: str
    outcome: str  # patched | no-patch | bundle-error
    reason: Optional[str]
    level: Optional[int]
    patched_location: Optional[int]
    human_location: int
    same_location: Optional[bool]
    expression: Optional[str]
    grid_equivalent: Optional[bool]
    expected_match: bool
    wasted: Dict[str, int] = field(default_factory=dict)
    human_kind: str = ""
    wall_time: float = 0.0
    report: Optional[RepairReport] = None

    def csv_cells(self, metric_names: Sequence[str]) -> List[str]:
        cells = [
            self.id, self.expected, self.outcome, self.reason or "",
            "" if self.level is None else str(self.level),
            "" if self.patched_location is None else str(self.patched_location),
            str(self.human_location),
            "" if self.same_location is None else str(self.same_location).lower(),
            self.expression or "",
            "" if self.grid_equivalent is None else str(self.grid_equivalent).lower(),
            str(self.expected_match).lower(),
        ]
        cells += [str(self.wasted.get(m, "")) for m in metric_names]
        return cells


@dataclass
class HarnessReport:
    rows: List[BundleRow]

    def to_csv(self) -> str:
        names = sorted(METRICS)
        header = (
            "id,expected,outcome,reason,level,patched_location,human_location,"
            "same_location,expression,grid_equivalent,expected_match,"
            + ",".join(f"effort_{m}" for m in names)
        )
        lines = [header]
        for row in sorted(self.rows, key=lambda r: r.id):
            lines.append(",".join(_csv_escape(c) for c in row.csv_cells(names)))
        return "\n".join(lines) + "\n"

    def effort_table_csv(self) -> str:
        """Wasted-effort comparison: average and median per metric and per
        human-patch kind."""
        names = sorted(METRICS)
        kinds = sorted({r.human_kind for r in self.rows if r.wasted})
        lines = ["metric," + ",".join(f"{k}_average,{k}_median" for k in kinds)]
        for metric in names:
            cells = [metric]
            for kind in kinds:
                values = sorted(
                    r.wasted[metric] for r in self.rows
                    if r.human_kind == kind and metric in r.wasted
                )
                cells.append(f"{_mean(values):.2f}" if values else "")
                cells.append(f"{_median(values):.2f}" if values else "")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def all_expected(self) -> bool:
        return all(r.expected_match for r in self.rows)


def _mean(values):
    return sum(values) / len(values)


def _median(values):
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2


def _csv_escape(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def run_harness(bundles: Sequence[BugBundle], config: Optional[RepairConfig] = None) -> HarnessReport:
    config = config or RepairConfig()
    rows: List[BundleRow] = []
    for bundle in bundles:
        try:
            rows.append(_run_bundle(bundle, config))
        except BundleError as exc:
            rows.append(
                BundleRow(
                    id=bundle.id, expected=bundle.expected, outcome="bundle-error",
                    reason=str(exc), level=None, patched_location=None,
                    human_location=bundle.human.location, same_location=None,
                    expression=None, grid_equivalent=None, expected_match=False,
                    human_kind=bundle.human.kind.value,
                )
            )
    return HarnessReport(rows)


def _run_bundle(bundle: BugBundle, config: RepairConfig) -> BundleRow:
    program, suite, baseline = bundle.self_check(config.step_budget)
    report = repair(program, suite, config, baseline)
    spectrum = build_spectrum(baseline, program.locations())
    wasted = {
        metric: wasted_effort(spectrum, metric, bundle.human.location)
        for metric in sorted(METRICS)
    }

    grid_equivalent = None
    patched_location = None
    same_location = None
    expression = None
    if report.patched:
        patched_location = report.patch.location
        same_location = patched_location == bundle.human.location
        expression = report.patch.expression_text
        if bundle.grid is not None:
            grid_equivalent = check_equivalence(
                apply_patch(program, report.patch),
                apply_patch(program, bundle.human.to_patch()),
                bundle.entry,
                bundle.grid,
                config.step_budget,
            )

    if bundle.expected == FIXABLE:
        expected_match = report.patched
    else:
        expected_match = (not report.patched) and (
            bundle.limitation_reason is None or report.reason == bundle.limitation_reason
        )

    return BundleRow(
        id=bundle.id,
        expected=bundle.expected,
        outcome=report.outcome,
        reason=report.reason,
        level=report.level,
        patched_location=patched_location,
        human_location=bundle.human.location,
        same_location=same_location,
        expression=expression,
        grid_equivalent=grid_equivalent,
        expected_match=expected_match,
        wasted=wasted,
        human_kind=bundle.human.kind.value,
        wall_time=report.wall_time,
        report=report,
    )


# --- mutation seeding -------------------------------------------------------

_FLIPS = {
    "<": ["<=", ">"],
    "<=": ["<", ">="],
    ">": [">=", "<"],
    ">=": [">", "<="],
    "==": ["!="],
    "!=": ["=="],
    "&&": ["||"],
    "||": ["&&"],
}


def seed_condition_bugs(
    seed_id: str,
    program_text: str,
    suite_text: str,
    entry: str,
    config: Optional[RepairConfig] = None,
) -> List[BugBundle]:
    """Mutate every if condition of a correct program (operator flips and
    off-by-one boundary shifts) and keep the mutants the engine can repair.

    Each kept bundle is tagged fixable; its human patch restores the
    original condition. Mutants the suite does not catch, or the engine
    cannot fix, are filtered out so the seeded corpus stays a regression
    harness for the repair loop.
    """
    config = config or RepairConfig()
    program = parse_program(program_text)
    suite = parse_suite(suite_text)
    if run_suite(program, suite, step_budget=config.step_budget).failing:
        raise BundleError(f"seed program {seed_id} must pass its suite")

    bundles: List[BugBundle] = []
    counter = 0
    for loc in program.locations():
        stmt = program.statement_at(loc)
        if not isinstance(stmt, IfStmt):
            continue
        original = stmt.cond
        for mutant_expr in _condition_mutants(original):
            mutated = program.clone()
            mutated.statement_at(loc).cond = mutant_expr
            mutated.reindex()
            baseline = run_suite(mutated, suite, step_budget=config.step_budget)
            if not baseline.failing or not baseline.passing:
                continue
            counter += 1
            human = HumanPatch(PatchKind.CONDITION_UPDATE, loc, render_expr(original))
            if not validate(mutated, human.to_patch(), suite, config.step_budget):
                continue
            if repair(mutated, suite, config, baseline).patched:
                bundles.append(BugBundle(
                    id=f"{seed_id}-m{counter:02d}",
                    program_text=render_program(mutated),
                    suite_text=suite_text,
                    human=human,
                    entry=entry,
                    expected=FIXABLE,
                ))
    return bundles


_SEED_CLAMP = """\
fn clamp(x: int, lo: int, hi: int) -> int {
  if (x < lo) {
    return lo;
  }
  if (x > hi) {
    return hi;
  }
  return x;
}
"""

_SEED_CLAMP_SUITE = """\
below: clamp(-5, 0, 10) -> 0
at_lo: clamp(0, 0, 10) -> 0
inside: clamp(4, 0, 10) -> 4
at_hi: clamp(10, 0, 10) -> 10
above: clamp(15, 0, 10) -> 10
tight: clamp(3, 3, 3) -> 3
negative: clamp(-7, -9, -2) -> -7
"""

_SEED_MAX3 = """\
fn maxOf3(a: int, b: int, c: int) -> int {
  let best: int = a;
  if (b > best) {
    best = b;
  }
  if (c > best) {
    best = c;
  }
  return best;
}
"""

_SEED_MAX3_SUITE = """\
first: maxOf3(9, 2, 3) -> 9
second: maxOf3(1, 8, 3) -> 8
third: maxOf3(1, 2, 7) -> 7
ties: maxOf3(5, 5, 5) -> 5
negatives: maxOf3(-3, -1, -2) -> -1
mixed: maxOf3(-4, 0, -9) -> 0
"""

_SEED_GRADE = """\
fn passesWithMargin(score: int, cutoff: int, bonus: int) -> bool {
  let total: int = score + bonus;
  if (total >= cutoff) {
    return true;
  }
  return false;
}
"""

_SEED_GRADE_SUITE = """\
clear_pass: passesWithMargin(70, 60, 0) -> true
exact: passesWithMargin(55, 60, 5) -> true
fail: passesWithMargin(40, 60, 5) -> false
bonus_pass: passesWithMargin(50, 60, 15) -> true
just_below: passesWithMargin(54, 60, 5) -> false
zero_cut: passesWithMargin(0, 0, 0) -> true
"""

_SEED_STEPS = """\
fn countDown(start: int, floor: int) -> int {
  let steps: int = 0;
  let cur: int = start;
  while (cur > floor) {
    cur = cur - 1;
    steps = steps + 1;
  }
  if (steps == 0) {
    return -1;
  }
  return steps;
}
"""

_SEED_STEPS_SUITE = """\
few: countDown(5, 2) -> 3
one: countDown(1, 0) -> 1
none: countDown(2, 2) -> -1
below: countDown(0, 4) -> -1
long: countDown(9, 0) -> 9
"""


def builtin_seed_sources() -> List[Tuple[str, str, str, str]]:
    """(seed id, program text, suite text, entry) for the seeded corpus."""
    return [
        ("clamp", _SEED_CLAMP, _SEED_CLAMP_SUITE, "clamp"),
        ("max3", _SEED_MAX3, _SEED_MAX3_SUITE, "maxOf3"),
        ("grade", _SEED_GRADE, _SEED_GRADE_SUITE, "passesWithMargin"),
        ("steps", _SEED_STEPS, _SEED_STEPS_SUITE, "countDown"),
    ]


def builtin_seeded_bundles(config: Optional[RepairConfig] = None) -> List[BugBundle]:
    """Deterministic synthetic bug corpus: mutation-seeded condition bugs
    over the built-in correct programs."""
    bundles: List[BugBundle] = []
    for seed_id, program_text, suite_text, entry in builtin_seed_sources():
        bundles.extend(
            seed_condition_bugs(seed_id, program_text, suite_text, entry, config)
        )
    return bundles


def _condition_mutants(expr) -> List:
    """Operator flips at the top of the condition plus off-by-one shifts of
    directly compared subexpressions."""
    mutants = []
    if isinstance(expr, Binary):
        for flipped in _FLIPS.get(expr.op, ()):
            mutants.append(Binary(flipped, expr.left, expr.right))
        if expr.op in ("<", "<=", ">", ">=", "==", "!="):
            mutants.append(Binary(expr.op, expr.left, Binary("+", expr.right, IntLit(1))))
            mutants.append(Binary(expr.op, expr.left, Binary("-", expr.right, IntLit(1))))
        # Recurse one level into boolean connectives.
        if expr.op in ("&&", "||"):
            for sub in _condition_mutants(expr.left):
                mutants.append(Binary(expr.op, sub, expr.right))
            for sub in _condition_mutants(expr.right):
                mutants.append(Binary(expr.op, expr.left, sub))
    return mutants
