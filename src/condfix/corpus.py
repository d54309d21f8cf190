"""Bug-bundle corpus and evaluation harness.

A bundle directory holds a buggy program, its suite, the human-written
patch, and metadata (expected outcome, entry point, optional argument
grid for semantic-equivalence checking):

    program.ml        MiniLang source of the buggy program
    suite.txt         test suite (testkit line format)
    human_patch.txt   kind / location / expr, one ``key: value`` per line
    meta.txt          id / expected / entry / grid, ``key: value`` lines

``load_bundle`` turns bundle text into values, a ``BugBundle``, and makes
every static check; ``write_bundle`` renders the values back.

The harness repairs every bundle, checks the outcome against the
expected tag, measures wasted effort for all metrics against the human
location, and, when a grid is present, compares the synthesized and human
patches point by point. CSV outputs are deterministic: wall-clock timings
stay out of them (they are reported in the JSON report instead).
"""
from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BundleError, CondfixError, SuiteFormatError
from .faultloc import METRICS, build_spectrum, wasted_effort
# No code here calls ``execute``; it stays a name of this module because
# ``perfbench/layers.py`` wraps it by name in every module that imports it.
from .minilang import (
    DEFAULT_STEP_BUDGET, Binary, IfStmt, IntLit, Patch, PatchKind, Program, Value, apply_patch, execute, execute_rows, format_value, parse_expression,
    parse_grid, parse_program, render_program, shadow_merge,
)
from .pipeline import REASONS, RepairConfig, RepairReport, repair, validate
from .testkit import SuiteResult, TestCase, parse_suite, render_suite, run_suite, values_match

FIXABLE = "fixable"
LIMITATION = "limitation"
MAX_GRID_POINTS = 100_000  # pl4's 676 points are the most a packaged grid has


@dataclass
class GridSpec:
    """Per-parameter values, each a list or a range; the grid is their
    cartesian product."""

    axes: Dict[str, Sequence[Value]]

    def size(self) -> int:
        """The number of points; ``len`` of a range fails past ``sys.maxsize``."""
        total = 1
        for values in self.axes.values():
            if isinstance(values, range) and values:
                total *= (values[-1] - values[0]) // values.step + 1
            else:
                total *= len(values)
        return total


@dataclass
class BugBundle:
    """A bug as values; ``load_bundle`` makes one from a bundle directory."""

    id: str
    program: Program
    suite: List[TestCase]
    human: Patch
    entry: str
    expected: str  # fixable | limitation
    limitation_reason: Optional[str] = None
    grid: Optional[GridSpec] = None

    def self_check(self, step_budget: int = DEFAULT_STEP_BUDGET) -> SuiteResult:
        """The buggy program must fail at least one test and the human patch
        must make the whole suite pass. Returns the suite's result on the
        buggy program."""
        # Only a suite built in code, not read by load_bundle, fails these.
        if not self.suite:
            raise BundleError(f"bundle {self.id}: bad suite: no test cases")
        try:
            baseline = run_suite(self.program, self.suite, step_budget=step_budget)
        except SuiteFormatError as exc:
            raise BundleError(f"bundle {self.id}: bad suite: {exc}") from None
        if not baseline.failing:
            raise BundleError(f"bundle {self.id}: no failing test on the buggy program")
        if not validate(self.program, self.human, self.suite, step_budget):
            raise BundleError(f"bundle {self.id}: human patch does not validate")
        return baseline


# --- bundle files -----------------------------------------------------------


def _read(directory: Path, name: str, parse):
    """``parse`` of one bundle file's text; a file that cannot be read or
    parsed is a BundleError naming the bundle and the file."""
    try:
        return parse((directory / name).read_text())
    except OSError as exc:
        reason = f"cannot read {name}: {exc.strerror}"
    except (ValueError, CondfixError) as exc:  # a UnicodeDecodeError is a ValueError
        reason = f"bad {name}: {exc}"
    raise BundleError(f"bundle {directory.name}: {reason}")


_PATCH_KEYS = ("kind", "location", "expr")
_META_KEYS = ("id", "expected", "entry", "grid")


def _parse_kv(text: str, keys: Sequence[str]) -> Dict[str, str]:
    """The ``key: value`` lines of ``text``; a line with no ``:``, a key
    outside ``keys`` or a key given twice is a BundleError."""
    out: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise BundleError(f"malformed line: {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in keys:
            raise BundleError(f"unknown key {key!r}, not one of {', '.join(keys)}")
        if key in out:
            raise BundleError(f"repeated key {key!r}")
        out[key] = value.strip()
    return out


def _field(directory: Path, kv: Dict[str, str], key: str, convert=str):
    """``convert(kv[key])``; a missing or bad field is a BundleError."""
    if key not in kv:
        raise BundleError(f"bundle {directory.name}: missing field {key!r}")
    try:
        return convert(kv[key])
    except (ValueError, CondfixError) as exc:
        raise BundleError(f"bundle {directory.name}: bad {key} {kv[key]!r}: {exc}") from None


def _parse_expected(text: str) -> Tuple[str, Optional[str]]:
    """``fixable``, or ``limitation`` with an optional repair-report reason."""
    tag, _, reason = text.partition(" ")
    reason = reason.strip() or None
    if tag == LIMITATION and reason not in (None, *REASONS):
        raise ValueError(f"unknown reason {reason!r}, not one of {', '.join(REASONS)}")
    if tag not in (FIXABLE, LIMITATION) or (tag == FIXABLE and reason is not None):
        raise ValueError(f"unknown tag, not {FIXABLE} or {LIMITATION} <reason>")
    return tag, reason


def _parse_grid(spec: str) -> GridSpec:
    """The grid ``parse_grid`` reads; a malformed or reversed range, an
    empty axis, a spec of no axes or more than MAX_GRID_POINTS points is a
    BundleError."""
    axes: Dict[str, Sequence[Value]] = {}
    for name, part, values in parse_grid(spec):
        if values is None:
            raise BundleError(f"malformed grid range {part!r}")
        if isinstance(values, range) and not values:
            raise BundleError(f"empty grid range {part!r}: lo must not exceed hi")
        if not values:
            raise BundleError(f"empty grid axis {name!r}")
        axes[name] = values
    if not axes:
        raise BundleError(f"empty grid spec: {spec!r}")
    grid = GridSpec(axes)
    if grid.size() > MAX_GRID_POINTS:
        raise BundleError(f"{grid.size()} grid points, more than {MAX_GRID_POINTS}")
    return grid


def _render_grid(grid: GridSpec) -> str:
    parts = []
    for name, values in grid.axes.items():
        if not values:
            raise BundleError(f"empty grid axis {name!r}")
        if isinstance(values, range) and values.step == 1:
            parts.append(f"{name} = {values.start}..{values.stop - 1}")
        else:
            try:
                parts.append(f"{name} = " + " | ".join(format_value(v) for v in values))
            except ValueError as exc:
                raise BundleError(f"grid axis {name!r}: {exc}") from None
    return "; ".join(parts)


def load_bundle(directory: Path) -> BugBundle:
    """The bundle in ``directory`` once each file and field parses, each test
    calls a function with its arity, the human patch applies, the entry is
    a function and a grid covers exactly its parameters in at most
    MAX_GRID_POINTS points; else a BundleError naming the bundle and the
    file or field."""
    directory = Path(directory)
    name = directory.name
    program = _read(directory, "program.ml", parse_program)
    suite = _read(directory, "suite.txt", parse_suite)
    for test in suite:
        fn = program.functions.get(test.function)
        if fn is None or len(fn.params) != len(test.args):
            raise BundleError(f"bundle {name}: bad suite.txt: test {test.id!r} calls "
                              f"{test.function}() with {len(test.args)} arguments, "
                              "which no function takes")

    patch_kv = _read(directory, "human_patch.txt", lambda text: _parse_kv(text, _PATCH_KEYS))
    human = Patch(
        _field(directory, patch_kv, "kind", PatchKind),
        _field(directory, patch_kv, "location", int),
        _field(directory, patch_kv, "expr", parse_expression),
    )
    try:
        apply_patch(program, human)
    except (CondfixError, KeyError) as exc:  # KeyError: no statement at the location
        raise BundleError(f"bundle {name}: bad human_patch.txt: {exc.args[0]}") from None

    meta = _read(directory, "meta.txt", lambda text: _parse_kv(text, _META_KEYS))
    expected, reason = _field(directory, meta, "expected", _parse_expected)
    entry = _field(directory, meta, "entry")
    fn = program.functions.get(entry)
    if fn is None:
        raise BundleError(f"bundle {name}: bad entry {entry!r}: program.ml has no such function")
    grid = _field(directory, meta, "grid", _parse_grid) if "grid" in meta else None
    params = sorted(p.name for p in fn.params)
    if grid is not None and sorted(grid.axes) != params:
        raise BundleError(f"bundle {name}: bad grid: axes {sorted(grid.axes)} are not the "
                          f"parameters {params} of {entry}")
    return BugBundle(
        id=meta.get("id", name),
        program=program,
        suite=suite,
        human=human,
        entry=entry,
        expected=expected,
        limitation_reason=reason,
        grid=grid,
    )


def write_bundle(bundle: BugBundle, directory: Path) -> None:
    """Write the four bundle files. The grid is rendered before the
    directory is made, so a grid value with no literal form is a
    BundleError that leaves nothing on disk."""
    expected = bundle.expected
    if bundle.expected == LIMITATION and bundle.limitation_reason:
        expected = f"{LIMITATION} {bundle.limitation_reason}"
    meta_lines = [f"id: {bundle.id}", f"expected: {expected}", f"entry: {bundle.entry}"]
    if bundle.grid is not None:
        meta_lines.append(f"grid: {_render_grid(bundle.grid)}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "program.ml").write_text(render_program(bundle.program))
    (directory / "suite.txt").write_text(render_suite(bundle.suite))
    (directory / "human_patch.txt").write_text(
        f"kind: {bundle.human.kind.value}\n"
        f"location: {bundle.human.location}\n"
        f"expr: {bundle.human.expression_text}\n"
    )
    (directory / "meta.txt").write_text("\n".join(meta_lines) + "\n")


def bundle_dirs(root: Path) -> List[Path]:
    """The bundle directories under ``root``, in name order."""
    return [
        child for child in sorted(Path(root).iterdir())
        if child.is_dir() and (child / "program.ml").exists()
    ]


def load_corpus(root: Path) -> List[BugBundle]:
    return [load_bundle(child) for child in bundle_dirs(root)]


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

    When both programs are one-patch children of one base, their
    ``shadow_merge`` runs first over the grid: a point where it returns a
    value that matches itself is settled, as both sides return it. Both
    sides run on every other point, and on every point of programs without
    a shared base. Each program runs its points through one
    ``execute_rows``, which lowers it once and yields only outcomes; the
    points flow through the three lazily, so a disagreement stops every
    run at its point. The grid's axes must be the entry's parameters, as
    ``load_bundle`` checks for a bundle's grid.
    """
    names = [p.name for p in program_a.functions[entry].params]
    empty = sorted(n for n in names if not grid.axes[n])
    if empty:
        raise BundleError(f"grid axes {empty} are empty")
    merged = shadow_merge(program_a, program_b)
    points = itertools.product(*(grid.axes[n] for n in names))
    if merged is not None:
        points, tried = itertools.tee(points)
        points = (point for point, (value, error, _) in
                  zip(points, execute_rows(merged, entry, tried, step_budget))
                  if error is not None or not values_match(value, value))
    points_a, points_b = itertools.tee(points)
    return all(map(_same_outcome, execute_rows(program_a, entry, points_a, step_budget),
                   execute_rows(program_b, entry, points_b, step_budget)))


def _same_outcome(a: tuple, b: tuple) -> bool:
    """Both exhausted a budget, raised the same error, or returned matching
    values; each outcome is a value, an error and whether that error is an
    exhausted budget."""
    (a_value, a_error, a_timed_out), (b_value, b_error, b_timed_out) = a, b
    if a_timed_out or b_timed_out:
        return a_timed_out and b_timed_out
    if a_error is not None or b_error is not None:
        return a_error == b_error
    return values_match(a_value, b_value)


# --- harness ----------------------------------------------------------------


@dataclass
class BundleRow:
    id: str
    expected: str
    outcome: str  # patched | no-patch | bundle-error
    reason: Optional[str]
    level: Optional[int]
    patched_location: Optional[int]
    human_location: Optional[int]
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
            "" if self.human_location is None else str(self.human_location),
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
                cells.append(f"{statistics.mean(values):.2f}" if values else "")
                cells.append(f"{statistics.median(values):.2f}" if values else "")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def all_expected(self) -> bool:
        return all(r.expected_match for r in self.rows)


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
            rows.append(bundle_error_row(
                bundle.id, exc, bundle.expected, bundle.human.location, bundle.human.kind.value,
            ))
    return HarnessReport(rows)


def bundle_error_row(
    bundle_id: str,
    error: BundleError,
    expected: str = "",
    human_location: Optional[int] = None,
    human_kind: str = "",
) -> BundleRow:
    """The row of a bundle that failed its self-check, or (with the
    defaults) of a bundle directory that did not load."""
    return BundleRow(
        id=bundle_id, expected=expected, outcome="bundle-error", reason=str(error),
        level=None, patched_location=None, human_location=human_location,
        same_location=None, expression=None, grid_equivalent=None,
        expected_match=False, human_kind=human_kind,
    )


def _run_bundle(bundle: BugBundle, config: RepairConfig) -> BundleRow:
    baseline = bundle.self_check(config.step_budget)
    program = bundle.program
    report = repair(program, bundle.suite, config, baseline)
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
                apply_patch(program, bundle.human),
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
            mutated = apply_patch(program, Patch(PatchKind.CONDITION_UPDATE, loc, mutant_expr))
            baseline = run_suite(mutated, suite, step_budget=config.step_budget)
            if not baseline.failing or not baseline.passing:
                continue
            counter += 1
            human = Patch(PatchKind.CONDITION_UPDATE, loc, original)
            if not validate(mutated, human, suite, config.step_budget):
                continue
            if repair(mutated, suite, config, baseline).patched:
                bundles.append(BugBundle(
                    id=f"{seed_id}-m{counter:02d}",
                    program=mutated,
                    suite=suite,
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
