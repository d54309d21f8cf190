"""Golden sweep of a repair's deadline across every read of the clock.

The engine reads one clock, ``condfix.budget.now``. Each test here replaces
it with a ``FakeClock``, which reads 0.0 before read k and 1e12 from read k
on, so the global deadline (``started + global_timeout``) passes at read k
exactly. Read 1 is ``started``, so k starts at 2.

For each packaged and built-in seeded bundle, and for ``LOOP``, the sweep
counts the reads R of a repair on a clock that never passes, then repairs
once for every k from 2 to R. No run of a bundle's repair reaches 4,096
steps, so none of them reads the clock; ``LOOP``'s baseline, trace and
validation runs each read it once. ``H`` (condition mode, whose forced
runs exhaust the step budget) and ``EVEN`` (whose level-3 rung exhausts
the node budget) read the clock thousands of times, so they are swept at
a few k only. Per k the golden keeps the outcome, the reason, the last
trial's location, status and number of levels, and the reads after read
k.

Regenerate ``tests/data/deadline_sweep.json`` (only when a change to where
the engine reads the clock, or to what it does past a deadline, is
intended) with:

    PYTHONPATH=src python tests/test_deadline_sweep.py --write

which also prints each entry's old -> new rendering, starring the ones
that moved. A failing test lists the moved entries in the same form.
"""
import ast
from pathlib import Path

import pytest

import condfix
from condfix import budget
from condfix.cli import EXIT_NO_PATCH, main
from condfix.corpus import builtin_seeded_bundles, default_corpus_dir, load_corpus
from condfix.minilang import parse_program
from condfix.pipeline import EXHAUSTED, RepairConfig, repair
from condfix.synth import TIMEOUT, encode, solve_internal
from condfix.testkit import parse_suite
from conftest import EVEN_BUGGY, EVEN_SUITE, H_BUGGY, H_SUITE
from golden import Golden
from test_synth import int_col, matrix

DATA_PATH = Path(__file__).parent / "data" / "deadline_sweep.json"
# The condition should read i > 0. The loop of ``long`` takes 4,812 steps.
LOOP_BUGGY = """\
fn f(n: int) -> int {
  let i: int = 0;
  while (i < n) {
    i = i + 1;
  }
  if (i > 5) {
    return 1;
  }
  return 0;
}
"""
LOOP_SUITE = "long: f(600) -> 1\nedge: f(3) -> 1\nzero: f(0) -> 0\n"
# The cases beside the bundles: (program, suite, config) by name.
CASES = {
    "LOOP": (LOOP_BUGGY, LOOP_SUITE, RepairConfig(mode="condition")),
    "H": (H_BUGGY, H_SUITE, RepairConfig(mode="condition")),
    "EVEN": (EVEN_BUGGY, EVEN_SUITE, RepairConfig()),
}
# The only k that H and EVEN are swept at.
FEW_KS = (2, 3, 5, 10, 20, 50, 100, 200)
# What a module other than ``budget`` may neither import nor call.
CLOCK_NAMES = ("time", "datetime", "monotonic", "perf_counter", "process_time")
# The most reads after read k. A rung whose level_started read is read k
# times out at its solve's start, with no node searched: elapsed, the
# seconds_left after the timed-out rung and wall_time follow, 4 in all.
MOST_READS_AFTER = 4


class FakeClock:
    """Reads 0.0 before read ``passes_at`` and 1e12 from it on (never, if
    None), counting its reads."""

    def __init__(self, passes_at=None):
        self.passes_at = passes_at
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return 1e12 if self.passes_at is not None and self.reads >= self.passes_at else 0.0


def _cases() -> dict:
    cases = {b.id: (b.program, b.suite, RepairConfig())
             for b in load_corpus(default_corpus_dir()) + builtin_seeded_bundles()}
    for name, (program, suite, config) in CASES.items():
        cases[name] = (parse_program(program), parse_suite(suite), config)
    return cases


def _repair(monkeypatch, case, clock: FakeClock):
    monkeypatch.setattr(budget, "now", clock)
    return repair(*case)


def _entry(report, clock: FakeClock) -> dict:
    last = report.trials[-1] if report.trials else None
    return {
        "outcome": report.outcome,
        "reason": report.reason,
        "location": None if last is None else last.loc,
        "status": None if last is None else last.status,
        "levels": None if last is None else len(last.levels),
        "reads_after": clock.reads - clock.passes_at,
    }


def compute() -> dict:
    sweep = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, case in _cases().items():
            if name in ("H", "EVEN"):
                ks = FEW_KS
            else:
                clock = FakeClock()
                _repair(monkeypatch, case, clock)
                ks = range(2, clock.reads + 1)
            entries = {}
            for k in ks:
                clock = FakeClock(k)
                entries[f"k={k:03}"] = _entry(_repair(monkeypatch, case, clock), clock)
            sweep[name] = entries
    return sweep


def _show(entry) -> str:
    if entry is None:
        return "-"
    trial = (f"{entry['location']} {entry['status']} L{entry['levels']}"
             if entry["location"] is not None else "no trial")
    return f"{entry['outcome']}/{entry['reason']} ({trial}) +{entry['reads_after']}"


GOLDEN = Golden(DATA_PATH, compute, _show, 5)


def test_every_deadline_read_matches_the_golden_sweep():
    expected = GOLDEN.committed()
    assert len(expected) == 21
    actual = compute()
    GOLDEN.check(expected, actual, "sweep")
    for case, entries in actual.items():
        for k, entry in entries.items():
            assert entry["reads_after"] <= MOST_READS_AFTER, (case, k)


def test_a_passed_deadline_ends_exhausted_unless_a_patch_comes_late():
    # Only the last read, wall_time's, comes after the repair's outcome.
    # Before it, a repair the deadline stops ends exhausted, with its
    # current trial exhausted if one began; one that patches anyway fell
    # in the window after the last rung's solve started: its elapsed read.
    for case, entries in GOLDEN.committed().items():
        for k, entry in entries.items():
            if entry["reads_after"] and entry["outcome"] == "no-patch":
                assert entry["reason"] == EXHAUSTED, (case, k)
                assert entry["status"] in (EXHAUSTED, None), (case, k)


@pytest.mark.parametrize("bundle_id", ["cm1", "pm2"])
def test_the_cli_reports_a_passed_deadline_as_exhausted(monkeypatch, capsys, bundle_id):
    directory = default_corpus_dir() / bundle_id
    monkeypatch.setattr(budget, "now", FakeClock(2))
    code = main(["repair", "--program", str(directory / "program.ml"),
                 "--suite", str(directory / "suite.txt")])
    assert code == EXIT_NO_PATCH
    assert capsys.readouterr().out.startswith(f"no patch found: {EXHAUSTED}\n")


@pytest.mark.parametrize("j", [1, 2, 3])
def test_a_rung_stops_at_the_read_that_finds_its_deadline_passed(monkeypatch, j):
    # Parity is out of reach of level 3, whose search runs past a million
    # nodes. Read 1 sets the rung's deadline, and the j-th read after it,
    # at node 4,096 * j, finds the deadline passed.
    problem = encode(matrix([int_col("x")], [(-4, True), (-5, False)]), 3)
    monkeypatch.setattr(budget, "now", FakeClock(1 + j))
    result = solve_internal(problem, 60.0, 10**9)
    assert (result.status, result.nodes) == (TIMEOUT, 4096 * j)


@pytest.mark.parametrize("timeout, deadline, passes_at, nodes", [
    (60.0, None, None, 3 * 4096 + 1),  # the node cap stops it
    (60.0, -1.0, None, 0),  # the caller's deadline passed before the rung
    (None, -1.0, None, 4096),  # no clock read at the start
    (60.0, 1e13, 2, 4096),  # the timeout passes first
    (0.0, None, 2, 4096),  # a zero timeout is not past at the start
])
def test_a_rung_deadline_is_the_earlier_of_its_timeout_and_the_callers(
        monkeypatch, timeout, deadline, passes_at, nodes):
    problem = encode(matrix([int_col("x")], [(-4, True), (-5, False)]), 3)
    monkeypatch.setattr(budget, "now", FakeClock(passes_at))
    result = solve_internal(problem, timeout, 3 * 4096, deadline=deadline)
    assert (result.status, result.nodes) == (TIMEOUT, nodes)


def test_only_the_budget_module_reads_a_clock():
    root = Path(condfix.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "budget.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module.partition(".")[0]]
            elif isinstance(node, ast.Call):
                func = node.func
                names = [func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")]
            else:
                continue
            offenders += [f"{path.relative_to(root)}:{node.lineno} {name}"
                          for name in names if name in CLOCK_NAMES]
    assert offenders == []


if __name__ == "__main__":
    GOLDEN.main()
