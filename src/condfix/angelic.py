"""Angelic fix localization.

For a candidate if statement, each failing test is re-run twice, once with
the condition forced to true and once forced to false; for a candidate
plain statement, each failing test is re-run once with the statement
skipped. A location qualifies when every failing test passes under some
forced decision. The forced value is constant for the whole test
execution; per-evaluation value sequences are deliberately out of scope.

``REPAIR_KINDS`` is the one table of what each repair kind decides: the
patch kind it produces (and through it the statement kind it targets) and
the decisions tried per failing test.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .minilang import DEFAULT_STEP_BUDGET, ExecutionControls, PatchKind, Program, execute
from .testkit import TestCase, verdict_holds

NO_VALUE_WORKS = "no-value-works"
BUDGET_EXHAUSTED = "budget-exhausted"

CONDITION = "condition"
PRECONDITION = "precondition"

SKIP = None  # the decision that skips the statement instead of forcing it

# Repair kind -> (the patch kind it produces, the decisions tried in order on
# each failing test). A decision forces the condition to a value or skips.
REPAIR_KINDS = {
    CONDITION: (PatchKind.CONDITION_UPDATE, (True, False)),
    PRECONDITION: (PatchKind.PRECONDITION_ADDITION, (SKIP,)),
}


@dataclass(frozen=True)
class AngelicTuple:
    loc: int
    val: bool
    test: str


@dataclass(frozen=True)
class Trial:
    loc: int
    test: str
    forced: Optional[bool]  # None means the statement was skipped
    passed: bool
    timed_out: bool


@dataclass
class AngelicOutcome:
    tuples: Optional[Dict[str, AngelicTuple]]  # test id -> tuple when found
    reason: Optional[str] = None  # NO_VALUE_WORKS | BUDGET_EXHAUSTED
    trials: List[Trial] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.tuples is not None


def _index_tests(suite: Sequence[TestCase], failing: Iterable[str]) -> List[TestCase]:
    by_id = {t.id: t for t in suite}
    missing = [t for t in failing if t not in by_id]
    if missing:
        raise KeyError(f"unknown failing test ids: {missing}")
    return [by_id[t] for t in sorted(failing)]


def _run_trial(program, test, controls, step_budget):
    result = execute(program, test.function, list(test.args), controls, step_budget)
    return verdict_holds(result, test), result.timed_out


def angelic_condition(
    program: Program,
    suite: Sequence[TestCase],
    failing: Iterable[str],
    loc: int,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> AngelicOutcome:
    """Search for per-test forced condition values that pass every failing
    test. When both forced values pass a test, true is recorded."""
    return _angelic_search(program, suite, failing, loc, CONDITION, step_budget)


def angelic_precondition(
    program: Program,
    suite: Sequence[TestCase],
    failing: Iterable[str],
    loc: int,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> AngelicOutcome:
    """Skip the statement during each failing test; found iff all pass.
    Every recorded tuple carries the value false (statement skipped)."""
    return _angelic_search(program, suite, failing, loc, PRECONDITION, step_budget)


def check_candidate(program: Program, loc: int, kind: str) -> None:
    """Raise ValueError unless ``kind`` is a repair kind and the statement at
    ``loc`` is one that kind repairs."""
    if kind not in REPAIR_KINDS:
        raise ValueError(f"unknown repair kind {kind!r}")
    if program.kind_of(loc) != REPAIR_KINDS[kind][0].statement_kind:
        raise ValueError(f"location {loc} is not a {kind} candidate")


def _angelic_search(program, suite, failing, loc, kind, step_budget) -> AngelicOutcome:
    """Try every decision of ``kind`` on every failing test, in order; the
    first decision that passes a test becomes its angelic value."""
    check_candidate(program, loc, kind)
    tests = _index_tests(suite, failing)
    if not tests:
        raise ValueError("at least one failing test is required")

    decisions = REPAIR_KINDS[kind][1]
    trials: List[Trial] = []
    tuples: Dict[str, AngelicTuple] = {}
    any_timeout = False
    all_covered = True
    for test in tests:
        covered = False
        for decision in decisions:
            if decision is SKIP:
                controls = ExecutionControls(skip_set=frozenset({loc}))
            else:
                controls = ExecutionControls(condition_overrides={loc: decision})
            passed, timed_out = _run_trial(program, test, controls, step_budget)
            trials.append(Trial(loc, test.id, decision, passed, timed_out))
            any_timeout = any_timeout or timed_out
            if passed and not covered:
                covered = True
                # A skipped statement is a precondition that evaluated false.
                tuples[test.id] = AngelicTuple(loc, decision is True, test.id)
        all_covered = all_covered and covered

    if all_covered:
        return AngelicOutcome(tuples=tuples, trials=trials)
    reason = BUDGET_EXHAUSTED if any_timeout else NO_VALUE_WORKS
    return AngelicOutcome(tuples=None, reason=reason, trials=trials)


def search_space_size(program: Program, kind: str, covered: Iterable[int]) -> int:
    """Size of the single-value angelic search space for one failing test:
    the number of decisions of ``kind`` per covered statement it repairs."""
    if kind not in REPAIR_KINDS:
        raise ValueError(f"unknown repair kind {kind!r}")
    patch_kind, decisions = REPAIR_KINDS[kind]
    targets = [l for l in set(covered) if program.kind_of(l) == patch_kind.statement_kind]
    return len(decisions) * len(targets)
