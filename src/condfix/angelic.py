"""Angelic fix localization.

For a candidate if statement, each failing test is re-run with the
condition forced to true and, if that fails, forced to false; for a
candidate plain statement, once with the statement skipped. Each decision
is a program edit (``patching.decide``), made once per location and shared
by every failing test; a trial reads only its verdict. A location
qualifies when every failing
test passes under some forced decision; the search stops at the first
failing test (in sorted order) that none passes.
The forced value is constant for the whole test execution; per-evaluation
value sequences are deliberately out of scope.

``REPAIR_KINDS`` is the one table of what each repair kind decides: the
patch kind it produces (and through it the statement kind it targets) and
the decisions tried per failing test.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .minilang import DEFAULT_STEP_BUDGET, SKIP, PatchKind, Program, decide, execute
from .testkit import TestCase, verdict_holds

NO_VALUE_WORKS = "no-value-works"
BUDGET_EXHAUSTED = "budget-exhausted"

CONDITION = "condition"
PRECONDITION = "precondition"

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


def angelic_condition(
    program: Program,
    suite: Sequence[TestCase],
    failing: Iterable[str],
    loc: int,
    step_budget: int = DEFAULT_STEP_BUDGET,
    deadline: Optional[float] = None,
) -> AngelicOutcome:
    """Search for per-test forced condition values that pass every failing
    test. True is tried first, so it is recorded when both would pass."""
    return _angelic_search(program, suite, failing, loc, CONDITION, step_budget, deadline)


def angelic_precondition(
    program: Program,
    suite: Sequence[TestCase],
    failing: Iterable[str],
    loc: int,
    step_budget: int = DEFAULT_STEP_BUDGET,
    deadline: Optional[float] = None,
) -> AngelicOutcome:
    """Skip the statement during each failing test; found iff all pass.
    Every recorded tuple carries the value false (statement skipped)."""
    return _angelic_search(program, suite, failing, loc, PRECONDITION, step_budget, deadline)


def check_candidate(program: Program, loc: int, kind: str) -> None:
    """Raise ValueError unless ``kind`` is a repair kind and the statement at
    ``loc`` is one that kind repairs."""
    if kind not in REPAIR_KINDS:
        raise ValueError(f"unknown repair kind {kind!r}")
    if program.kind_of(loc) != REPAIR_KINDS[kind][0].statement_kind:
        raise ValueError(f"location {loc} is not a {kind} candidate")


def _angelic_search(program, suite, failing, loc, kind, step_budget, deadline) -> AngelicOutcome:
    """Try the decisions of ``kind`` in order on each failing test; the first
    that passes is the test's angelic value. The first test none passes ends
    the search, and its own runs alone decide whether the budget ran out. A
    run that reads the clock past ``deadline`` raises DeadlineExceeded."""
    check_candidate(program, loc, kind)
    tests = _index_tests(suite, failing)
    if not tests:
        raise ValueError("at least one failing test is required")

    decisions = REPAIR_KINDS[kind][1]
    decided = {decision: decide(program, loc, decision) for decision in decisions}
    trials: List[Trial] = []
    tuples: Dict[str, AngelicTuple] = {}
    for test in tests:
        for decision in decisions:
            result = execute(decided[decision], test.function, list(test.args),
                             step_budget=step_budget, deadline=deadline)
            passed = verdict_holds(result, test)
            trials.append(Trial(loc, test.id, decision, passed, result.timed_out))
            if passed:
                # A skipped statement is a precondition that evaluated false.
                tuples[test.id] = AngelicTuple(loc, decision is True, test.id)
                break
        else:
            timed_out = any(t.timed_out for t in trials[-len(decisions):])
            reason = BUDGET_EXHAUSTED if timed_out else NO_VALUE_WORKS
            return AngelicOutcome(tuples=None, reason=reason, trials=trials)
    return AngelicOutcome(tuples=tuples, trials=trials)
