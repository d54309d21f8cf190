"""End-to-end repair: localize, force, trace, synthesize, apply, validate.

Statements are visited in suspiciousness order. For each candidate the
kind follows the statement kind (if statements get condition updates,
plain statements get preconditions). A candidate advances through the
angelic, trace, and synthesis phases; the ladder of difficulty levels is
climbed until the first satisfiable rung whose decoded expression also
survives whole-suite validation. The first validated patch wins.

When nothing validates, the report carries one reason:

  no-angelic-value    nothing got past angelic localization
  execution-timeout   a forced run exhausted the step budget
  conflicting-trace   some trace matrix demanded two outcomes for one input
  synthesis-timeout   some solver call timed out or a rung went unanswered
  exhausted           the ranking or the global time budget ran out

with later phases taking precedence, since they carry more information.
"""
from __future__ import annotations

import difflib
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .angelic import (
    BUDGET_EXHAUSTED, CONDITION, REPAIR_KINDS, angelic_condition, angelic_precondition,
)
from .errors import NoFailingTestError
from .faultloc import build_spectrum, rank
from .minilang import DEFAULT_STEP_BUDGET, Patch, Program, apply_patch, render_program
from .synth import DEFAULT_NODE_BUDGET, MAX_LEVEL, MIN_LEVEL, decode, encode, solve, to_minilang
from .synth.internal import SAT, TIMEOUT, UNSAT
from .testkit import SuiteResult, TestCase, run_suite
from .trace import collect, deduplicate

NO_ANGELIC_VALUE = "no-angelic-value"
EXECUTION_TIMEOUT = "execution-timeout"
CONFLICTING_TRACE = "conflicting-trace"
SYNTHESIS_TIMEOUT = "synthesis-timeout"
EXHAUSTED = "exhausted"

_REASON_PRIORITY = [
    NO_ANGELIC_VALUE,
    EXECUTION_TIMEOUT,
    CONFLICTING_TRACE,
    SYNTHESIS_TIMEOUT,
]


@dataclass
class RepairConfig:
    mode: str = "both"  # condition | precondition | both
    metric: str = "ochiai"
    level_timeout: float = 60.0
    global_timeout: float = 300.0
    step_budget: int = DEFAULT_STEP_BUDGET
    max_level: int = MAX_LEVEL
    solver_cmd: Optional[str] = None  # None selects the internal backend
    solver_nodes: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.mode not in (*REPAIR_KINDS, "both"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.level_timeout <= 0 or self.global_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if not MIN_LEVEL <= self.max_level <= MAX_LEVEL:
            raise ValueError(f"max_level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {self.max_level}")


@dataclass
class LevelTrial:
    level: int
    status: str  # sat | unsat | timeout | invalid-patch
    seconds: float
    nodes: int = 0  # built-in solver search nodes; 0 for an external solver


@dataclass
class LocationTrial:
    loc: int
    rank: int
    kind: str
    status: str  # reason string or "patched"
    angelic_tuples: List[dict] = field(default_factory=list)
    levels: List[LevelTrial] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "location": self.loc,
            "rank": self.rank,
            "kind": self.kind,
            "status": self.status,
            "angelic_tuples": self.angelic_tuples,
            "levels": [
                {"level": l.level, "status": l.status, "seconds": round(l.seconds, 3),
                 "nodes": l.nodes}
                for l in self.levels
            ],
        }


@dataclass
class RepairReport:
    outcome: str  # patched | no-patch
    reason: Optional[str] = None
    patch: Optional[Patch] = None
    level: Optional[int] = None
    location_rank: Optional[int] = None
    wall_time: float = 0.0
    trials: List[LocationTrial] = field(default_factory=list)

    @property
    def patched(self) -> bool:
        return self.outcome == "patched"

    def to_dict(self) -> dict:
        body = {
            "outcome": self.outcome,
            "reason": self.reason,
            "patch": None,
            "level": self.level,
            "location_rank": self.location_rank,
            "wall_time": round(self.wall_time, 3),
            "trials": [t.to_dict() for t in self.trials],
        }
        if self.patch is not None:
            body["patch"] = {
                "kind": self.patch.kind.value,
                "location": self.patch.location,
                "expression": self.patch.expression_text,
            }
        return body


def validate(program: Program, patch: Patch, suite: Sequence[TestCase],
             step_budget: int = DEFAULT_STEP_BUDGET) -> bool:
    """Whole-suite re-execution on the patched program; true iff nothing fails."""
    patched = apply_patch(program, patch)
    return run_suite(patched, suite, step_budget=step_budget).all_pass()


def repair(program: Program, suite: Sequence[TestCase], config: Optional[RepairConfig] = None,
           baseline: Optional[SuiteResult] = None) -> RepairReport:
    """``baseline``, if given, must be ``run_suite(program, suite,
    step_budget=config.step_budget)``; the repair then skips that run."""
    config = config or RepairConfig()
    started = time.monotonic()

    if baseline is None:
        baseline = run_suite(program, suite, step_budget=config.step_budget)
    if not baseline.failing:
        raise NoFailingTestError("repair requires at least one failing test")
    failing = sorted(baseline.failing)

    spectrum = build_spectrum(baseline, program.locations())
    ranking = rank(spectrum, config.metric)

    trials: List[LocationTrial] = []
    for position, (loc, _score) in enumerate(ranking.entries, start=1):
        if time.monotonic() - started > config.global_timeout:
            return _no_patch(EXHAUSTED, trials, started)
        kind = _repair_kind(program, loc, config.mode)
        if kind is None:
            continue
        trial = LocationTrial(loc=loc, rank=position, kind=kind, status="")
        trials.append(trial)

        search = angelic_condition if kind == CONDITION else angelic_precondition
        outcome = search(program, suite, failing, loc, config.step_budget)
        if not outcome.found:
            trial.status = (
                EXECUTION_TIMEOUT if outcome.reason == BUDGET_EXHAUSTED else NO_ANGELIC_VALUE
            )
            continue
        trial.angelic_tuples = [
            {"loc": t.loc, "val": t.val, "test": t.test}
            for t in outcome.tuples.values()
        ]

        matrix = deduplicate(
            collect(program, suite, loc, kind, outcome.tuples, config.step_budget)
        )
        if matrix.conflicting:
            trial.status = CONFLICTING_TRACE
            continue

        patch = _synthesis_ladder(program, suite, matrix, kind, trial, config, started)
        if patch is not None:
            wall = time.monotonic() - started
            return RepairReport(
                outcome="patched",
                patch=patch,
                level=trial.levels[-1].level,
                location_rank=position,
                wall_time=wall,
                trials=trials,
            )
        if not trial.status:
            trial.status = SYNTHESIS_TIMEOUT

    return _no_patch(None, trials, started)


def _no_patch(forced_reason: Optional[str], trials: List[LocationTrial], started: float) -> RepairReport:
    reason = forced_reason
    if reason is None:
        reason = EXHAUSTED
        for candidate in _REASON_PRIORITY:
            if any(t.status == candidate for t in trials):
                reason = candidate
    return RepairReport(
        outcome="no-patch",
        reason=reason,
        wall_time=time.monotonic() - started,
        trials=trials,
    )


def _repair_kind(program: Program, loc: int, mode: str) -> Optional[str]:
    for kind, (patch_kind, _decisions) in REPAIR_KINDS.items():
        if mode in (kind, "both") and program.kind_of(loc) == patch_kind.statement_kind:
            return kind
    return None


def _synthesis_ladder(program, suite, matrix, kind, trial, config, started) -> Optional[Patch]:
    saw_timeout = False
    for level in range(1, config.max_level + 1):
        level_started = time.monotonic()
        remaining = config.global_timeout - (level_started - started)
        if remaining <= 0:
            trial.status = SYNTHESIS_TIMEOUT if saw_timeout else EXHAUSTED
            return None
        problem = encode(matrix, level)
        result = solve(problem, config.solver_cmd, min(config.level_timeout, remaining),
                       config.solver_nodes)
        elapsed = time.monotonic() - level_started
        if result.status == UNSAT:
            trial.levels.append(LevelTrial(level, UNSAT, elapsed, result.nodes))
            continue
        if result.status == TIMEOUT:
            trial.levels.append(LevelTrial(level, TIMEOUT, elapsed, result.nodes))
            saw_timeout = True
            continue
        expression = decode(problem, result.model)
        if not problem.satisfies_rows(result.model):
            # An external backend may answer sat with a junk model; treat it
            # like an unanswered rung rather than trusting it.
            trial.levels.append(LevelTrial(level, "invalid-patch", elapsed, result.nodes))
            saw_timeout = True
            continue
        patch = Patch(REPAIR_KINDS[kind][0], matrix.location, to_minilang(expression))
        if validate(program, patch, suite, config.step_budget):
            trial.levels.append(LevelTrial(level, SAT, elapsed, result.nodes))
            trial.status = "patched"
            return patch
        trial.levels.append(LevelTrial(level, "invalid-patch", elapsed, result.nodes))
    if saw_timeout:
        trial.status = SYNTHESIS_TIMEOUT
    else:
        trial.status = EXHAUSTED
    return None


def render_patch_diff(program: Program, patch: Patch) -> str:
    """Unified diff of the canonical program text against the patched text."""
    before = render_program(program).splitlines(keepends=True)
    after = render_program(apply_patch(program, patch)).splitlines(keepends=True)
    diff = difflib.unified_diff(before, after, fromfile="a/program.ml", tofile="b/program.ml")
    return "".join(diff)
