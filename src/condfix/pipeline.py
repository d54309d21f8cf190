"""End-to-end repair: localize, force, trace, synthesize, apply, validate.

Statements are visited in suspiciousness order. For each candidate the
kind follows the statement kind (if statements get condition updates,
plain statements get preconditions). A candidate advances through the
angelic, trace, and synthesis phases; the ladder of difficulty levels is
climbed until the first satisfiable rung whose decoded expression also
survives whole-suite validation. The first validated patch wins.

When nothing validates, the report carries one reason:

  no-angelic-value    nothing got past angelic localization
  execution-timeout   a forced run of the first failing test that no
                      decision passes exhausted the step budget
  conflicting-trace   some trace matrix demanded two outcomes for one input
  synthesis-timeout   some solver call timed out or a rung went unanswered
  exhausted           the ranking ran out, or the global deadline passed
                      in any phase

with later phases taking precedence, since they carry more information.
The global deadline outranks them all: ``repair`` gives the one deadline
``started + global_timeout`` to every run it makes and caps each rung at
what is left of it; a built-in rung's own deadline is never later. The
first location, run or rung that reads the clock past it raises
DeadlineExceeded, which ends the search; the current trial then reads
``exhausted``. The clock is ``budget.now``, read at ``started``,
as each location starts, before each rung, around its solve
(``level_started``, ``elapsed``), as a built-in rung sets its deadline,
every 4,096 steps of a run or nodes of a rung, after a rung that timed
out, and for ``wall_time``. A built-in rung that starts past the deadline
times out with no node searched, and the read after it ends the search. A
deadline that passes after a rung's start, in a solve and validation too
short to read the clock, goes unseen: this late-patch window, which for a
built-in rung holds only the ``elapsed`` read, returns the patch past the
deadline.
"""
from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .angelic import (
    BUDGET_EXHAUSTED, CONDITION, REPAIR_KINDS, angelic_condition, angelic_precondition,
)
from . import budget
from .errors import DeadlineExceeded, NoFailingTestError
from .faultloc import METRICS, build_spectrum, rank
from .minilang import DEFAULT_STEP_BUDGET, Patch, Program, apply_patch, render_program
from .synth import DEFAULT_NODE_BUDGET, MAX_LEVEL, MIN_LEVEL, decode, encode, solve, to_minilang
from .synth.internal import SAT, TIMEOUT
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
REASONS = (*_REASON_PRIORITY, EXHAUSTED)  # every reason a no-patch report can give


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
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; choose from {sorted(METRICS)}")
        if not (self.level_timeout > 0 and self.global_timeout > 0):  # a NaN fails every compare
            raise ValueError(f"timeouts must be positive, got level_timeout "
                             f"{self.level_timeout} and global_timeout {self.global_timeout}")
        for name in ("max_level", "step_budget", "solver_nodes"):
            if type(getattr(self, name)) is not int:  # a bool is not a count
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not MIN_LEVEL <= self.max_level <= MAX_LEVEL:
            raise ValueError(f"max_level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {self.max_level}")
        if self.step_budget < 1 or self.solver_nodes < 1:
            raise ValueError(f"step_budget and solver_nodes must be at least 1, got "
                             f"{self.step_budget} and {self.solver_nodes}")


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
             step_budget: int = DEFAULT_STEP_BUDGET, deadline: Optional[float] = None) -> bool:
    """Whole-suite re-execution on the patched program; true iff nothing
    fails. A run that reads the clock past ``deadline`` raises
    DeadlineExceeded."""
    patched = apply_patch(program, patch)
    return run_suite(patched, suite, step_budget, deadline).all_pass()


def repair(program: Program, suite: Sequence[TestCase], config: Optional[RepairConfig] = None,
           baseline: Optional[SuiteResult] = None) -> RepairReport:
    """``baseline``, if given, must be ``run_suite(program, suite,
    step_budget=config.step_budget)``, whose coverage is the spectrum's;
    the repair then skips that run."""
    config = config or RepairConfig()
    started = budget.now()
    deadline = started + config.global_timeout
    trials: List[LocationTrial] = []
    try:
        if baseline is None:
            baseline = run_suite(program, suite, config.step_budget, deadline)
        if not baseline.failing:
            raise NoFailingTestError("repair requires at least one failing test")
        failing = sorted(baseline.failing)

        spectrum = build_spectrum(baseline, program.locations())
        ranking = rank(spectrum, config.metric)

        for position, (loc, _score) in enumerate(ranking, start=1):
            kind = _repair_kind(program, loc, config.mode)
            if kind is None:
                continue
            trial = LocationTrial(loc=loc, rank=position, kind=kind, status="")
            trials.append(trial)
            # Runs shorter than 4,096 steps never read the clock, so a
            # ranking of short runs reads it here, once per location.
            budget.seconds_left(deadline)

            search = angelic_condition if kind == CONDITION else angelic_precondition
            outcome = search(program, suite, failing, loc, config.step_budget, deadline)
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
                collect(program, suite, loc, kind, outcome.tuples, config.step_budget, deadline)
            )
            if matrix.conflicting:
                trial.status = CONFLICTING_TRACE
                continue

            patch = _synthesis_ladder(program, suite, matrix, kind, trial, config, deadline)
            if patch is not None:
                return RepairReport(
                    outcome="patched",
                    patch=patch,
                    level=trial.levels[-1].level,
                    location_rank=position,
                    wall_time=budget.now() - started,
                    trials=trials,
                )
    except DeadlineExceeded:
        if trials:
            trials[-1].status = EXHAUSTED
        reason = EXHAUSTED
    else:
        statuses = {t.status for t in trials}
        reason = next((r for r in reversed(_REASON_PRIORITY) if r in statuses), EXHAUSTED)
    return RepairReport(outcome="no-patch", reason=reason, wall_time=budget.now() - started,
                        trials=trials)


def _repair_kind(program: Program, loc: int, mode: str) -> Optional[str]:
    for kind, (patch_kind, _decisions) in REPAIR_KINDS.items():
        if mode in (kind, "both") and program.kind_of(loc) == patch_kind.statement_kind:
            return kind
    return None


def _synthesis_ladder(program, suite, matrix, kind, trial, config, deadline) -> Optional[Patch]:
    saw_timeout = False
    for level in range(1, config.max_level + 1):
        timeout = min(config.level_timeout, budget.seconds_left(deadline))
        level_started = budget.now()
        problem = encode(matrix, level)
        result = solve(problem, config.solver_cmd, timeout, config.solver_nodes,
                       deadline=deadline)
        elapsed = budget.now() - level_started
        rung = LevelTrial(level, result.status, elapsed, result.nodes)
        # Kept before validation, so a deadline that stops it leaves the
        # solved rung in the report with status sat.
        trial.levels.append(rung)
        if rung.status == SAT:
            expression = decode(problem, result.model)
            if not problem.fits_rows(expression):
                # An external backend may answer sat with a junk model; treat
                # it like an unanswered rung rather than trusting it.
                rung.status, saw_timeout = "invalid-patch", True
            else:
                patch = Patch(REPAIR_KINDS[kind][0], matrix.location, to_minilang(expression))
                if validate(program, patch, suite, config.step_budget, deadline):
                    trial.status = "patched"
                    return patch
                rung.status = "invalid-patch"
        if rung.status == TIMEOUT:
            saw_timeout = True
            budget.seconds_left(deadline)  # a rung the deadline stopped ends the search
    trial.status = SYNTHESIS_TIMEOUT if saw_timeout else EXHAUSTED
    return None


def render_patch_diff(program: Program, patch: Patch) -> str:
    """Unified diff of the canonical program text against the patched text."""
    before = render_program(program).splitlines(keepends=True)
    after = render_program(apply_patch(program, patch)).splitlines(keepends=True)
    diff = difflib.unified_diff(before, after, fromfile="a/program.ml", tofile="b/program.ml")
    return "".join(diff)
