"""Test cases, suites, and suite execution with coverage spectra.

A test case is one call with exactly one oracle: an expected return value
or an expected error name. Real comparisons use an absolute tolerance of
1e-9; bool and int comparisons are exact and type-sensitive.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from .errors import MiniLangSyntaxError, SuiteFormatError
from .minilang import (
    DEFAULT_STEP_BUDGET, ExecutionResult, Null, Program, Value, execute,
    format_value, parse_test,
)

REAL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # not a pytest class

    id: str
    function: str
    args: tuple
    expected_value: Optional[Value] = None
    expected_error: Optional[str] = None

    def __post_init__(self):
        if (":" in self.id or "".join(self.id.splitlines()) != self.id
                or self.id.startswith("#") or self.id != self.id.strip()):
            raise SuiteFormatError(f"test id {self.id!r} would not read back from a suite line")
        has_value = self.expected_value is not None
        has_error = self.expected_error is not None
        if has_value == has_error:
            raise SuiteFormatError(
                f"test {self.id!r} needs exactly one oracle (value or error)"
            )

    def describe(self) -> str:
        args = ", ".join(format_value(a) for a in self.args)
        oracle = (
            f"error {self.expected_error}"
            if self.expected_error is not None
            else format_value(self.expected_value)
        )
        return f"{self.id}: {self.function}({args}) -> {oracle}"


@dataclass
class SuiteResult:
    verdicts: Dict[str, bool]
    coverage: Dict[str, Dict[int, int]]

    @property
    def failing(self) -> Set[str]:
        return {t for t, ok in self.verdicts.items() if not ok}

    @property
    def passing(self) -> Set[str]:
        return {t for t, ok in self.verdicts.items() if ok}

    def all_pass(self) -> bool:
        return not self.failing


def values_match(actual: Value, expected: Value) -> bool:
    """Type-sensitive value comparison with 1e-9 absolute real tolerance."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return isinstance(actual, bool) and isinstance(expected, bool) and actual == expected
    if isinstance(expected, float) or isinstance(actual, float):
        return (
            isinstance(actual, float)
            and isinstance(expected, float)
            and abs(actual - expected) <= REAL_TOLERANCE
        )
    if isinstance(expected, int) or isinstance(actual, int):
        return isinstance(actual, int) and isinstance(expected, int) and actual == expected
    if isinstance(expected, Null) or isinstance(actual, Null):
        return isinstance(actual, Null) and isinstance(expected, Null)
    return actual == expected


def verdict_holds(result: ExecutionResult, test: TestCase) -> bool:
    """True iff the execution outcome matches the test's oracle.

    Budget exhaustion never satisfies an oracle: a timed-out run is a
    failed trial regardless of what the test expects.
    """
    if result.timed_out:
        return False
    if test.expected_error is not None:
        return result.error == test.expected_error
    if result.error is not None:
        return False
    return values_match(result.value, test.expected_value)


def run_suite(
    program: Program,
    suite: Sequence[TestCase],
    step_budget: int = DEFAULT_STEP_BUDGET,
    deadline: Optional[float] = None,
) -> SuiteResult:
    """Run every test against the program; each test's coverage is its
    run's hits. DeadlineExceeded ends the suite at the first run that reads
    the clock past ``deadline``."""
    if not suite:
        raise ValueError("suite must contain at least one test case")
    ids = [t.id for t in suite]
    if len(set(ids)) != len(ids):
        raise SuiteFormatError("duplicate test ids in suite")
    verdicts: Dict[str, bool] = {}
    coverage: Dict[str, Dict[int, int]] = {}
    for test in suite:
        result = execute(program, test.function, list(test.args), step_budget=step_budget,
                         deadline=deadline)
        verdicts[test.id] = verdict_holds(result, test)
        coverage[test.id] = result.hits
    return SuiteResult(verdicts, coverage)


# --- suite file format ------------------------------------------------------
#
# One test per line:   <id>: <function>(<literal>, ...) -> <oracle>
# where <oracle> is a MiniLang literal or ``error <Name>``. Blank lines and
# lines starting with ``#`` are ignored. The id ends at the first ``:``;
# the rest is read by the MiniLang parser, so a string literal may hold any
# text, ``->``, ``:`` and ``#`` included.


def parse_suite(text: str) -> List[TestCase]:
    """The tests of a suite file; an error names its line (and column)."""
    tests: List[TestCase] = []
    ids = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        colon = raw.find(":")
        if colon < 0:
            raise SuiteFormatError(f"line {lineno}: expected '<id>: <call> -> <oracle>'")
        try:
            # Blanking the id keeps each column where it is in the line.
            function, args, value, error = parse_test(" " * (colon + 1) + raw[colon + 1:])
        except MiniLangSyntaxError as exc:
            raise SuiteFormatError(f"line {lineno}: {exc.message} (column {exc.column})") from exc
        test = TestCase(raw[:colon].strip(), function, tuple(args), value, error)
        if test.id in ids:
            raise SuiteFormatError(f"line {lineno}: duplicate test id {test.id!r}")
        ids.add(test.id)
        tests.append(test)
    if not tests:
        raise SuiteFormatError("suite file contains no test cases")
    return tests


def render_suite(suite: Sequence[TestCase]) -> str:
    return "\n".join(t.describe() for t in suite) + "\n"
