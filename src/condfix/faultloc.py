"""Spectrum-based fault localization.

Six suspiciousness metrics over per-statement coverage counts, a ranking
with a deterministic tie-break, and the wasted-effort measure. Formulas
and conventions are documented in docs/fault_localization.md; every 0/0
form evaluates to 0 so uncovered statements never outrank covered ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import NoFailingTestError
from .testkit import SuiteResult


@dataclass
class Spectrum:
    failed: Dict[int, int]
    passed: Dict[int, int]
    total_failed: int
    total_passed: int

    def locations(self) -> List[int]:
        return sorted(set(self.failed) | set(self.passed))

    def counts(self, loc: int) -> Tuple[int, int]:
        return self.failed.get(loc, 0), self.passed.get(loc, 0)


def build_spectrum(
    suite_result: SuiteResult, all_locations: Optional[Iterable[int]] = None
) -> Spectrum:
    """Count, per statement, the failing and passing tests covering it."""
    failing = suite_result.failing
    if not failing:
        raise NoFailingTestError("spectrum requires at least one failing test")
    locations = set(all_locations or ())
    for hits in suite_result.coverage.values():
        locations.update(hits)
    failed = {loc: 0 for loc in sorted(locations)}
    passed = {loc: 0 for loc in sorted(locations)}
    for test_id, hits in suite_result.coverage.items():
        bucket = failed if test_id in failing else passed
        for loc, count in hits.items():
            if count > 0:
                bucket[loc] += 1
    return Spectrum(failed, passed, len(failing), len(suite_result.passing))


def _ochiai(ef, ep, nf, np):
    denom = math.sqrt((ef + nf) * (ef + ep))
    return ef / denom if denom else 0.0


def _tarantula(ef, ep, nf, np):
    tf, tp = ef + nf, ep + np
    fail_ratio = ef / tf if tf else 0.0
    pass_ratio = ep / tp if tp else 0.0
    denom = fail_ratio + pass_ratio
    return fail_ratio / denom if denom else 0.0


def _jaccard(ef, ep, nf, np):
    denom = ef + nf + ep
    return ef / denom if denom else 0.0


def _naish2(ef, ep, nf, np):
    return ef - ep / (ep + np + 1)


def _ochiai2(ef, ep, nf, np):
    num = ef * np
    denom = math.sqrt((ef + ep) * (nf + np) * (ef + np) * (nf + ep))
    return num / denom if denom else 0.0


def _kulczynski2(ef, ep, nf, np):
    t1 = ef / (ef + nf) if ef + nf else 0.0
    t2 = ef / (ef + ep) if ef + ep else 0.0
    return 0.5 * (t1 + t2)


METRICS: Dict[str, Callable[[int, int, int, int], float]] = {
    "ochiai": _ochiai,
    "tarantula": _tarantula,
    "jaccard": _jaccard,
    "naish2": _naish2,
    "ochiai2": _ochiai2,
    "kulczynski2": _kulczynski2,
}


def suspiciousness(metric: str, spectrum: Spectrum, loc: int) -> float:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    ef, ep = spectrum.counts(loc)
    nf = spectrum.total_failed - ef
    np = spectrum.total_passed - ep
    return METRICS[metric](ef, ep, nf, np)


def all_scores(spectrum: Spectrum, metric: str) -> Dict[int, float]:
    return {loc: suspiciousness(metric, spectrum, loc) for loc in spectrum.locations()}


def rank(spectrum: Spectrum, metric: str = "ochiai") -> List[Tuple[int, float]]:
    """Positive-score statements as ``(location, score)`` pairs, in
    descending score order with ties broken by ascending location id."""
    return sorted(
        ((loc, s) for loc, s in all_scores(spectrum, metric).items() if s > 0),
        key=lambda item: (-item[1], item[0]),
    )


def wasted_effort_from_scores(scores: Dict[int, float], buggy: int) -> int:
    """One plus the number of statements strictly more suspicious than the
    buggy one; invariant under any strictly monotone score transformation."""
    if buggy not in scores:
        raise KeyError(f"buggy location {buggy} not in spectrum")
    target = scores[buggy]
    return sum(1 for loc, s in scores.items() if s > target) + 1


def wasted_effort(spectrum: Spectrum, metric: str, buggy: int) -> int:
    return wasted_effort_from_scores(all_scores(spectrum, metric), buggy)
