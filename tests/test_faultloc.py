"""Suspiciousness metrics, ranking, and wasted effort."""
import random

import pytest

from condfix.errors import NoFailingTestError
from condfix.faultloc import (
    METRICS, Spectrum, all_scores, build_spectrum, rank, suspiciousness,
    wasted_effort, wasted_effort_from_scores,
)
from condfix.testkit import SuiteResult


def make_spectrum(failed, passed, total_failed, total_passed):
    return Spectrum(failed, passed, total_failed, total_passed)


def brute_force_effort(scores, buggy):
    """Independent straight-line recomputation of the effort measure."""
    above = 0
    for loc in scores:
        if scores[loc] > scores[buggy]:
            above += 1
    return above + 1


class TestOchiai:
    def test_unique_failure_scores_one(self):
        s = make_spectrum({1: 1}, {1: 0}, 1, 0)
        assert suspiciousness("ochiai", s, 1) == 1.0

    def test_uncovered_by_failures_scores_zero(self):
        s = make_spectrum({1: 0}, {1: 3}, 1, 3)
        assert suspiciousness("ochiai", s, 1) == 0.0

    def test_direct_formula_half(self):
        # failed=1, passed=3, total_failed=1: 1/sqrt(1*(1+3)) = 0.5
        s = make_spectrum({1: 1}, {1: 3}, 1, 3)
        assert suspiciousness("ochiai", s, 1) == pytest.approx(0.5)

    def test_bounds_and_zero_iff_no_failures(self):
        rng = random.Random(7)
        for _ in range(200):
            tf = rng.randint(1, 9)
            tp = rng.randint(0, 9)
            ef = rng.randint(0, tf)
            ep = rng.randint(0, tp)
            s = make_spectrum({1: ef}, {1: ep}, tf, tp)
            score = suspiciousness("ochiai", s, 1)
            assert 0.0 <= score <= 1.0
            assert (score == 0.0) == (ef == 0)


class TestSpectrum:
    def test_single_failing_covering(self):
        suite_result = SuiteResult(
            verdicts={"f": False},
            coverage={"f": {1: 1}},
        )
        s = build_spectrum(suite_result)
        assert s.counts(1) == (1, 0)

    def test_cl4_style_counts(self):
        # the buggy statement covered by 2 failing and 23 passing tests
        coverage = {}
        verdicts = {}
        for i in range(2):
            verdicts[f"f{i}"] = False
            coverage[f"f{i}"] = {4: 1}
        for i in range(23):
            verdicts[f"p{i}"] = True
            coverage[f"p{i}"] = {4: 1}
        s = build_spectrum(SuiteResult(verdicts, coverage))
        assert s.counts(4) == (2, 23)

    def test_uncovered_statement_counts_zero(self):
        suite_result = SuiteResult(
            verdicts={"f": False}, coverage={"f": {1: 1}}
        )
        s = build_spectrum(suite_result, all_locations=[1, 2])
        assert s.counts(2) == (0, 0)

    def test_requires_a_failing_test(self):
        suite_result = SuiteResult(
            verdicts={"p": True}, coverage={"p": {1: 1}}
        )
        with pytest.raises(NoFailingTestError):
            build_spectrum(suite_result)


class TestRanking:
    def test_descending_scores(self):
        s = make_spectrum({1: 1, 2: 1}, {1: 3, 2: 0}, 1, 3)
        assert [loc for loc, _ in rank(s, "ochiai")] == [2, 1]

    def test_tie_break_by_location(self):
        s = make_spectrum({3: 1, 1: 1}, {3: 2, 1: 2}, 1, 2)
        assert [loc for loc, _ in rank(s, "ochiai")] == [1, 3]

    def test_an_unknown_metric_is_rejected(self):
        s = make_spectrum({1: 1}, {1: 0}, 1, 0)
        with pytest.raises(ValueError, match="unknown metric 'nope'"):
            suspiciousness("nope", s, 1)

    def test_zero_scores_excluded(self):
        s = make_spectrum({1: 0, 2: 0}, {1: 1, 2: 1}, 1, 1)
        assert rank(s, "ochiai") == []

    def test_entries_are_positive_score_permutation(self):
        rng = random.Random(11)
        for _ in range(50):
            locs = range(1, 8)
            tf, tp = rng.randint(1, 4), rng.randint(0, 4)
            s = make_spectrum(
                {l: rng.randint(0, tf) for l in locs},
                {l: rng.randint(0, tp) for l in locs},
                tf, tp,
            )
            ranking = rank(s, "ochiai")
            positive = {l for l in locs if s.counts(l)[0] > 0}
            assert {loc for loc, _ in ranking} == positive
            scores = [score for _, score in ranking]
            assert scores == sorted(scores, reverse=True)


class TestWastedEffort:
    def test_unique_maximum_is_one(self):
        s = make_spectrum({1: 1, 2: 0}, {1: 0, 2: 3}, 1, 3)
        assert wasted_effort(s, "ochiai", 1) == 1

    def test_a_location_not_in_the_spectrum_is_rejected(self):
        s = make_spectrum({1: 1}, {1: 0}, 1, 0)
        with pytest.raises(KeyError, match="buggy location 2 not in spectrum"):
            wasted_effort(s, "ochiai", 2)

    def test_three_strictly_above_gives_four(self):
        scores = {1: 0.9, 2: 0.8, 3: 0.7, 4: 0.5, 5: 0.5}
        assert wasted_effort_from_scores(scores, 4) == 4

    def test_matches_brute_force_on_random_spectra(self):
        rng = random.Random(23)
        for _ in range(60):
            locs = list(range(1, 10))
            tf, tp = rng.randint(1, 5), rng.randint(0, 5)
            s = make_spectrum(
                {l: rng.randint(0, tf) for l in locs},
                {l: rng.randint(0, tp) for l in locs},
                tf, tp,
            )
            buggy = rng.choice(locs)
            for metric in METRICS:
                scores = all_scores(s, metric)
                assert wasted_effort(s, metric, buggy) == brute_force_effort(scores, buggy)

    def test_invariant_under_monotone_transformation(self):
        rng = random.Random(31)
        for _ in range(50):
            locs = list(range(1, 9))
            tf, tp = rng.randint(1, 5), rng.randint(0, 5)
            s = make_spectrum(
                {l: rng.randint(0, tf) for l in locs},
                {l: rng.randint(0, tp) for l in locs},
                tf, tp,
            )
            buggy = rng.choice(locs)
            for metric in METRICS:
                scores = all_scores(s, metric)
                transformed = {l: 2 * v + 1 for l, v in scores.items()}
                assert wasted_effort_from_scores(scores, buggy) == \
                    wasted_effort_from_scores(transformed, buggy)

