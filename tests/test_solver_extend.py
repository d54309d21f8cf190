"""Differential test of the solver's cone search over every position.

``reference_extend`` is the search stated plainly: every candidate of
every component outside the cone, each component wiring in product order,
counts one node and is walked, and the last position closes by
``test_solver_close.reference_close``. Both searches follow the same
one-member pass, ``close_empty``, whose atoms are all that ``confounded``
reads, and start at two members. ``_SearchState.extend`` closes the
cone over each candidate of the next-to-last position without walking
into it, and counts the subtrees that a twin component (the later
instance of an operator semantics whose earlier instance is outside the
cone) or a mirrored wiring of a commuting component repeats, without
walking them. Over the solve-digest climbs (levels 1 to 4, climbing until
the first sat, and level 4 again on each matrix that level 3 solves) and
20 criterion-4 matrices (levels 1 and 2), each solve must give the same
status, node count and model both ways, and read a counting clock as
often. The climbs run under a deadline that
passes after the ladder's node cap, the criterion-4 solves under one that
passes before it. At level 4 every function of two bool columns, xor
among them, is solved both ways too: each level-4 solve above runs out or
closes a cone of at most two members, so only these count twin subtrees
before a hit.
"""
import random
from itertools import product

from condfix import budget
from condfix.synth import (
    MAX_LEVEL, MIN_LEVEL, SAT, TIMEOUT, decode, encode, internal, solve_internal, to_source,
)
from condfix.trace import ColumnSpec, TraceMatrix, TraceRow, deduplicate
from test_acceptance import _random_matrix
from test_deadline_sweep import FakeClock
from test_solve_digest import DEEP_CAP, LADDER_CAP, matrices
from test_solver_close import reference_close, wirings


def reference_extend(state, k: int):
    """The first cone and wirings that close within ``k`` members, walking
    every candidate."""
    if len(state.cone) == k - 1:
        hit, nodes = reference_close(state)
        state.budget.advance(nodes)
        return hit
    seen = state.seen
    by_types = {}
    for ci, in_types, memo, _twin, _mirrored in state.picks:
        if state.in_cone[ci]:
            continue
        candidates = by_types.get(in_types)
        if candidates is None:
            candidates = by_types[in_types] = wirings(state, in_types)
        for wiring, key in candidates:
            state.budget.advance()
            vid = memo.get(key)
            if vid is None:
                vid = state.apply(ci, key)
            if seen[vid]:
                continue
            state.push(ci, wiring, vid)
            if not state.consumable(k):
                state.pop()
                continue
            seen[vid] = True
            hit = reference_extend(state, k)
            if hit is not None:
                return hit
            seen[vid] = False
            state.pop()
    return None


def solve_both(monkeypatch, problem, passes_at, cap: int):
    """(status, nodes, model, clock reads) of the solve, by ``extend`` and
    by ``reference_extend``, on a clock that finds the deadline passed at
    read ``passes_at`` (read 1 sets it; never, if None)."""
    outcomes = []
    for extend in (internal._SearchState.extend, reference_extend):
        clock = FakeClock(passes_at)
        with monkeypatch.context() as patched:
            patched.setattr(budget, "now", clock)
            patched.setattr(internal._SearchState, "extend", extend)
            result = solve_internal(problem, 1.0, cap)
        outcomes.append((result.status, result.nodes, result.model, clock.reads))
    return outcomes


def test_extend_matches_the_reference_on_the_digest_climbs(monkeypatch):
    # the deadline passes at read 4, node 12,288, past the cap;
    # every level-4 rung of the climbs runs out of nodes, so level 4 also
    # runs, at the deep cap, on each matrix that level 3 solves
    statuses = set()
    for index, matrix in enumerate(matrices()):
        for level in range(MIN_LEVEL, MAX_LEVEL + 1):
            got, want = solve_both(monkeypatch, encode(matrix, level), 4, LADDER_CAP)
            assert got == want, (index, level)
            statuses.add((level, got[0], got[3]))
            if got[0] == SAT:
                break
        if level == 3 and got[0] == SAT:
            got, want = solve_both(monkeypatch, encode(matrix, MAX_LEVEL), 4, DEEP_CAP)
            assert got == want, (index, MAX_LEVEL)
            statuses.add((MAX_LEVEL, got[0], got[3]))
    assert {(3, TIMEOUT, 3), (4, SAT, 1), (4, TIMEOUT, 4)} <= statuses


def test_extend_matches_the_reference_on_every_function_of_two_bools(monkeypatch):
    # level 4 over two bool columns has the two instances of each of
    # ``&&``, ``||`` and ``!``; xor takes four members, both ``&&`` among
    # them, after passes that count twin subtrees on every position
    columns = [ColumnSpec(c, "bool", "var", var=c) for c in "ab"]
    inputs = list(product((False, True), repeat=2))
    sources = set()
    for outcomes in product((False, True), repeat=len(inputs)):
        matrix = TraceMatrix(1, "condition", columns,
                             [TraceRow(f"t{r}", 0, bits, exp)
                              for r, (bits, exp) in enumerate(zip(inputs, outcomes))])
        problem = encode(matrix, MAX_LEVEL)
        got, want = solve_both(monkeypatch, problem, 4, DEEP_CAP)
        assert got == want, outcomes
        assert got[0] == SAT
        sources.add(to_source(decode(problem, got[2])))
    assert "(a || b) && !(a && b)" in sources


def test_extend_matches_the_reference_on_criterion_4_matrices(monkeypatch):
    # the deadline passes at read 6, node 20,480, before the cap
    rng = random.Random(20240817)
    solved = timeouts = 0
    while solved < 20:
        matrix = deduplicate(_random_matrix(rng))
        if matrix.conflicting:
            continue
        solved += 1
        for level in (1, 2):
            got, want = solve_both(monkeypatch, encode(matrix, level), 6, 100_000)
            assert got == want, (solved, level)
            timeouts += got[0] == TIMEOUT
    assert timeouts
