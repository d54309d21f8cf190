"""Differential test of the solver's last cone position.

``reference_close`` is the closing rule stated plainly: walk the full
root-wiring product of every bool root outside the cone, keep the wirings
of a root that can close a cone that take every unconsumed cone member,
and stop at the first whose vector is the expected one; every wiring
walked over is one node.
``_SearchState.close`` enumerates only the closing wirings. Wrapped over
the solve-digest matrices (levels 1 to 4, climbing until the first sat)
and over 20 criterion-4 matrices (levels 1 and 2), every call must give
the reference's hit (cone and wiring) or ``None`` with it, the same node
delta, and find zero, one or two unconsumed members. A few small matrices
make each kind of closing wiring the hit, and one makes it a root whose
twin (the earlier instance of its operator) is in the cone.
"""
import random
from collections import Counter
from itertools import product

import pytest

from condfix.budget import Exhausted
from condfix.synth import (
    MAX_LEVEL, MIN_LEVEL, SAT, Component, decode, encode, encode_with_components, internal,
    solve_internal, to_source,
)
from condfix.trace import ColumnSpec, TraceMatrix, TraceRow, deduplicate
from test_acceptance import _random_matrix
from test_solve_digest import LADDER_CAP, matrices


def reference_close(state):
    """(hit, nodes) of the product-and-filter rule; the budget is left alone."""
    unconsumed = {("comp", pos) for pos, n in enumerate(state.consumers) if not n}
    tried = 0
    for ci, in_types, memo, closes, _twin, _mirrored in state.roots:
        if state.in_cone[ci]:
            continue
        candidates = state.candidates(in_types)
        for index, (wiring, key) in enumerate(candidates):
            if closes and unconsumed.issubset(wiring):
                vid = memo.get(key)
                if vid is None:
                    vid = state.apply(ci, key)
                if vid == state.expected:
                    return (state.cone + [ci], state.wirings + [wiring]), tried + index + 1
        tried += len(candidates)
    return None, tried


def hit_kind(state, wiring) -> str:
    """Which closing wiring hit: over the columns (empty cone), ``(m,)``,
    ``(x, m)`` or ``(m, y)`` with a column or member partner, ``(a, b)``
    or ``(b, a)``."""
    if not state.cone:
        return "columns"
    m = ("comp", len(state.cone) - 1)
    if len(wiring) == 1:
        return "(m,)"
    if any(not n for n in state.consumers[:-1]):
        return "(a, b)" if wiring[1] == m else "(b, a)"
    if wiring[1] == m and wiring[0] != m:
        return f"(x, m) x {wiring[0][0]}"
    return f"(m, y) y {wiring[1][0]}"


@pytest.fixture
def checked_close(monkeypatch):
    """Wrap ``close`` with the reference; returns a Counter of the calls by
    number of unconsumed members and of the hits by ``hit_kind``."""
    close = internal._SearchState.close
    calls = Counter()

    def checked(state):
        unconsumed = sum(1 for n in state.consumers if not n)
        assert unconsumed <= 2 and (unconsumed == 0) == (not state.cone)
        before = state.budget.count
        want, nodes = reference_close(state)
        try:
            got = close(state)
        except Exhausted:
            assert before + nodes > state.budget.cap
            raise
        assert got == want
        assert state.budget.count - before == nodes
        calls[unconsumed] += 1
        if got is not None:
            calls["hit"] += 1
            calls[hit_kind(state, got[1][-1])] += 1
        return got

    monkeypatch.setattr(internal._SearchState, "close", checked)
    return calls


def test_close_matches_the_reference_on_the_digest_matrices(checked_close):
    for matrix in matrices():
        for level in range(MIN_LEVEL, MAX_LEVEL + 1):
            if solve_internal(encode(matrix, level), None, LADDER_CAP).status == SAT:
                break
    assert all(checked_close[key] for key in (0, 1, 2, "hit"))


def test_close_matches_the_reference_on_criterion_4_matrices(checked_close):
    rng = random.Random(20240817)
    solved = 0
    while solved < 20:
        matrix = deduplicate(_random_matrix(rng))
        if matrix.conflicting:
            continue
        solved += 1
        for level in (1, 2):
            solve_internal(encode(matrix, level), None, 100_000)
    assert all(checked_close[key] for key in (0, 1, 2, "hit"))


# (level, column types, rows): each ends in a different kind of hit.
DIRECTED = [
    (2, "bool", [((True,), False), ((False,), False)]),
    (3, "real", [((1.5,), False), ((-0.5,), True)]),
    (2, "bool bool bool", [((True, True, True), False), ((False, True, True), True),
                           ((True, True, False), True)]),
    (3, "int bool", [((2, False), False), ((8, False), True)]),
    (3, "real", [((3.25,), False), ((-2.5,), False), ((1.5,), True)]),
    (3, "real", [((-0.0,), False), ((3.25,), True), ((1e300,), False), ((1.5,), True)]),
    (3, "real", [((1e300,), True), ((-2.5,), False), ((3.25,), False), ((0.0,), False),
                 ((0.5,), False)]),
]


def test_every_kind_of_closing_wiring_hits(checked_close):
    for level, types, rows in DIRECTED:
        columns = [ColumnSpec(f"c{i}", t, "var", var=f"c{i}") for i, t in enumerate(types.split())]
        matrix = TraceMatrix(1, "condition", columns,
                             [TraceRow(f"t{r}", 0, inputs, exp) for r, (inputs, exp) in enumerate(rows)])
        assert solve_internal(encode(matrix, level), None, LADDER_CAP).status == SAT
    kinds = {"(m,)", "(x, m) x col", "(x, m) x comp", "(m, y) y col", "(m, y) y comp",
             "(a, b)", "(b, a)"}
    assert kinds <= set(checked_close)


def test_a_root_that_cannot_close_still_counts_its_wirings(checked_close):
    # ``==`` over two int columns strands ``!``: it never closes a cone,
    # and every wiring of it is still one node
    columns = [ColumnSpec(c, "int", "var", var=c) for c in "ab"]
    components = [Component("!", ("bool",), "bool"), Component("==", ("int", "int"), "bool")]
    for rows in ([((1, 1), True), ((1, 2), False), ((3, 3), True)],
                 [((1, 1), False), ((1, 2), True)]):
        matrix = TraceMatrix(1, "condition", columns,
                             [TraceRow(f"t{r}", 0, inputs, exp) for r, (inputs, exp) in enumerate(rows)])
        solve_internal(encode_with_components(matrix, components), None, LADDER_CAP)
    assert checked_close["hit"] == 1


def test_a_twin_whose_earlier_instance_is_in_the_cone_is_tried(checked_close):
    # a && b && c takes both ``&&`` instances: the first opens the cone as
    # a && b, and its twin, whose checks are skipped only while the first
    # is outside the cone, closes it
    columns = [ColumnSpec(c, "bool", "var", var=c) for c in "abc"]
    matrix = TraceMatrix(1, "condition", columns,
                         [TraceRow(f"t{r}", 0, bits, all(bits))
                          for r, bits in enumerate(product((False, True), repeat=3))])
    components = [Component("&&", ("bool", "bool"), "bool", instance) for instance in (0, 1)]
    problem = encode_with_components(matrix, components)
    result = solve_internal(problem, None, LADDER_CAP)
    assert (result.status, result.nodes) == (SAT, 32)
    assert to_source(decode(problem, result.model)) == "c && (a && b)"
    assert checked_close["hit"] == 1
