"""Differential test of the solver's last two cone positions.

``reference_close`` is the closing rule stated plainly: walk the full
root-wiring product of every bool root outside the cone, keep the wirings
of a root that can close a cone that take every unconsumed cone member,
and stop at the first whose vector is the expected one; every wiring
walked over is one node.
``_SearchState.close`` closes the cone over one candidate on the
next-to-last position without pushing it, and enumerates only the closing
wirings. Each of its calls is checked against the rule its search stated
plainly: push the candidate, test consumability, ``reference_close``, pop.
The candidate must be consumable with the same number of unconsumed
members, and the call must give the reference's hit (cone and wiring) or
``None`` with it, and the same node delta. ``close_empty``, the
one-member pass over the columns, is checked against ``reference_close``
too; when it misses, the atoms it hands to ``confounded`` must be those of
``reference_atoms``, the rule by which ``confounded`` once read the pass
from the memos. Over the solve-digest matrices (levels 1 to 4, climbing
until the first sat), 20 criterion-4 matrices (levels 1 and 2) and every
function of two bool columns (level 2) the calls find zero, one and two
unconsumed members. A few small matrices make each kind of closing wiring
the hit, and one makes it a root whose twin (the earlier instance of its
operator) is the candidate.
"""
import random
from collections import Counter
from itertools import product

import pytest

from condfix.budget import Exhausted
from condfix.synth import (
    MAX_LEVEL, MIN_LEVEL, SAT, UNSAT, Component, decode, encode, encode_with_components, internal,
    solve_internal, to_source,
)
from condfix.trace import ColumnSpec, TraceMatrix, TraceRow, deduplicate
from test_acceptance import _random_matrix
from test_solve_digest import LADDER_CAP, bool_functions, matrices


def wirings(state, in_types):
    """Every (wiring, input ids) of ports typed ``in_types``, in product
    order."""
    return list(zip(product(*[state.refs[t] for t in in_types]),
                    product(*[state.ref_ids[t] for t in in_types])))


def reference_close(state):
    """(hit, nodes) of the product-and-filter rule; the budget is left alone."""
    unconsumed = {("comp", pos) for pos, n in enumerate(state.consumers) if not n}
    tried = 0
    for ci, in_types, memo, closes, _twin, _mirrored in state.roots:
        if state.in_cone[ci]:
            continue
        candidates = wirings(state, in_types)
        for index, (wiring, key) in enumerate(candidates):
            if closes and unconsumed.issubset(wiring):
                vid = memo.get(key)
                if vid is None:
                    vid = state.apply(ci, key)
                if vid == state.expected:
                    return (state.cone + [ci], state.wirings + [wiring]), tried + index + 1
        tried += len(candidates)
    return None, tried


def reference_atoms(state):
    """What a one-member pass that missed hands to ``confounded``, by the
    rule it replaced: the ids of the bool columns and the memo entry of
    every column wiring of each root that can close a cone and has no
    earlier twin."""
    atoms = set(state.ref_ids["bool"])
    for _ci, in_types, memo, closes, twin, _mirrored in state.roots:
        if closes and twin is None:
            atoms.update(memo[key] for _, key in wirings(state, in_types))
    return atoms


def hit_kind(cone_size: int, a, wiring) -> str:
    """Which closing wiring hit: ``(m,)``, ``(x, m)`` or ``(m, y)`` with a
    column or member partner when only the candidate ``m`` is unconsumed,
    ``(a, m)`` or ``(m, a)`` when the earlier member ``a`` is unconsumed
    too."""
    m = ("comp", cone_size)
    if len(wiring) == 1:
        return "(m,)"
    if a is not None:
        return "(a, m)" if wiring[1] == m else "(m, a)"
    if wiring[1] == m and wiring[0] != m:
        return f"(x, m) x {wiring[0][0]}"
    return f"(m, y) y {wiring[1][0]}"


@pytest.fixture
def checked_close(monkeypatch):
    """Check ``close_empty`` and ``close`` against the reference; returns a
    Counter of the calls by number of unconsumed members and of the hits by
    kind."""
    close_empty, close = internal._SearchState.close_empty, internal._SearchState.close
    calls = Counter()

    def compare(state, closing, want, nodes):
        before = state.budget.count
        try:
            got = closing()
        except Exhausted:
            assert before + nodes > state.budget.cap
            raise
        assert got == want
        assert state.budget.count - before == nodes
        if got is not None:
            calls["hit"] += 1
        return got

    def checked_empty(state):
        assert not state.cone
        want, nodes = reference_close(state)
        atoms = None

        def closing():
            nonlocal atoms
            hit, atoms = close_empty(state)
            return hit

        hit = compare(state, closing, want, nodes)
        calls[0] += 1
        if hit is not None:
            calls["columns"] += 1
            assert atoms is None
        else:
            assert atoms == reference_atoms(state)
            calls["atoms"] += 1
        return hit, atoms

    def checked(state, plan, ci, wiring, vid, a):
        size = len(state.cone)
        state.push(ci, wiring, vid)
        consumable = state.consumable(size + 2)
        unconsumed = sum(1 for n in state.consumers if not n)
        want, nodes = reference_close(state)
        state.pop()
        assert consumable and unconsumed == 1 + (a is not None)
        got = compare(state, lambda: close(state, plan, ci, wiring, vid, a), want, nodes)
        calls[unconsumed] += 1
        if got is not None:
            calls[hit_kind(size, a, got[1][-1])] += 1
        return got

    monkeypatch.setattr(internal._SearchState, "close_empty", checked_empty)
    monkeypatch.setattr(internal._SearchState, "close", checked)
    return calls


def test_close_matches_the_reference_on_the_digest_matrices(checked_close):
    for matrix in matrices():
        for level in range(MIN_LEVEL, MAX_LEVEL + 1):
            if solve_internal(encode(matrix, level), None, LADDER_CAP).status == SAT:
                break
    assert all(checked_close[key] for key in (0, 1, 2, "hit", "atoms"))


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
    assert all(checked_close[key] for key in (0, 1, 2, "hit", "atoms"))


def test_close_matches_the_reference_on_every_function_of_two_bools(checked_close):
    # level 2 over two bool columns has one each of ``&&``, ``||`` and
    # ``!``: xor and xnor are unsat after every three-member cone, among
    # them each ``&&`` and ``||`` that leave one another unconsumed with
    # only ``!`` left to take them, which no root check may follow
    statuses = Counter()
    for _name, matrix in bool_functions():
        statuses[solve_internal(encode(matrix, 2), None, LADDER_CAP).status] += 1
    assert statuses == {SAT: 14, UNSAT: 2}
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
    # c0 - c0 <= c0: (m, y) hits before (m, m), which hits too, as NaN <= NaN
    # is false; the (x, m) scan must stop short of m's own ref
    (3, "real", [((2.5,), True), ((float("-inf"),), False), ((-0.0,), True)]),
]


def test_every_kind_of_closing_wiring_hits(checked_close):
    for level, types, rows in DIRECTED:
        columns = [ColumnSpec(f"c{i}", t, "var", var=f"c{i}") for i, t in enumerate(types.split())]
        matrix = TraceMatrix(1, "condition", columns,
                             [TraceRow(f"t{r}", 0, inputs, exp) for r, (inputs, exp) in enumerate(rows)])
        assert solve_internal(encode(matrix, level), None, LADDER_CAP).status == SAT
    kinds = {"(m,)", "(x, m) x col", "(x, m) x comp", "(m, y) y col", "(m, y) y comp",
             "(a, m)", "(m, a)"}
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
    # a && b on the next-to-last position, and its twin, whose checks are
    # skipped only while the first is outside the cone, closes it
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
