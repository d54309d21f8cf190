"""Differential test of the solver's last two cone positions.

``reference_close`` is the closing rule stated plainly: walk the full
root-wiring product of every bool root outside the cone, keep the wirings
of a root that can close a cone that take every unconsumed cone member,
and stop at the first whose vector is the expected one; every wiring
walked over is one node.
``_SearchState.close`` closes the cone over one candidate on the
next-to-last position without pushing it, and enumerates only the closing
wirings. Each of its calls is checked against the rule its search stated
plainly: push the candidate, test consumability (``reference_consumable``,
the rule by which every unconsumed member keeps a consumer),
``reference_close``, pop.
The candidate must be consumable with the same number of unconsumed
members, and the call must give the reference's hit (the cone, its
wirings as tuples of input ids, and the ids of the columns and members) or
``None`` with it, and the same node delta. ``close_empty``, the
one-member pass over the columns, is checked against ``reference_close``
too; when it misses, the atoms it hands to ``confounded`` must be those of
``reference_atoms``, the rule by which ``confounded`` once read the pass
from the memos. Over the solve-digest matrices (levels 1 to 4, climbing
until the first sat), 20 criterion-4 matrices (levels 1 and 2) and every
function of two bool columns (level 2) the calls find zero, one and two
unconsumed members. A few small matrices make each kind of closing wiring
the hit, and one makes it a root whose twin (the earlier instance of its
operator) is the candidate. The references read a negative memo entry,
a root's miss marker, as no entry, and compute the vector. ``matches``,
the row comparison by which ``close`` settles a root wiring with no memo
entry, must agree with ``apply`` against the expected id for every
component form with a bool output.
"""
import random
from collections import Counter
from itertools import product

import pytest

from condfix.budget import Budget, Exhausted
from condfix.synth import (
    MAX_LEVEL, MIN_LEVEL, SAT, UNSAT, Component, decode, encode, encode_with_components, internal,
    solve_internal, to_source,
)
from condfix.trace import ColumnSpec, TraceMatrix, TraceRow, deduplicate
from test_acceptance import _random_matrix
from test_solve_digest import LADDER_CAP, bool_functions, matrices
from test_synth import BOOL_OPERANDS, INT_OPERANDS, REAL_OPERANDS, operator_cases


def wirings(state, in_types):
    """Every wiring of ports typed ``in_types``, the tuple of its input
    ids, in product order."""
    return list(product(*[state.refs[t] for t in in_types]))


def unconsumed_ids(state):
    """The ids of the cone members that no wiring holds."""
    return set(state.members).difference(*state.wirings)


def reference_consumable(state, k: int) -> bool:
    """Whether the cone's unconsumed members can all be consumed by the
    ``k - len(cone)`` picks left: a component outside the cone takes each
    one's type, and they number at most the ports of as many components
    outside the cone, those with the most ports."""
    outside = [record for record in state.records if not state.in_cone[record[0]]]
    pending = [state.records[ci][1] for ci, vid in zip(state.cone, state.members)
               if not any(vid in wiring for wiring in state.wirings)]
    if not all(any(t in record[2] for record in outside) for t in pending):
        return False
    ports = sorted((len(record[2]) for record in outside), reverse=True)
    return len(pending) <= sum(ports[:k - len(state.cone)])


def reference_close(state):
    """(hit, nodes) of the product-and-filter rule; the budget is left alone."""
    unconsumed = unconsumed_ids(state)
    tried = 0
    for ci, _out, in_types, memo, _twin, _mirrored, closes in state.roots:
        if state.in_cone[ci]:
            continue
        candidates = wirings(state, in_types)
        for index, wiring in enumerate(candidates):
            if closes and unconsumed.issubset(wiring):
                vid = memo.get(wiring)
                if vid is None or vid < 0:  # a root's miss is no id
                    vid = state.apply(ci, wiring)
                if vid == state.expected:
                    hit = (state.cone + [ci], state.wirings + [wiring], state.columns,
                           state.members + [vid])
                    return hit, tried + index + 1
        tried += len(candidates)
    return None, tried


def reference_atoms(state):
    """What a one-member pass that missed hands to ``confounded``, by the
    rule it replaced: the ids of the bool columns and the memo entry of
    every column wiring of each root that can close a cone and has no
    earlier twin."""
    atoms = set(state.refs["bool"])
    for _ci, _out, in_types, memo, twin, _mirrored, closes in state.roots:
        if closes and twin is None:
            atoms.update(memo[key] for key in wirings(state, in_types))
    return atoms


def hit_kind(columns, m: int, a, wiring) -> str:
    """Which closing wiring hit: ``(m,)``, ``(x, m)`` or ``(m, y)`` with a
    column or member partner when only the candidate ``m`` (its id) is
    unconsumed, ``(a, m)`` or ``(m, a)`` when the earlier member ``a`` is
    unconsumed too. A partner whose id is among the ids of the columns
    ``columns`` is a column."""
    def kind(vid):
        return "col" if vid in columns else "comp"

    if len(wiring) == 1:
        return "(m,)"
    if a is not None:
        return "(a, m)" if wiring[1] == m else "(m, a)"
    if wiring[1] == m and wiring[0] != m:
        return f"(x, m) x {kind(wiring[0])}"
    return f"(m, y) y {kind(wiring[1])}"


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

    def checked(state, total, checks, ci, wiring, vid):
        size = len(state.cone)
        state.push(ci, wiring, vid)
        consumable = reference_consumable(state, size + 2)
        unconsumed = unconsumed_ids(state)
        want, nodes = reference_close(state)
        state.pop()
        assert consumable and vid in unconsumed and len(unconsumed) <= 2
        got = compare(state, lambda: close(state, total, checks, ci, wiring, vid), want, nodes)
        calls[len(unconsumed)] += 1
        if got is not None:
            a = next(iter(unconsumed - {vid}), None)
            calls[hit_kind(state.columns, vid, a, got[1][-1])] += 1
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


def test_the_row_comparison_agrees_with_applying():
    # ``close`` settles a root wiring with no memo entry by ``matches``,
    # which compares rows only up to the first that differs; its verdict
    # must be ``apply(...) == expected`` for every component form with a
    # bool output, over int, real (NaN and the infinities among them) and
    # bool columns, and on zero rows, where every vector is the expected
    # one. Each expected vector is one form's vector over two columns with
    # at most one row flipped, so that both verdicts occur at every height
    # and a miss may differ on any row, the last one included.
    forms = [(tag, t) for tag, t, out in operator_cases() if out == "bool"]
    operands = {"int": INT_OPERANDS, "bool": BOOL_OPERANDS,
                "real": REAL_OPERANDS + (float("inf"), float("-inf"))}
    types = ("int", "int", "real", "real", "bool", "bool")
    columns = [ColumnSpec(f"c{i}", t, "var", var=f"c{i}") for i, t in enumerate(types)]
    components = [Component(tag, (t,) if tag == "!" else (t, t), "bool") for tag, t in forms]
    rng = random.Random(47)
    verdicts = Counter()
    for height in (0, 1, 2, 3, 5, 8):
        for _ in range(12):
            inputs = [tuple(rng.choice(operands[t]) for t in types) for _ in range(height)]
            tag, t = rng.choice(forms)
            ports = [i for i, ct in enumerate(types) if ct == t][:1 if tag == "!" else 2]
            fn = Component(tag, (t,) * len(ports), "bool").entry.fn
            outcomes = [bool(fn(*[values[i] for i in ports])) for values in inputs]
            if height and rng.random() < 0.5:
                flip = rng.randrange(height)
                outcomes[flip] = not outcomes[flip]
            rows = [TraceRow(f"t{r}", 0, values, exp)
                    for r, (values, exp) in enumerate(zip(inputs, outcomes))]
            problem = encode_with_components(TraceMatrix(1, "condition", columns, rows), components)
            state = internal._SearchState(problem, internal._closers(problem), Budget(1))
            for ci, form in enumerate(forms):
                for key in wirings(state, state.records[ci][2]):
                    verdict = state.matches(ci, key)
                    assert verdict == (state.apply(ci, key) == state.expected), (form, key, rows)
                    verdicts[height > 0, verdict] += 1
    assert verdicts.keys() == {(False, True), (True, True), (True, False)}
