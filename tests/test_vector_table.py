"""The solver's vector table, one per trace matrix.

Every problem ``encode`` builds from a matrix holds the matrix's
``VectorTable``, so the rungs of a ladder climb share their interned
vectors and operator memos. An id names a vector's contents only, so a
rung must give the same status, node count and model whatever the table
already holds: here each matrix climbs levels 4 to 1 and then 1 to 4
twice on one table, and every solve must match the same rung solved on a
fresh copy of the matrix. ``confounded`` must read only the atoms that
its own solve's one-member pass hands over; one that read every bool
vector of the table would see the deeper rungs' vectors after a descent. Four threads climbing
one matrix at once must get the lone results too: a solve holds the
table's lock.

A root wiring that misses on the last cone position is memoized as a
marker, ``~e`` for the expected id ``e``, not as an id. Every marker of a
climb must name its matrix's expected vector and hold a member's id; a
later rung that walks a marked wiring as a candidate member must compute
it; and a problem over other rows on the same table, whose expected
vector differs, must read another's markers as no entry, in the
last-position check and in the one-member pass alike.

A solve holds nothing sized to the table: its ``seen`` set starts as its
column ids on every rung of a climb, and after an unsat rung, with the
cone empty, it is those ids again.
"""
import random
import sys
import threading
from dataclasses import replace

from condfix.budget import Budget
from condfix.synth import (
    MAX_LEVEL, MIN_LEVEL, SAT, TIMEOUT, UNSAT, Component, SynthesisProblem, decode, encode,
    encode_with_components, internal, solve_internal, to_source,
)
from condfix.trace import ColumnSpec, TraceMatrix, TraceRow, VectorTable, deduplicate
from test_acceptance import _random_matrix
from test_solve_digest import DEEP_CAP, LADDER_CAP, matrices

LEVELS = range(MIN_LEVEL, MAX_LEVEL + 1)
# Levels 4 to 1, then 1 to 4 twice.
ORDER = [*reversed(LEVELS), *LEVELS, *LEVELS]


def outcome(result):
    return result.status, result.nodes, result.model


def lone(matrix, level: int):
    """The rung's outcome on a fresh copy of ``matrix``, whose table is
    empty."""
    return outcome(solve_internal(encode(replace(matrix), level), None, LADDER_CAP))


def criterion_4_matrices(count: int):
    rng = random.Random(20240817)
    out = []
    while len(out) < count:
        matrix = deduplicate(_random_matrix(rng))
        if not matrix.conflicting:
            out.append(matrix)
    return out


def test_a_copy_starts_a_fresh_table_and_every_rung_shares_the_matrixs():
    matrix = matrices()[0]
    assert encode(matrix, 1).vector_table is matrix.vector_table
    assert encode(matrix, 4).vector_table is matrix.vector_table
    assert replace(matrix).vector_table is not matrix.vector_table
    assert deduplicate(matrix).vector_table is not matrix.vector_table
    problem = encode(matrix, 2)
    built = SynthesisProblem(problem.columns, problem.rows, problem.components)
    assert built.vector_table is not matrix.vector_table


def test_two_matrices_at_one_level_share_no_memo_and_no_vector_id():
    # both rungs hold the same components, built once per process; every
    # memo, vector and id a solve reads or writes is its own matrix's
    pool = [m for m in matrices() if {c.type for c in m.columns} == {"int", "real"}]
    first, second = replace(pool[0]), replace(pool[1])
    for level in LEVELS:
        problems = [encode(matrix, level) for matrix in (first, second)]
        assert all(a is b for a, b in zip(*(problem.components for problem in problems)))
        states = []
        for matrix, problem in zip((first, second), problems):
            table = matrix.vector_table
            solve_internal(problem, None, LADDER_CAP)
            state = internal._SearchState(problem, internal._closers(problem), Budget(LADDER_CAP))
            assert state.ids is table.ids and state.vectors is table.vectors
            assert all(memo is table.memos[c.tag, c.in_types]
                       for (_, _, _, memo, _, _, _), c in zip(state.records, problem.components))
            states.append(state)
        a, b = states
        assert a.vectors is not b.vectors and a.ids is not b.ids
        assert not {id(record[3]) for record in a.records} & {id(record[3]) for record in b.records}
    assert first.vector_table.vectors and second.vector_table.vectors
    # an id names a place in its own table only: solving one matrix adds
    # nothing to another's
    third = replace(pool[2])
    solve_internal(encode(first, MAX_LEVEL), None, LADDER_CAP)
    assert not third.vector_table.vectors and not third.vector_table.memos


def test_a_climb_in_any_order_gives_every_rung_its_lone_outcome():
    pool = matrices() + criterion_4_matrices(20)
    for index, matrix in enumerate(pool):
        want = {level: lone(matrix, level) for level in LEVELS}
        shared = replace(matrix)
        for step, level in enumerate(ORDER):
            got = outcome(solve_internal(encode(shared, level), None, LADDER_CAP))
            assert got == want[level], (index, step, level)
        assert shared.vector_table.vectors


def test_threads_climbing_one_matrix_get_the_lone_outcomes():
    # the digest matrices whose rungs time out from level 2 on, with the
    # interpreter switching threads as often as it can
    climbs = [(matrix, [lone(matrix, level) for level in LEVELS]) for matrix in matrices()]
    pool = [(matrix, outcomes) for matrix, outcomes in climbs if outcomes[1][0] == TIMEOUT]
    assert len(pool) == 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for matrix, expected in pool:
            shared, got = replace(matrix), {}

            def climb(name):
                got[name] = [outcome(solve_internal(encode(shared, level), None, LADDER_CAP))
                             for level in LEVELS]

            threads = [threading.Thread(target=climb, args=(name,)) for name in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == dict.fromkeys(range(4), expected)
    finally:
        sys.setswitchinterval(interval)


def test_seen_is_the_column_ids_at_the_start_and_after_every_unsat_solve(monkeypatch):
    # a solve's own state is its cone and ``seen``, the ids of its columns
    # and cone members, whatever the shared table holds: on each digest
    # climb a rung starts with ``seen`` the column ids (level 4 on a table
    # that already holds the earlier rungs' vectors too), and an unsat
    # rung ends with the cone empty and ``seen`` the column ids again
    init = internal._SearchState.__init__
    states = []

    def recording(state, problem, closers, budget):
        init(state, problem, closers, budget)
        assert state.seen == set(state.columns) and not state.cone
        states.append((state, len(state.vectors)))

    monkeypatch.setattr(internal._SearchState, "__init__", recording)
    unsat = warm = 0
    for index, matrix in enumerate(matrices()):
        shared = replace(matrix)
        for level in LEVELS:
            states.clear()
            status = solve_internal(encode(shared, level), None, LADDER_CAP).status
            for state, size in states:
                warm += level == MAX_LEVEL and size > len(state.seen)
                if status == UNSAT:
                    assert not state.cone and state.seen == set(state.columns), (index, level)
                    unsat += 1
            if status == SAT:
                break
    assert unsat and warm


def test_every_marker_names_the_expected_vector_and_holds_a_member():
    # a marker's key holds the id of the cone's next-to-last member, which
    # is no column's, so the one-member pass, whose keys hold column ids
    # alone, meets none
    markers = 0
    for index, matrix in enumerate(matrices()):
        shared = replace(matrix)
        for level in LEVELS:
            solve_internal(encode(shared, level), None, LADDER_CAP)
        table = shared.vector_table
        columns = {table.ids[c.type][tuple(row.inputs[i] for row in shared.rows)]
                   for i, c in enumerate(shared.columns)}
        expected = table.ids["bool"][tuple(row.expected for row in shared.rows)]
        for memo in table.memos.values():
            for key, vid in memo.items():
                if vid < 0:
                    markers += 1
                    assert vid == ~expected and not columns.issuperset(key), (index, key)
    assert markers


def test_a_marked_wiring_walked_as_a_candidate_member_is_computed(monkeypatch):
    # level 3 times out, marking root wirings that missed on its last
    # position; level 4 on the same table walks one of them as a candidate
    # of an earlier position, where a marker is no id, before its hit
    columns = [ColumnSpec("b", "bool", "var", var="b"), ColumnSpec("n", "int", "var", var="n")]
    matrix = TraceMatrix(1, "condition", columns, [
        TraceRow("t0", 0, (True, 3), True), TraceRow("t1", 0, (False, -2), True),
        TraceRow("t2", 0, (False, -1), False)])
    apply = internal._SearchState.apply
    walked = []

    def recording(state, ci, key):
        if state.records[ci][3].get(key, 0) < 0:
            walked.append(key)
        return apply(state, ci, key)

    want = [lone(matrix, 3),
            outcome(solve_internal(encode(replace(matrix), MAX_LEVEL), None, DEEP_CAP))]
    got = [outcome(solve_internal(encode(matrix, 3), None, LADDER_CAP))]
    with monkeypatch.context() as patched:
        patched.setattr(internal._SearchState, "apply", recording)
        got.append(outcome(solve_internal(encode(matrix, MAX_LEVEL), None, DEEP_CAP)))
    assert got == want
    assert [status for status, _, _ in got] == [TIMEOUT, SAT] and len(walked) == 1


def test_a_problem_over_other_rows_reads_the_markers_as_no_entry():
    # ``c0 < c0 + c0`` misses (t, f, t) on c0 = 1, 2, 3, so that solve marks
    # the wiring; on its table, it is the last-position hit of the same
    # inputs expecting (t, t, t), and with a column holding c0 + c0 the
    # one-member pass's hit
    components = [Component("<", ("int", "int"), "bool"), Component("+", ("int", "int"), "int")]
    columns = [ColumnSpec(c, "int", "var", var=c) for c in ("c0", "c1")]
    matrix = TraceMatrix(1, "condition", columns[:1],
                         [TraceRow(f"t{v}", 0, (v,), v != 2) for v in (1, 2, 3)])
    for case in ("same inputs", "wider"):
        first = encode_with_components(replace(matrix), components)
        assert solve_internal(first, None, LADDER_CAP).status == UNSAT
        table = first.vector_table
        x, v = table.ids["int"][1, 2, 3], table.ids["int"][2, 4, 6]
        assert table.memos["<", ("int", "int")][x, v] < 0
        if case == "same inputs":
            problem = replace(first, rows=[(values, True) for values, _ in first.rows])
            source = "c0 < c0 + c0"
        else:
            problem = SynthesisProblem(columns, [((c0, c0 + c0), True) for c0 in (1, 2, 3)],
                                       components, vector_table=table)
            source = "c0 < c1"
        assert problem.vector_table is table
        result = solve_internal(problem, None, LADDER_CAP)
        assert outcome(result) == outcome(solve_internal(
            replace(problem, vector_table=VectorTable()), None, LADDER_CAP)), case
        assert result.status == SAT and to_source(decode(problem, result.model)) == source
