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
"""
import random
import sys
import threading
from dataclasses import replace

from condfix.budget import Budget
from condfix.synth import (
    MAX_LEVEL, MIN_LEVEL, TIMEOUT, SynthesisProblem, encode, internal, solve_internal,
)
from condfix.trace import deduplicate
from test_acceptance import _random_matrix
from test_solve_digest import LADDER_CAP, matrices

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
