"""Golden digest of built-in solver runs over seeded random matrices.

Seeded random trace matrices (widths 1 to 6, 2 to 20 rows, int, bool and
real columns, including values that make int arithmetic wrap and real
arithmetic reach inf and nan) climb the synthesis ladder at a 10k-node
cap until the first sat, as the pipeline does; a few more solves run at a
100k-node cap. Every function of two bool columns is solved at level 4 at
both caps: xor closes a four-member cone after 9,951 nodes, and xnor runs
out at the 10k cap and is sat after 10,027, while every level-4 solve of
the random matrices runs out or closes a cone of at most two members.
Each solve records its status, its node count and a sha256 of its sorted
model. Any change to the search order, its pruning or the
node accounting shows up here as a changed entry. Over the same climbs four
more tests pin the search's work per node: how many value vectors it
computes, how many candidates it walks into the cone, how many
candidates of the next-to-last position reach a root check and how many
root wirings of the last position it compares with the expected vector
row by row.

Regenerate ``tests/data/solve_digest.json`` (only when a change of search
behaviour is intended) with:

    PYTHONPATH=src python tests/test_solve_digest.py --write

which also prints each solve's old -> new status, nodes and model hash as
``matrix/level/cap``, starring the entries that moved. A failing test lists
the moved entries in the same form.
"""
import hashlib
import json
import random
import sys
from itertools import product
from pathlib import Path

import pytest

from condfix.budget import Budget
from condfix.minilang.values import INT_MAX, INT_MIN
from condfix.synth import MAX_LEVEL, MIN_LEVEL, SAT, encode, internal, solve_internal
from condfix.trace import ColumnSpec, TraceMatrix, TraceRow, deduplicate

DIGEST_PATH = Path(__file__).parent / "data" / "solve_digest.json"
SEED = 20261018
LADDER_CAP, DEEP_CAP = 10_000, 100_000
INT_VALUES = list(range(-8, 9)) + [INT_MIN, INT_MAX, 2**32]
REAL_VALUES = [-2.5, -0.5, -0.0, 0.0, 0.5, 1.5, 3.25, 1e300]


def _random_matrix(rng: random.Random, width: int, height: int) -> TraceMatrix:
    columns = [
        ColumnSpec(f"c{i}", rng.choices(["int", "bool", "real"], [6, 3, 1])[0], "var", var=f"c{i}")
        for i in range(width)
    ]
    rows = []
    for r in range(height):
        inputs = []
        for col in columns:
            if col.type == "int":
                inputs.append(rng.choice(INT_VALUES))
            elif col.type == "real":
                inputs.append(rng.choice(REAL_VALUES))
            else:
                inputs.append(rng.random() < 0.5)
        rows.append(TraceRow(f"t{r}", 0, tuple(inputs), rng.random() < 0.5))
    return TraceMatrix(1, "condition", columns, rows)


def matrices():
    """Three non-conflicting matrices per (width, row band)."""
    rng = random.Random(SEED)
    bands = ((2, 4), (5, 8), (9, 13), (14, 20))
    out = []
    for width in range(1, 7):
        for band in bands:
            for _ in range(3):
                while True:
                    m = deduplicate(_random_matrix(rng, width, rng.randint(*band)))
                    if not m.conflicting:
                        break
                out.append(m)
    return out


def bool_functions():
    """(name, matrix) for each function of two bool columns ``a`` and
    ``b``, named by its outcomes on the rows ``ff``, ``ft``, ``tf`` and
    ``tt`` (xor is ``bools-0110``)."""
    columns = [ColumnSpec(c, "bool", "var", var=c) for c in "ab"]
    inputs = list(product((False, True), repeat=2))
    for outcomes in product((False, True), repeat=len(inputs)):
        rows = [TraceRow(f"t{r}", 0, bits, exp)
                for r, (bits, exp) in enumerate(zip(inputs, outcomes))]
        name = "bools-" + "".join(str(int(exp)) for exp in outcomes)
        yield name, TraceMatrix(1, "condition", columns, rows)


def _entry(index, level: int, cap: int, result) -> dict:
    model = None if result.model is None else sorted(result.model.items())
    return {
        "matrix": index,
        "level": level,
        "max_nodes": cap,
        "status": result.status,
        "nodes": result.nodes,
        "model_sha256": hashlib.sha256(json.dumps(model).encode()).hexdigest(),
    }


def compute_digest() -> list:
    solves = []
    pool = matrices()
    for index, m in enumerate(pool):
        for level in range(MIN_LEVEL, MAX_LEVEL + 1):
            result = solve_internal(encode(m, level), None, LADDER_CAP)
            solves.append(_entry(index, level, LADDER_CAP, result))
            if result.status == SAT:
                break
    for index in range(0, len(pool), 6):
        for level in (2, 3):
            result = solve_internal(encode(pool[index], level), None, DEEP_CAP)
            solves.append(_entry(index, level, DEEP_CAP, result))
    for name, m in bool_functions():
        for cap in (LADDER_CAP, DEEP_CAP):
            solves.append(_entry(name, MAX_LEVEL, cap, solve_internal(encode(m, MAX_LEVEL), None, cap)))
    return solves


def _summary(entry) -> str:
    if entry is None:
        return "-"
    return f"{entry['status']} {entry['nodes']} {entry['model_sha256'][:12]}"


def _comparison(old: list, new: list):
    """(line, changed) per solve of either digest, in the new digest's
    order; each line shows the solve's old -> new ``_summary``, starred
    when the entry moved."""
    def by_key(entries):
        return {(e["matrix"], e["level"], e["max_nodes"]): e for e in entries}

    before, after = by_key(old), by_key(new)
    for key in [*after, *(k for k in before if k not in after)]:
        old_entry, new_entry = before.get(key), after.get(key)
        changed = old_entry != new_entry
        mark = "  *" if changed else ""
        matrix, level, cap = key
        yield f"{matrix}/{level}/{cap}: {_summary(old_entry)} -> {_summary(new_entry)}{mark}", changed


# ``_SearchState.apply`` calls, one per vector computed, over the ladder
# climbs of ``matrices()``. The nodes of a solve are pinned above; this pins
# the work done per node. It was 63,878 before the two instances of an
# operator shared one memo and the checks of twin and mirrored root
# wirings were skipped, 38,390 before the cone positions before the last
# counted, without walking, the subtrees of a twin and of a mirrored
# wiring, 37,663 before the rungs of a climb shared one matrix's vector
# table, and 22,014 before a last-position root wiring with no memo entry
# was settled by comparing rows, with only a hit computed.
APPLY_CALLS = 3_752
# ``_SearchState.push`` calls, one per candidate walked into the cone, over
# the same climbs. It was 20,629 before those subtrees were counted without
# walking them, and 15,171 before a candidate of the next-to-last position
# closed the cone without being walked into it.
PUSH_CALLS = 744
# ``_SearchState.close`` calls, one per candidate of the next-to-last
# position that passes the consumability test and has a closing wiring to
# check, over the same climbs. It was 13,514 before a candidate with none
# counted its plan's root wirings without a call.
CLOSE_CALLS = 9_607
# ``_SearchState.matches`` calls, one per last-position root wiring with no
# memo entry, compared with the expected vector row by row, over the same
# climbs.
MATCH_CALLS = 19_469


def _calls_over_climbs(monkeypatch, name: str) -> int:
    """Calls of ``_SearchState.<name>`` over the ladder climbs."""
    calls = 0
    method = getattr(internal._SearchState, name)

    def counted(*args):
        nonlocal calls
        calls += 1
        return method(*args)

    monkeypatch.setattr(internal._SearchState, name, counted)
    for m in matrices():
        for level in range(MIN_LEVEL, MAX_LEVEL + 1):
            if solve_internal(encode(m, level), None, LADDER_CAP).status == SAT:
                break
    return calls


def test_vector_computations_match_the_pinned_count(monkeypatch):
    assert _calls_over_climbs(monkeypatch, "apply") == APPLY_CALLS


def test_walked_candidates_match_the_pinned_count(monkeypatch):
    assert _calls_over_climbs(monkeypatch, "push") == PUSH_CALLS


def test_closed_candidates_match_the_pinned_count(monkeypatch):
    assert _calls_over_climbs(monkeypatch, "close") == CLOSE_CALLS


def test_row_comparisons_match_the_pinned_count(monkeypatch):
    assert _calls_over_climbs(monkeypatch, "matches") == MATCH_CALLS


def test_each_operator_semantics_has_one_memo():
    # at level 4 the two instances of an operator share a memo; a tag over
    # other input types (``<`` over ints and over reals) does not
    columns = [ColumnSpec(f"c{i}", t, "var", var=f"c{i}") for i, t in enumerate(("int", "real", "bool"))]
    problem = encode(TraceMatrix(1, "condition", columns,
                                 [TraceRow("t0", 0, (1, 0.5, True), True)]), MAX_LEVEL)
    state = internal._SearchState(problem, internal._closers(problem), Budget(LADDER_CAP))
    components = problem.components
    semantics = {(c.tag, c.in_types) for c in components}
    assert len(components) == 2 * len(semantics)
    for i, a in enumerate(components):
        for j, b in enumerate(components):
            same = (a.tag, a.in_types) == (b.tag, b.in_types)
            assert (state.records[i][3] is state.records[j][3]) == same, (a, b)


def test_solves_match_the_golden_digest():
    expected = json.loads(DIGEST_PATH.read_text())
    actual = compute_digest()
    moved = [line for line, changed in _comparison(expected, actual) if changed]
    if moved:
        pytest.fail("moved digest entries (old -> new):\n" + "\n".join(moved), pytrace=False)
    assert actual == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_solve_digest.py --write")
    old = json.loads(DIGEST_PATH.read_text()) if DIGEST_PATH.exists() else []
    new = compute_digest()
    for line, _ in _comparison(old, new):
        print(line)
    lines = ",\n".join("  " + json.dumps(e, sort_keys=True) for e in new)
    DIGEST_PATH.write_text("[\n" + lines + "\n]\n")
