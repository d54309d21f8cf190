"""Runtime trace collection for patch synthesis.

For a chosen location the whole suite is re-run on the program with
that statement probed (``patching.probe``). Each snapshot the probe
takes holds the values of the constants and the frame there; from them
this module derives one row of candidate inputs (in-scope primitives, the
literal constants 0, -1, 1, nullness of in-scope objects, and state-query
results from ``registry.QUERIES``) paired with the expected outcome of
the condition or precondition at that point.

Expected outcomes: for a condition repair, passing tests contribute the
value the condition gave at each hit, which the snapshot stores, and
failing tests contribute their angelic value (collected from the probed
program with the condition forced to it, ``patching.decide``); a hit
whose condition ended the run gave no value and contributes no row. For
a precondition repair, passing tests contribute true and failing tests
false, one row per test taken at the first hit.

Columns: a cell is undefined where its binding holds a value of another
type than it declares (only parameters are type-checked, so a ``let``
may bind any value), or where a state query's receiver is not an object.
A column undefined in any row is dropped from the entire matrix; no row
is. So a receiver null in some row loses its queries, not its nullness.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .angelic import CONDITION, AngelicTuple, check_candidate
from .minilang import (
    DEFAULT_STEP_BUDGET, QUERIES, Program, Value, decide, execute, format_value, probe,
)
from .minilang.values import PRIMITIVE_TYPES, Null, Obj, matches_declared
from .testkit import TestCase, verdict_holds

STANDARD_CONSTANTS = (0, -1, 1)


@dataclass(frozen=True)
class ColumnSpec:
    """One synthesis input: its display name, SMT-level type, and the recipe
    for rebuilding it as a MiniLang expression inside a patch."""

    name: str
    type: str  # bool | int | real
    kind: str  # var | const | nullcheck | query
    var: Optional[str] = None
    const: Optional[int] = None
    method: Optional[str] = None


@dataclass(frozen=True)
class TraceRow:
    test: str
    eval_index: int
    inputs: Tuple[Value, ...]
    expected: bool


class VectorTable:
    """Interned value vectors and operator memos for the built-in solver
    (see ``synth.internal``): each distinct ``(type, vector)`` has one id,
    and each operator semantics maps the ids of its inputs to the id of its
    output, or to a miss marker: ``~e``, no id, for a bool output that the
    solver found to differ from the vector of id ``e`` without computing
    it. A reader that wants the output takes a marker for no entry. Both
    depend on vector contents alone, so every solve may share one table; a
    solve holds ``lock`` while it reads or writes the rest. No solve holds
    anything sized to the table: its own state, the cone and the set of
    the ids its columns and cone members hold, grows with the cone alone."""

    __slots__ = ("lock", "ids", "vectors", "memos")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ids: Dict[str, Dict[Tuple, int]] = {}  # by type: vector -> id
        self.vectors: List[Tuple] = []  # by id
        self.memos: Dict[Tuple, Dict[Tuple[int, ...], int]] = {}  # by (tag, in_types)


@dataclass
class TraceMatrix:
    location: int
    kind: str
    columns: List[ColumnSpec]
    rows: List[TraceRow]
    conflicting: bool = False
    # The solver's table over these rows, handed to every problem encoded
    # from this matrix, so the rungs of a ladder climb share their vectors
    # and memos. Not an init field: ``replace`` (and so ``deduplicate``)
    # starts a fresh one.
    vector_table: VectorTable = field(
        default_factory=VectorTable, init=False, repr=False, compare=False
    )

    @property
    def degenerate(self) -> bool:
        """All rows expect the same outcome (still synthesizable)."""
        outcomes = {r.expected for r in self.rows}
        return len(outcomes) <= 1

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def row_values(self, row: TraceRow) -> Dict[str, Value]:
        return dict(zip(self.column_names(), row.inputs))


def collect(
    program: Program,
    suite: Sequence[TestCase],
    loc: int,
    kind: str,
    angelic: Dict[str, AngelicTuple],
    step_budget: int = DEFAULT_STEP_BUDGET,
    deadline: Optional[float] = None,
) -> TraceMatrix:
    """Build the input/outcome matrix for one candidate location. A run that
    reads the clock past ``deadline`` raises DeadlineExceeded."""
    check_candidate(program, loc, kind)

    # The declared type of each name in scope: parameters, locals, then the
    # global constants that no local shadows.
    declared = program.scope_at(loc)
    for const in program.consts.values():
        declared.setdefault(const.name, const.type)
    columns = _candidate_columns(declared)
    # A skip decision is per test; the first-hit state is identical with and
    # without the skip, so a precondition probes the unmodified run.
    probed = probe(program, loc)
    values = {t.val for t in angelic.values()} if kind == CONDITION else ()
    forced = {value: probe(decide(program, loc, value), loc) for value in values}

    def cells(snap) -> tuple:
        return tuple(_cell(col, declared, snap.values) for col in columns)

    # (test id, evaluation index, every column's cell, expected outcome)
    raw_rows: List[Tuple[str, int, tuple, bool]] = []
    for test in suite:
        tuple_for_test = angelic.get(test.id)
        run = probed if tuple_for_test is None else forced.get(tuple_for_test.val, probed)
        result = execute(run, test.function, list(test.args), step_budget=step_budget,
                         deadline=deadline)
        snapshots = result.snapshots
        if not snapshots:
            if tuple_for_test is not None:
                raise ValueError(
                    f"failing test {test.id!r} has an angelic tuple but never hits {loc}"
                )
            continue
        if tuple_for_test is None and not verdict_holds(result, test):
            # A failing test without an angelic tuple contributes nothing.
            raise ValueError(
                f"failing test {test.id!r} reached {loc} without an angelic tuple"
            )
        if kind == CONDITION:
            for m, snap in enumerate(snapshots):
                expected = snap.condition if tuple_for_test is None else tuple_for_test.val
                if type(expected) is bool:
                    raw_rows.append((test.id, m, cells(snap), expected))
        else:
            raw_rows.append((test.id, 0, cells(snapshots[0]), tuple_for_test is None))

    kept = [i for i in range(len(columns))
            if all(row[2][i] is not None for row in raw_rows)]
    whole = len(kept) == len(columns)
    rows = [TraceRow(test_id, m, inputs if whole else tuple(inputs[i] for i in kept), expected)
            for test_id, m, inputs, expected in raw_rows]
    return TraceMatrix(location=loc, kind=kind, columns=[columns[i] for i in kept], rows=rows)


def _cell(col: ColumnSpec, declared: Dict[str, str],
          values: Dict[str, Value]) -> Optional[Value]:
    """The column's value in a row whose snapshot holds ``values``, or None
    where the column is undefined there (see the module docstring)."""
    if col.kind == "const":
        return col.const
    value = values[col.var]
    if not matches_declared(value, declared[col.var]) or (
            col.kind == "query" and not isinstance(value, Obj)):
        return None
    if col.kind == "var":
        return value
    if col.kind == "nullcheck":
        return isinstance(value, Null)
    return QUERIES[value.cls][col.method].fn(value.payload)


def _candidate_columns(scope: Dict[str, str]) -> List[ColumnSpec]:
    """Column order: scope primitives (parameters before locals), global
    constants, the literal constants, then per-object nullness and queries,
    a class's queries by name."""
    columns: List[ColumnSpec] = []
    objects: List[Tuple[str, str]] = []
    for name, declared in scope.items():
        if declared in PRIMITIVE_TYPES:
            columns.append(ColumnSpec(name, declared, "var", var=name))
        else:
            objects.append((name, declared))
    for value in STANDARD_CONSTANTS:
        columns.append(ColumnSpec(str(value), "int", "const", const=value))
    for name, declared in objects:
        columns.append(ColumnSpec(f"{name} == null", "bool", "nullcheck", var=name))
        for _, method in sorted(QUERIES.get(declared, {}).items()):
            columns.append(
                ColumnSpec(
                    f"{name}.{method.name}()", method.return_type, "query",
                    var=name, method=method.name,
                )
            )
    return columns


def deduplicate(matrix: TraceMatrix) -> TraceMatrix:
    """Collapse identical rows; flag the matrix Conflicting when identical
    inputs demand different outcomes (conflicting rows are both kept)."""
    seen: Dict[Tuple, TraceRow] = {}
    by_inputs: Dict[Tuple, set] = {}
    rows: List[TraceRow] = []
    for row in matrix.rows:
        key = (row.inputs, row.expected)
        if key not in seen:
            seen[key] = row
            rows.append(row)
        by_inputs.setdefault(row.inputs, set()).add(row.expected)
    conflicting = any(len(outcomes) > 1 for outcomes in by_inputs.values())
    return replace(matrix, rows=rows, conflicting=conflicting)


# --- line-oriented serialization (debugging) --------------------------------


def matrix_to_text(matrix: TraceMatrix) -> str:
    header = [f"{matrix.location}", matrix.kind]
    cols = "\t".join(f"{c.name}|{c.type}|{c.kind}" for c in matrix.columns)
    lines = ["\t".join(header), cols]
    for row in matrix.rows:
        cells = [row.test, str(row.eval_index)]
        cells += [format_value(v) for v in row.inputs]
        cells.append("true" if row.expected else "false")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"

