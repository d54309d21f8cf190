"""Runtime trace collection for patch synthesis.

For a chosen location the whole suite is re-run with a probe installed.
Each probe hit yields the candidate inputs (in-scope primitives, the
literal constants 0, -1, 1, nullness of in-scope objects, and state-query
results on non-null objects) paired with the expected outcome of the
condition or precondition at that point.

Expected outcomes: for a condition repair, passing tests contribute the
actually evaluated condition value per hit and failing tests contribute
their angelic value (collected under the forced execution); for a
precondition repair, passing tests contribute true and failing tests
false, one row per test taken at the first hit.

A state-query column whose receiver is null in any row is undefined there
and the column is dropped from the entire matrix; the nullness column
itself always stays.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

# The repair-kind constants live in angelic; trace re-exports them.
from .angelic import CONDITION, PRECONDITION, AngelicTuple, check_candidate  # noqa: F401
from .minilang import (
    DEFAULT_STEP_BUDGET, ExecutionControls, Program, Value, execute,
    format_value, parse_value_literal,
)
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


@dataclass
class TraceMatrix:
    location: int
    kind: str
    columns: List[ColumnSpec]
    rows: List[TraceRow]
    conflicting: bool = False

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
) -> TraceMatrix:
    """Build the input/outcome matrix for one candidate location."""
    check_candidate(program, loc, kind)

    columns = _candidate_columns(program, loc)
    probe = ExecutionControls(probes=frozenset({loc}))

    raw_rows: List[Tuple[str, int, dict, dict, bool]] = []
    for test in suite:
        tuple_for_test = angelic.get(test.id)
        if tuple_for_test is not None and kind == CONDITION:
            controls = ExecutionControls(
                condition_overrides={loc: tuple_for_test.val},
                probes=frozenset({loc}),
            )
        else:
            # A skip decision is per test; the first-hit state is identical
            # with and without the skip, so a precondition probes the
            # unmodified run.
            controls = probe
        result = execute(program, test.function, list(test.args), controls, step_budget)
        snapshots = result.snapshots.get(loc, [])
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
            cond_values = result.cond_values.get(loc, [])
            for m, snap in enumerate(snapshots):
                if tuple_for_test is not None:
                    expected = tuple_for_test.val
                else:
                    expected = cond_values[m]
                raw_rows.append((test.id, m, snap.values, _derived(snap), expected))
        else:
            expected = tuple_for_test is None
            snap = snapshots[0]
            raw_rows.append((test.id, 0, snap.values, _derived(snap), expected))

    # Drop query columns undefined in any row (null receiver there).
    kept: List[ColumnSpec] = []
    for col in columns:
        if col.kind == "query" and any(col.name not in derived for _, _, _, derived, _ in raw_rows):
            continue
        kept.append(col)

    rows = []
    for test_id, m, values, derived, expected in raw_rows:
        inputs = tuple(_column_value(col, values, derived) for col in kept)
        rows.append(TraceRow(test_id, m, inputs, expected))
    return TraceMatrix(location=loc, kind=kind, columns=kept, rows=rows)


def _derived(snapshot) -> Dict[str, Value]:
    derived: Dict[str, Value] = {}
    for name, is_null in snapshot.null_flags.items():
        derived[f"{name} == null"] = is_null
    derived.update(snapshot.queries)
    return derived


def _column_value(col: ColumnSpec, values, derived) -> Value:
    if col.kind == "var":
        return values[col.var]
    if col.kind == "const":
        return col.const
    return derived[col.name]


def _candidate_columns(program: Program, loc: int) -> List[ColumnSpec]:
    """Column order: scope primitives (parameters before locals), global
    constants, the literal constants, then per-object nullness and queries."""
    scope = dict(program.scope_at(loc))
    for const in program.consts.values():
        scope.setdefault(const.name, const.type)

    columns: List[ColumnSpec] = []
    objects: List[Tuple[str, str]] = []
    for name, declared in scope.items():
        if declared in ("bool", "int", "real"):
            columns.append(ColumnSpec(name, declared, "var", var=name))
        else:
            objects.append((name, declared))
    for value in STANDARD_CONSTANTS:
        columns.append(ColumnSpec(str(value), "int", "const", const=value))
    for name, declared in objects:
        columns.append(ColumnSpec(f"{name} == null", "bool", "nullcheck", var=name))
        for method in program.registry.methods_for(declared).values():
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


# --- line-oriented serialization (debugging, enumerative oracle) -----------


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


def matrix_from_text(text: str) -> TraceMatrix:
    lines = [l for l in text.splitlines() if l.strip()]
    loc_text, kind = lines[0].split("\t")
    columns = []
    for cell in lines[1].split("\t"):
        name, type_, col_kind = cell.split("|")
        # Rebuild each recipe from the name _candidate_columns gave the column.
        var, _, call = name.removesuffix(" == null").partition(".")
        columns.append(ColumnSpec(
            name, type_, col_kind,
            var=None if col_kind == "const" else var,
            const=int(name) if col_kind == "const" else None,
            method=call.removesuffix("()") if col_kind == "query" else None,
        ))
    rows = []
    for line in lines[2:]:
        cells = line.split("\t")
        test, m = cells[0], int(cells[1])
        inputs = tuple(parse_value_literal(c) for c in cells[2:-1])
        expected = cells[-1] == "true"
        rows.append(TraceRow(test, m, inputs, expected))
    return TraceMatrix(int(loc_text), kind, columns, rows)

