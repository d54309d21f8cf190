"""Constraint formulation of component-based expression synthesis.

A problem wires a set of typed input columns and a multiset of components
into a single boolean output. Integer location variables assign every
element a slot: columns occupy the fixed slots 1..|inputs| and each
component output takes a distinct slot in (|inputs|, p], where
p = |inputs| + |components|; the synthesized result lives at slot p.
Component inputs refer to earlier, same-typed slots, which makes any
satisfying assignment an acyclic, well-typed wiring. A model satisfies
the problem when, for every recorded row, evaluating the wiring over the
row's column values reproduces the expected outcome.

The final slot must be fed by a bool-typed producer; without that, a
numeric component parked at slot p would leave the result unconstrained.

Decoding walks backward from the result slot: the producer at a slot is
either an input column (a leaf) or a component whose argument slots are
decoded recursively. Equal models decode to byte-identical renderings. A
model means its decoded expression: ``satisfies_rows`` decodes it and
``fits_rows`` evaluates that expression on each row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..errors import InternalConsistencyError, UnsatisfiableMatrixError
from ..trace import ColumnSpec, TraceMatrix, VectorTable
from .components import BOOL, Component, components_for_level
from .expr import App, Leaf, PatchExpression, evaluate


@dataclass(frozen=True)
class IOElement:
    """One element with a location variable: an input column, a component
    output, or a component input port."""

    name: str  # location variable name
    type: str
    component_index: Optional[int] = None  # the component of an output or port


@dataclass
class SynthesisProblem:
    columns: List[ColumnSpec]
    rows: List[Tuple[Tuple, bool]]  # (input values, expected outcome)
    components: List[Component]
    # The built-in solver's interned vectors and memos: the matrix's table
    # for a problem ``encode`` builds, else a fresh one.
    vector_table: VectorTable = field(default_factory=VectorTable, repr=False, compare=False)

    def __post_init__(self):
        self.num_inputs = len(self.columns)
        self.p = self.num_inputs + len(self.components)

    # Built on first read: a built-in solve reads none unless it is sat.
    @cached_property
    def column_elements(self) -> List[IOElement]:
        return [IOElement(f"l_in{i + 1}", col.type) for i, col in enumerate(self.columns)]

    @cached_property
    def output_elements(self) -> List[IOElement]:
        return [IOElement(f"l_out_{c.uid}", c.out_type, i) for i, c in enumerate(self.components)]

    @cached_property
    def port_elements(self) -> List[IOElement]:
        return [
            IOElement(f"l_arg_{c.uid}_{k}", c.in_types[k], i)
            for i, c in enumerate(self.components)
            for k in range(c.arity)
        ]

    @cached_property
    def port_names(self) -> List[List[str]]:
        """Per component, the location variable of each of its ports."""
        names: List[List[str]] = [[] for _ in self.components]
        for e in self.port_elements:
            names[e.component_index].append(e.name)
        return names

    # -- domains -------------------------------------------------------------

    def fixed_assignment(self) -> Dict[str, int]:
        """Slots pinned up front: columns at 1..|inputs|, result at p."""
        fixed = {e.name: i + 1 for i, e in enumerate(self.column_elements)}
        fixed["l_result"] = self.p
        return fixed

    def output_slot_range(self) -> Tuple[int, int]:
        return self.num_inputs + 1, self.p

    def port_candidates(self, element: IOElement) -> List[str]:
        """Names of same-typed producers a component input may connect to
        (acyclicity is enforced separately, so a component's own output is
        listed here, matching the domain before ordering constraints)."""
        names = [
            e.name for e in self.column_elements if e.type == element.type
        ]
        names += [
            e.name for e in self.output_elements if e.type == element.type
        ]
        return names

    def location_variables(self) -> List[str]:
        names = [e.name for e in self.column_elements]
        names += [e.name for e in self.output_elements]
        names += [e.name for e in self.port_elements]
        names.append("l_result")
        return names

    # -- structural validity (model checking) --------------------------------

    def check_model(self, model: Dict[str, int]) -> List[str]:
        """Violations of the structural constraints; empty means the model
        describes a syntactically correct wiring."""
        violations: List[str] = []
        for name, slot in self.fixed_assignment().items():
            if model.get(name) != slot:
                violations.append(f"fixed slot: {name} must be {slot}, got {model.get(name)}")
        lo, hi = self.output_slot_range()
        out_slots: Dict[int, IOElement] = {}
        for e in self.output_elements:
            slot = model.get(e.name)
            if slot is None or not (lo <= slot <= hi):
                violations.append(f"output range: {e.name}={slot} not in [{lo}, {hi}]")
                continue
            if slot in out_slots:
                violations.append(f"distinct outputs: slot {slot} assigned twice")
            out_slots[slot] = e
        producer_types = {i + 1: c.type for i, c in enumerate(self.columns)}
        for e in self.output_elements:
            slot = model.get(e.name)
            if slot is not None:
                producer_types[slot] = e.type
        for e in self.port_elements:
            slot = model.get(e.name)
            own_output = model.get(self.output_elements[e.component_index].name)
            if slot is None:
                violations.append(f"missing assignment for {e.name}")
                continue
            if producer_types.get(slot) != e.type:
                violations.append(
                    f"typed wiring: {e.name}={slot} feeds {e.type} from "
                    f"{producer_types.get(slot)}"
                )
            if own_output is not None and slot >= own_output:
                violations.append(
                    f"acyclic: {e.name}={slot} not below its output {own_output}"
                )
        if self.components:
            result_producer = out_slots.get(self.p)
            if result_producer is not None and result_producer.type != BOOL:
                violations.append("result slot must hold a bool producer")
        elif self.columns and self.columns[-1].type != BOOL:
            violations.append("result slot must hold a bool producer")
        return violations

    def satisfies_rows(self, model: Dict[str, int]) -> bool:
        """Whether the model's decoded expression gives every row its
        expected outcome; raises as ``decode`` does."""
        return self.fits_rows(decode(self, model))

    def fits_rows(self, expression: PatchExpression) -> bool:
        """Whether ``expression`` gives every row its expected outcome."""
        names = [c.name for c in self.columns]
        return all(
            evaluate(expression, dict(zip(names, inputs))) == expected
            for inputs, expected in self.rows
        )


def decode(problem: SynthesisProblem, model: Dict[str, int]) -> PatchExpression:
    """Backward traversal from the result slot to a deterministic expression.

    Raises InternalConsistencyError when the model violates the structural
    constraints, which indicates an encoder or solver bug.
    """
    violations = problem.check_model(model)
    if violations:
        raise InternalConsistencyError("; ".join(violations))

    producer_at: Dict[int, Tuple[str, int]] = {
        i + 1: ("col", i) for i in range(problem.num_inputs)
    }
    for e in problem.output_elements:
        producer_at[model[e.name]] = ("comp", e.component_index)
    return _traverse(problem, model, producer_at, model["l_result"])


def _traverse(problem: SynthesisProblem, model: Dict[str, int],
              producer_at: Dict[int, Tuple[str, int]], slot: int) -> PatchExpression:
    """The expression produced at ``slot``. A module-level function, not a
    closure, so that no reference cycle keeps the problem alive."""
    role, index = producer_at[slot]
    if role == "col":
        return Leaf(problem.columns[index])
    args = tuple(_traverse(problem, model, producer_at, model[name])
                 for name in problem.port_names[index])
    return App(problem.components[index], args)


def encode(matrix: TraceMatrix, level: int) -> SynthesisProblem:
    """Build the synthesis problem for one ladder rung over a matrix.

    Fails fast on a matrix flagged Conflicting: identical inputs with
    different expected outcomes admit no expression at any level.
    """
    if not matrix.columns:
        raise ValueError("matrix must have at least one column")
    components = components_for_level(level, [c.type for c in matrix.columns])
    return encode_with_components(matrix, components)


def encode_with_components(
    matrix: TraceMatrix, components: List[Component]
) -> SynthesisProblem:
    if matrix.conflicting:
        raise UnsatisfiableMatrixError(
            f"matrix at location {matrix.location} has conflicting rows"
        )
    rows = [(row.inputs, row.expected) for row in matrix.rows]
    return SynthesisProblem(
        columns=list(matrix.columns),
        rows=rows,
        components=list(components),
        vector_table=matrix.vector_table,
    )
