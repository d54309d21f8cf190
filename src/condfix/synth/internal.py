"""Built-in finite-domain backend.

The location-variable domains are finite, so satisfiability is decided by
deterministic search. The search enumerates only the producer cone that
feeds the result slot: a sequence of distinct components, each input wired
to a column or an earlier member, whose last member is bool-typed and
whose earlier members are all referenced. Cones are tried smallest first;
the first one reproducing every row is extended to a complete model by
parking the unused components on the remaining lower slots with arbitrary
valid wirings (their values cannot reach the result).

Exhausting the cone space proves unsatisfiability. The search honors both
a wall-clock limit and a deterministic node budget; crossing either
reports a timeout, never a wrong unsat.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

from ..minilang.values import INT_MAX, INT_MIN, wrap_int
from .components import BOOL
from .problem import SynthesisProblem

SAT, UNSAT, TIMEOUT = "sat", "unsat", "timeout"

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass
class SolveResult:
    status: str  # sat | unsat | timeout
    model: Optional[Dict[str, int]] = None

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


class _Budget:
    def __init__(self, timeout_s: Optional[float], max_nodes: int):
        self.deadline = time.monotonic() + timeout_s if timeout_s else None
        self.max_nodes = max_nodes
        self.nodes = 0
        self.exhausted = False

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            self.exhausted = True
            return True
        if self.deadline is not None and self.nodes % 4096 == 0:
            if time.monotonic() > self.deadline:
                self.exhausted = True
                return True
        return False


# A wiring reference: ("col", column_index) or ("comp", cone_position).
Ref = Tuple[str, int]


def solve_internal(
    problem: SynthesisProblem,
    timeout_s: Optional[float] = None,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    columns = problem.columns
    components = problem.components

    if not components:
        if columns and columns[-1].type == BOOL and problem.satisfies_rows(
            problem.fixed_assignment()
        ):
            return SolveResult(SAT, problem.fixed_assignment())
        return SolveResult(UNSAT)

    # Producer pools per type; a component whose input type has no producer
    # at all can never be placed, making the whole problem unsatisfiable.
    column_types = {c.type for c in columns}
    producible = set(column_types)
    for c in components:
        producible.add(c.out_type)
    for c in components:
        if any(t not in producible for t in c.in_types):
            return SolveResult(UNSAT)

    budget = _Budget(timeout_s, max_nodes)
    found = _search_cones(problem, budget)
    if found is not None:
        order, wirings = found
        model = _complete_model(problem, order, wirings)
        return SolveResult(SAT, model)
    if budget.exhausted:
        return SolveResult(TIMEOUT)
    return SolveResult(UNSAT)


def _search_cones(problem: SynthesisProblem, budget: _Budget):
    components = problem.components
    rows = problem.rows

    bool_roots = [i for i, c in enumerate(components) if c.out_type == BOOL]
    if not bool_roots:
        return None

    col_refs_by_type: Dict[str, List[Ref]] = {}
    col_vectors: List[Tuple] = []
    for i, col in enumerate(problem.columns):
        col_refs_by_type.setdefault(col.type, []).append(("col", i))
        col_vectors.append(tuple(inputs[i] for inputs, _ in rows))
    expected = tuple(exp for _, exp in rows)

    state = _SearchState(
        components=components,
        bool_roots=bool_roots,
        col_refs_by_type=col_refs_by_type,
        col_vectors=col_vectors,
        expected=expected,
        budget=budget,
    )
    for k in range(1, len(components) + 1):
        hit = state.extend(k)
        if hit is not None or budget.exhausted:
            return hit
    return None


class _SearchState:
    """DFS over cones with incremental per-row value vectors.

    Every cone member carries the tuple of values it produces across all
    rows. A candidate member whose vector duplicates a same-typed column
    or an earlier member is pruned: any solution through the duplicate
    also exists through the original with a strictly smaller cone, which
    an earlier iteration already enumerated.
    """

    def __init__(self, components, bool_roots, col_refs_by_type, col_vectors,
                 expected, budget):
        self.components = components
        self.bool_roots = bool_roots
        self.col_refs_by_type = col_refs_by_type
        self.col_vectors = col_vectors
        self.expected = expected
        self.budget = budget
        # Resolved once per solve so the per-node path stays in C.
        self.semantics = [(c.op.fn, c.wraps) for c in components]
        self.cone: List[int] = []
        self.wirings: List[Tuple[Ref, ...]] = []
        self.vectors: List[Tuple] = []
        self.seen_by_type: Dict[str, set] = {
            type_: {col_vectors[i] for _, i in refs}
            for type_, refs in col_refs_by_type.items()
        }

    def candidate_refs(self, in_type: str) -> List[Ref]:
        refs = list(self.col_refs_by_type.get(in_type, ()))
        refs += [
            ("comp", pos)
            for pos, ci in enumerate(self.cone)
            if self.components[ci].out_type == in_type
        ]
        return refs

    def ref_vector(self, ref: Ref) -> Tuple:
        kind, index = ref
        return self.col_vectors[index] if kind == "col" else self.vectors[index]

    def member_vector(self, ci: int, wiring: Tuple[Ref, ...]) -> Tuple:
        fn, wraps = self.semantics[ci]
        vector = tuple(map(fn, *map(self.ref_vector, wiring)))
        if wraps and (max(vector, default=0) > INT_MAX or min(vector, default=0) < INT_MIN):
            vector = tuple(map(wrap_int, vector))
        return vector

    def referenced_all(self) -> bool:
        used = set()
        for wiring in self.wirings:
            for kind, index in wiring:
                if kind == "comp":
                    used.add(index)
        return used >= set(range(len(self.cone) - 1))

    def consumable(self, k: int) -> bool:
        """Every unreferenced cone member still needs a future consumer:
        prune when some member's type has no remaining component able to
        take it, or when unreferenced members outnumber the argument slots
        the remaining picks can offer."""
        remaining = k - len(self.cone)
        referenced = {
            index for w in self.wirings for kind, index in w if kind == "comp"
        }
        unref_types = [
            self.components[self.cone[pos]].out_type
            for pos in range(len(self.cone))
            if pos not in referenced
        ]
        if not unref_types:
            return True
        unused = [c for i, c in enumerate(self.components) if i not in self.cone]
        for t in set(unref_types):
            if not any(t in c.in_types for c in unused):
                return False
        capacity = sum(sorted((c.arity for c in unused), reverse=True)[:remaining])
        return len(unref_types) <= capacity

    def extend(self, k: int):
        pos = len(self.cone)
        last = pos == k - 1
        pool = self.bool_roots if last else range(len(self.components))
        for ci in pool:
            if ci in self.cone:
                continue
            comp = self.components[ci]
            ref_options = [self.candidate_refs(t) for t in comp.in_types]
            for wiring in product(*ref_options):
                if self.budget.tick():
                    return None
                vector = self.member_vector(ci, wiring)
                if last:
                    if vector != self.expected:
                        continue
                else:
                    seen = self.seen_by_type.setdefault(comp.out_type, set())
                    if vector in seen:
                        continue
                self.cone.append(ci)
                self.wirings.append(wiring)
                self.vectors.append(vector)
                if last:
                    if self.referenced_all():
                        return list(self.cone), list(self.wirings)
                    self.cone.pop()
                    self.wirings.pop()
                    self.vectors.pop()
                else:
                    if not self.consumable(k):
                        self.cone.pop()
                        self.wirings.pop()
                        self.vectors.pop()
                        continue
                    self.seen_by_type[comp.out_type].add(vector)
                    hit = self.extend(k)
                    if hit is not None:
                        return hit
                    self.cone.pop()
                    self.wirings.pop()
                    self.vectors.pop()
                    self.seen_by_type[comp.out_type].discard(vector)
                    if self.budget.exhausted:
                        return None
        return None


def _complete_model(
    problem: SynthesisProblem, cone: List[int], wirings: List[Tuple[Ref, ...]]
) -> Dict[str, int]:
    """Assign slots: unused components park below the cone wherever their
    input types already have producers; cone members stack on top in
    discovery order with the root pinned to the final slot."""
    components = problem.components
    num_inputs = problem.num_inputs
    available_types = {c.type for c in problem.columns}

    dead = [i for i in range(len(components)) if i not in cone]
    placement: List[int] = []  # component indices in slot order

    def place_ready_dead():
        progress = True
        while progress:
            progress = False
            for i in list(dead):
                comp = components[i]
                if all(t in available_types for t in comp.in_types):
                    placement.append(i)
                    dead.remove(i)
                    available_types.add(comp.out_type)
                    progress = True

    place_ready_dead()
    for ci in cone:
        placement.append(ci)
        available_types.add(components[ci].out_type)
        place_ready_dead()
    if dead:
        raise RuntimeError("could not place unused components below the result")

    # The cone root must own the final slot; it is the last cone member and
    # place_ready_dead never appends after it unless types were missing.
    if placement[-1] != cone[-1]:
        placement.remove(cone[-1])
        placement.append(cone[-1])

    slot_of_component = {ci: num_inputs + 1 + pos for pos, ci in enumerate(placement)}
    cone_slot = {pos: slot_of_component[ci] for pos, ci in enumerate(cone)}

    model = problem.fixed_assignment()
    for ci, slot in slot_of_component.items():
        model[f"l_out_{components[ci].uid}"] = slot

    # Wire cone ports per the discovered refs; wire dead ports to the first
    # same-typed producer strictly below their own slot.
    cone_positions = {ci: pos for pos, ci in enumerate(cone)}
    for ci in range(len(components)):
        comp = components[ci]
        own_slot = slot_of_component[ci]
        for k in range(comp.arity):
            name = f"l_arg_{comp.uid}_{k}"
            if ci in cone_positions:
                ref_kind, ref_index = wirings[cone_positions[ci]][k]
                if ref_kind == "col":
                    model[name] = ref_index + 1
                else:
                    model[name] = cone_slot[ref_index]
            else:
                model[name] = _first_producer_below(
                    problem, slot_of_component, comp.in_types[k], own_slot
                )
    return model


def _first_producer_below(
    problem: SynthesisProblem, slot_of_component: Dict[int, int], in_type: str, limit: int
) -> int:
    for i, col in enumerate(problem.columns):
        if col.type == in_type:
            return i + 1
    for ci, slot in sorted(slot_of_component.items(), key=lambda kv: kv[1]):
        if slot < limit and problem.components[ci].out_type == in_type:
            return slot
    raise RuntimeError("no producer available for an unused component input")
