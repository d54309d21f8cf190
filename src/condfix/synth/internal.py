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
reports a timeout, never a wrong unsat. Nodes are counted through a
``budget.Budget``, which reads the clock each time the count reaches a
multiple of 4,096; a timeout of zero is a deadline already passed, so it
stops the search at node 4,096.

One node is one candidate for the next cone position: a component not yet
in the cone with one wiring of its inputs. Candidates are visited in a
fixed order (components in problem order; wirings in ``itertools.product``
order over columns first, then earlier members), so under the node
budget alone the node count, the status and the model of a solve are
deterministic. Every candidate costs one node however cheaply it is
dismissed.

Within one solve each distinct ``(type, value vector)`` gets a small int
id, and each component memoizes its applications on the ids of its
inputs, so a repeated application is one dict lookup and a duplicate
check is one list index. On the last cone position a root wiring that
leaves some member unconsumed cannot complete the cone; such wirings are
counted without computing their vectors.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Dict, List, Optional, Tuple

from ..budget import Budget, Exhausted
from ..errors import DeadlineExceeded
from ..minilang.values import INT_MAX, INT_MIN, wrap_int
from .components import BOOL, REAL
from .problem import SynthesisProblem

SAT, UNSAT, TIMEOUT = "sat", "unsat", "timeout"

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass
class SolveResult:
    status: str  # sat | unsat | timeout
    model: Optional[Dict[str, int]] = None
    nodes: int = 0  # search nodes of the built-in backend; 0 for an external solver

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


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

    budget = Budget(max_nodes, None if timeout_s is None else time.monotonic() + timeout_s)
    try:
        found = _search_cones(problem, budget)
    except (Exhausted, DeadlineExceeded):
        return SolveResult(TIMEOUT, nodes=budget.count)
    if found is not None:
        order, wirings = found
        model = _complete_model(problem, order, wirings)
        return SolveResult(SAT, model, budget.count)
    return SolveResult(UNSAT, nodes=budget.count)


def _search_cones(problem: SynthesisProblem, budget: Budget):
    bool_roots = [i for i, c in enumerate(problem.components) if c.out_type == BOOL]
    if not bool_roots:
        return None
    state = _SearchState(problem, bool_roots, budget)
    for k in range(1, len(problem.components) + 1):
        hit = state.extend(k)
        if hit is not None:
            return hit
    return None


class _SearchState:
    """DFS over cones with interned per-row value vectors.

    Every cone member carries the id of the tuple of values it produces
    across all rows. A candidate member whose vector duplicates a
    same-typed column or an earlier member is pruned: any solution through
    the duplicate also exists through the original with a strictly smaller
    cone, which an earlier iteration already enumerated.

    The refs a port may take (columns first, then cone members in cone
    order), the count of consumers of each member, and the counts behind
    the consumability test are updated on push and pop, not rebuilt.
    """

    def __init__(self, problem: SynthesisProblem, bool_roots: List[int], budget: Budget):
        components = problem.components
        self.components = components
        self.budget = budget
        # Resolved once per solve so the per-node path stays in C.
        self.semantics = [(c.op.fn, c.wraps, c.out_type == REAL) for c in components]
        self.memos: List[Dict[Tuple[int, ...], int]] = [{} for _ in components]
        # The candidate roots of the last cone position, in component order.
        self.roots = [(ci, components[ci].in_types, self.memos[ci]) for ci in bool_roots]
        # Per component: output type, distinct input types, arity.
        self.shapes = [(c.out_type, tuple(set(c.in_types)), c.arity) for c in components]
        types = {c.type for c in problem.columns} | {c.out_type for c in components}
        self.ids: Dict[str, Dict[Tuple, int]] = {t: {} for t in types}
        self.vectors: List[Tuple] = []  # by id
        self.seen: List[bool] = []  # by id: a column or a cone member has it
        self.refs: Dict[str, List[Ref]] = {t: [] for t in types}
        self.ref_ids: Dict[str, List[int]] = {t: [] for t in types}
        for i, col in enumerate(problem.columns):
            vid = self.intern(col.type, tuple(inputs[i] for inputs, _ in problem.rows))
            self.seen[vid] = True
            self.refs[col.type].append(("col", i))
            self.ref_ids[col.type].append(vid)
        self.expected = self.intern(BOOL, tuple(exp for _, exp in problem.rows))

        self.cone: List[int] = []
        self.wirings: List[Tuple[Ref, ...]] = []
        self.in_cone = [False] * len(components)
        self.consumers: List[int] = []  # by cone position
        self.unconsumed = dict.fromkeys(types, 0)  # cone members no wiring uses, by type
        # Components outside the cone: how many take each type, how many
        # have each arity (largest first).
        self.takers = dict.fromkeys(types, 0)
        self.by_arity: Dict[int, int] = {}
        for _, in_types, arity in sorted(self.shapes, key=lambda shape: -shape[2]):
            for t in in_types:
                self.takers[t] += 1
            self.by_arity[arity] = self.by_arity.get(arity, 0) + 1

    def intern(self, type_: str, vector: Tuple) -> int:
        ids = self.ids[type_]
        vid = ids.get(vector)
        if vid is None:
            vid = ids[vector] = self.fresh(vector)
        return vid

    def fresh(self, vector: Tuple) -> int:
        self.vectors.append(vector)
        self.seen.append(False)
        return len(self.vectors) - 1

    def apply(self, ci: int, key: Tuple[int, ...]) -> int:
        """Id of component ``ci``'s vector over the input ids ``key``,
        computed and memoized on a memo miss."""
        fn, wraps, real = self.semantics[ci]
        vectors = self.vectors
        vector = tuple(map(fn, *[vectors[i] for i in key]))
        if wraps and (max(vector, default=0) > INT_MAX or min(vector, default=0) < INT_MIN):
            vector = tuple(map(wrap_int, vector))
        if real and any(v != v for v in vector):
            # A NaN equals no other value, so each application yields a
            # vector no other one matches: a fresh id, never memoized.
            return self.fresh(vector)
        vid = self.memos[ci][key] = self.intern(self.shapes[ci][0], vector)
        return vid

    def push(self, ci: int, wiring: Tuple[Ref, ...], vid: int) -> None:
        out, in_types, arity = self.shapes[ci]
        cone, consumers, unconsumed = self.cone, self.consumers, self.unconsumed
        for kind, index in wiring:
            if kind == "comp":
                if not consumers[index]:
                    unconsumed[self.shapes[cone[index]][0]] -= 1
                consumers[index] += 1
        self.refs[out].append(("comp", len(cone)))
        self.ref_ids[out].append(vid)
        cone.append(ci)
        self.wirings.append(wiring)
        consumers.append(0)
        unconsumed[out] += 1
        self.in_cone[ci] = True
        for t in in_types:
            self.takers[t] -= 1
        self.by_arity[arity] -= 1

    def pop(self) -> None:
        cone, consumers, unconsumed = self.cone, self.consumers, self.unconsumed
        ci = cone.pop()
        out, in_types, arity = self.shapes[ci]
        self.refs[out].pop()
        self.ref_ids[out].pop()
        consumers.pop()
        unconsumed[out] -= 1
        self.in_cone[ci] = False
        for t in in_types:
            self.takers[t] += 1
        self.by_arity[arity] += 1
        for kind, index in self.wirings.pop():
            if kind == "comp":
                consumers[index] -= 1
                if not consumers[index]:
                    unconsumed[self.shapes[cone[index]][0]] += 1

    def consumable(self, k: int) -> bool:
        """Every unconsumed cone member still needs a future consumer:
        prune when some member's type has no remaining component able to
        take it, or when unconsumed members outnumber the argument slots
        the remaining picks can offer."""
        pending = 0
        for t, count in self.unconsumed.items():
            if count:
                if not self.takers[t]:
                    return False
                pending += count
        remaining = k - len(self.cone)
        capacity = 0
        for arity, count in self.by_arity.items():
            if capacity >= pending or not remaining:
                break
            take = min(remaining, count)
            capacity += take * arity
            remaining -= take
        return pending <= capacity

    def candidates(self, in_types: Tuple[str, ...]) -> List[Tuple[Tuple[Ref, ...], Tuple[int, ...]]]:
        """Every wiring of ports typed ``in_types``, in product order, with
        the ids of the vectors it feeds the ports."""
        refs = product(*[self.refs[t] for t in in_types])
        keys = product(*[self.ref_ids[t] for t in in_types])
        return list(zip(refs, keys))

    def extend(self, k: int):
        if len(self.cone) == k - 1:
            return self.close()
        budget, seen = self.budget, self.seen
        by_types: Dict[Tuple[str, ...], list] = {}
        for ci, comp in enumerate(self.components):
            if self.in_cone[ci]:
                continue
            candidates = by_types.get(comp.in_types)
            if candidates is None:
                candidates = by_types[comp.in_types] = self.candidates(comp.in_types)
            memo = self.memos[ci]
            for wiring, key in candidates:
                budget.advance()
                vid = memo.get(key)
                if vid is None:
                    vid = self.apply(ci, key)
                if seen[vid]:
                    continue
                self.push(ci, wiring, vid)
                if not self.consumable(k):
                    self.pop()
                    continue
                seen[vid] = True
                hit = self.extend(k)
                if hit is not None:
                    return hit
                seen[vid] = False
                self.pop()
        return None

    def close(self):
        """Try each bool root on the last cone position. Every root wiring is
        one node, but only a wiring that consumes every member nothing else
        consumes can complete the cone, so only those get a vector; all the
        nodes are counted at once, up to the first hit."""
        unconsumed = {("comp", pos) for pos, n in enumerate(self.consumers) if not n}
        unconsumed_types = {t for t, n in self.unconsumed.items() if n}
        expected = self.expected
        by_types: Dict[Tuple[str, ...], tuple] = {}
        tried = 0
        for ci, in_types, memo in self.roots:
            if self.in_cone[ci]:
                continue
            entry = by_types.get(in_types)
            if entry is None:
                count = prod(len(self.refs[t]) for t in in_types)
                closing = []
                if len(unconsumed) <= len(in_types) and unconsumed_types.issubset(in_types):
                    closing = [
                        (index, wiring, key)
                        for index, (wiring, key) in enumerate(self.candidates(in_types))
                        if unconsumed.issubset(wiring)
                    ]
                entry = by_types[in_types] = (count, closing)
            count, closing = entry
            for index, wiring, key in closing:
                vid = memo.get(key)
                if vid is None:
                    vid = self.apply(ci, key)
                if vid == expected:
                    self.budget.advance(tried + index + 1)
                    return self.cone + [ci], self.wirings + [wiring]
            tried += count
        self.budget.advance(tried)
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
