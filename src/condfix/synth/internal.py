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
a deadline, ``timeout_s`` after ``budget.now()``, and a deterministic node
budget; crossing either reports a timeout, never a wrong unsat. Nodes are
counted through a ``budget.Budget``, which reads the clock each time the
count reaches a multiple of 4,096; a timeout of zero is a deadline already
passed, so it stops the search at node 4,096.

One node is one candidate for the next cone position: a component not yet
in the cone with one wiring of its inputs. Candidates are visited in a
fixed order (components in problem order; wirings in ``itertools.product``
order over columns first, then earlier members), so under the node
budget alone the node count, the status and the model of a solve are
deterministic. Every candidate costs one node however cheaply it is
dismissed.

Within one solve each distinct ``(type, value vector)`` gets a small int
id, and each operator semantics, a tag with its input types, memoizes its
applications on the ids of its inputs, so a repeated application is one
dict lookup and a duplicate check is one list index. The two instances of
an operator at level 4 share one memo: both compute the same vector from
the same inputs, and the id of a vector does not depend on which instance
computed it first, so sharing changes no id, no pruning and no node.

On the last cone position (``close``) every wiring of every bool root
outside the cone is still one node, but only a wiring that takes every
unconsumed member can complete the cone, so only those are enumerated, in
product order, and the nodes before the first hit are counted at once. The
consumability test leaves at most two unconsumed members there: one pick
consumes at most two (every operator is unary or binary), and the member
pushed last, the last ref of its type, is always unconsumed. So:

- an empty cone closes with any root wiring of the columns;
- one unconsumed member ``m`` closes a unary root as ``(m,)`` and a binary
  one as ``(x, m)``, ``x`` before ``m``, then ``(m, y)``;
- two, ``a`` before ``b``, close only a binary root, as ``(a, b)`` or
  ``(b, a)``.

Two rules skip work whose outcome is already known, on every cone
position. Neither skips a hit, so neither moves a status or a model. Each
counts every node it skips through ``Budget.advance(n)``, which counts as
``n`` single advances would, so neither moves a node count, the node on
which the cap or a deadline stops the search, or the counts at which the
clock is read:

- *Twins.* A component's nearest earlier twin is the instance before it of
  its operator semantics, the component sharing its memo. While that twin
  is outside the cone, it was tried earlier in the same pass, on the same
  refs, and missed. Swapping the two instances maps each subtree of the
  twin onto the later instance's, wiring for wiring and vector for vector;
  the later one visits its candidates in another order, which changes no
  count of a subtree that misses. So on a position before the last the
  later instance's whole loop is counted as the twin's, and on the last its
  root wirings are counted and not checked. A twin inside the cone was not
  tried there, so the later instance is.
- *Mirrors.* A commuting component (``Component.commutes``: ``==``,
  ``!=``, ``&&``, ``||``, ``+`` and ``*``) gives a wiring's mirror the same
  vector, and the mirror consumes the same members. When both its ports
  take one type, product order walks ``(j, i)`` before ``(i, j)`` for
  ``j < i``, so on a position before the last ``(i, j)`` is counted as the
  nodes that ``(j, i)`` took, its own node included. On the last position,
  with one unconsumed member ``m``, each ``(m, y)`` with ``y`` before ``m``
  mirrors an ``(x, m)`` that missed, so only ``(m, m)`` is checked; with
  two, ``(b, a)`` mirrors ``(a, b)`` and is not checked.

A root closes a cone only if every other component can park below it,
which the columns alone decide, once per solve (``_closers``); on the
standard ladder every bool root can. The wirings of a root that cannot
still count as nodes.

When no component takes a type that a component outputs (level 1), no
cone has two members, so the search ends after the one-member pass. When
no component outputs an int or a real (levels 1 and 2), a failed
one-member pass can prove the problem unsat with no further search. Every
numeric port then takes a column, so every comparison in any cone is a
one-member root over a column wiring, and every other bool node is a bool
column or a component over bool nodes. On each row an expression's value
is therefore a function of the values of the bool columns and of those
roots, all of which the pass has interned. Rows are keyed by these
vectors; if two rows with the same key expect different outcomes, no
expression separates them and the answer is unsat. The expected vector
joins the key only as a column's own vector: a deeper cone may still reach
that column, as ``b == (b == b)`` does with two bool ``==`` components.
The check reuses the pass's vectors and costs no node, so an unsat it
proves reports the nodes of the one-member pass: every root wiring of the
columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Set, Tuple

from .. import budget
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

    nodes = Budget(max_nodes, None if timeout_s is None else budget.now() + timeout_s)
    try:
        found = _search_cones(problem, nodes)
    except (Exhausted, DeadlineExceeded):
        return SolveResult(TIMEOUT, nodes=nodes.count)
    if found is not None:
        order, wirings = found
        model = _complete_model(problem, order, wirings)
        return SolveResult(SAT, model, nodes.count)
    return SolveResult(UNSAT, nodes=nodes.count)


def _search_cones(problem: SynthesisProblem, budget: Budget):
    closers = _closers(problem)
    if not closers:
        return None
    state = _SearchState(problem, closers, budget)
    numeric_free = all(c.out_type == BOOL for c in problem.components)
    chains = any(state.takers[c.out_type] for c in problem.components)
    for k in range(1, len(problem.components) + 1):
        hit = state.extend(k)
        if hit is not None:
            return hit
        if k == 1 and (not chains or numeric_free and state.confounded()):
            return None
    return None


def _closers(problem: SynthesisProblem) -> Set[int]:
    """The bool components that can own the result slot and so close a
    cone: those below which every other component parks, each once the
    columns or the components parked before it produce its input types,
    and whose own input types are then produced. Decided per shape from
    the columns alone, before any search; with none, no model exists."""
    shapes = [(c.in_types, c.out_type) for c in problem.components]
    columns = {c.type for c in problem.columns}
    verdicts: Dict[Tuple, bool] = {}
    closers = set()
    for ci, shape in enumerate(shapes):
        if shape[1] != BOOL:
            continue
        if shape not in verdicts:
            others = set(shapes[:ci] + shapes[ci + 1:])
            available = set(columns)
            while True:
                ready = {out for ins, out in others if available.issuperset(ins)}
                if ready <= available:
                    break
                available |= ready
            verdicts[shape] = all(available.issuperset(ins) for ins, _ in others | {shape})
        if verdicts[shape]:
            closers.add(ci)
    return closers


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

    On every cone position a later twin and a mirrored wiring repeat
    subtrees that just missed (see the module docstring). ``extend`` keeps
    the nodes of each component's loop and, for a component whose wirings
    have mirrors, the count before each wiring, and advances the budget by
    the recorded count in place of the walk; ``close`` counts such root
    wirings without checking them.
    """

    def __init__(self, problem: SynthesisProblem, closers: Set[int], budget: Budget):
        components = problem.components
        self.budget = budget
        # Per component: output type, distinct input types, arity.
        self.shapes = [(c.out_type, tuple(set(c.in_types)), c.arity) for c in components]
        types = {c.type for c in problem.columns} | {c.out_type for c in components}
        self.ids: Dict[str, Dict[Tuple, int]] = {t: {} for t in types}
        # One memo per operator semantics, a tag with its input types: the
        # two instances of an operator at level 4 share theirs, while ``<``
        # over ints and ``<`` over reals each get their own.
        # The picks of a cone position before the last, in component order:
        # every component with its input types, its memo, its nearest
        # earlier twin (the instance before it of its operator semantics)
        # or None, and whether its wirings have mirrors (it commutes and
        # both its ports take one type).
        # The candidate roots of the last cone position: every bool
        # component, whose wirings all count as nodes, with whether it can
        # close a cone (see ``_closers``), its twin and whether it commutes.
        memos: Dict[Tuple, Dict[Tuple[int, ...], int]] = {}
        latest: Dict[Tuple, int] = {}
        self.memos: List[Dict[Tuple[int, ...], int]] = []
        self.picks = []
        self.roots = []
        for ci, c in enumerate(components):
            op = (c.tag, c.in_types)
            memo = memos.setdefault(op, {})
            self.memos.append(memo)
            twin, latest[op] = latest.get(op), ci
            mirrored = c.arity == 2 and c.commutes and c.in_types[0] == c.in_types[1]
            self.picks.append((ci, c.in_types, memo, twin, mirrored))
            if c.out_type == BOOL:
                self.roots.append((ci, c.in_types, memo, ci in closers, twin, c.commutes))
        # Resolved once per solve so the per-node path stays in C.
        self.semantics = [(c.entry.fn, c.wraps, c.out_type == REAL, self.ids[c.out_type],
                           self.memos[ci]) for ci, c in enumerate(components)]
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
        fn, wraps, real, ids, memo = self.semantics[ci]
        vectors = self.vectors
        if len(key) == 2:
            vector = tuple(map(fn, vectors[key[0]], vectors[key[1]]))
        else:
            vector = tuple(map(fn, vectors[key[0]]))
        if wraps and (max(vector, default=0) > INT_MAX or min(vector, default=0) < INT_MIN):
            vector = tuple(map(wrap_int, vector))
        if real and any(v != v for v in vector):
            # A NaN equals no other value, so each application yields a
            # vector no other one matches: a fresh id, never memoized.
            return self.fresh(vector)
        vid = ids.get(vector)
        if vid is None:
            vid = ids[vector] = self.fresh(vector)
        memo[key] = vid
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
        budget, seen, in_cone = self.budget, self.seen, self.in_cone
        by_types: Dict[Tuple[str, ...], list] = {}
        spent: Dict[int, int] = {}  # the nodes of each component's wirings here
        for ci, in_types, memo, twin, mirrored in self.picks:
            if in_cone[ci]:
                continue
            if twin is not None and not in_cone[twin]:
                # the twin's wirings just missed; these walk the same subtrees
                spent[ci] = spent[twin]
                budget.advance(spent[ci])
                continue
            start = budget.count
            candidates = by_types.get(in_types)
            if candidates is None:
                candidates = by_types[in_types] = self.candidates(in_types)
            if mirrored:
                n = len(self.refs[in_types[0]])
                starts: List[int] = []  # the count before each wiring
            for wiring, key in candidates:
                if mirrored:
                    i, j = divmod(len(starts), n)
                    starts.append(budget.count)
                    if j < i:  # (i, j) walks the subtree of (j, i), which missed
                        mirror = j * n + i
                        budget.advance(starts[mirror + 1] - starts[mirror])
                        continue
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
            spent[ci] = budget.count - start
        return None

    def close(self):
        """Try each bool root on the last cone position, counting all its
        root wirings as nodes at once, up to the first hit. Only a wiring
        that consumes every unconsumed member can complete the cone, and the
        cone has none, one or two of them (see the module docstring)."""
        last = len(self.cone) - 1
        if last < 0:
            return self.close_empty()
        for pos in range(last):
            if not self.consumers[pos]:
                return self.close_pair(pos, last)
        return self.close_one()

    def hits(self, ci: int, memo: Dict[Tuple[int, ...], int], key: Tuple[int, ...]) -> bool:
        vid = memo.get(key)
        if vid is None:
            vid = self.apply(ci, key)
        return vid == self.expected

    def found(self, ci: int, wiring: Tuple[Ref, ...], nodes: int):
        self.budget.advance(nodes)
        return self.cone + [ci], self.wirings + [wiring]

    def close_empty(self):
        """A one-member cone: every root wiring of the columns closes it."""
        tried = 0
        for ci, in_types, memo, closes, twin, _ in self.roots:
            candidates = self.candidates(in_types)
            if closes and twin is None:  # a twin follows one that missed here
                for index, (wiring, key) in enumerate(candidates):
                    if self.hits(ci, memo, key):
                        return self.found(ci, wiring, tried + index + 1)
            tried += len(candidates)
        self.budget.advance(tried)
        return None

    def confounded(self) -> bool:
        """Two rows that agree on every bool column and every one-member
        root over the columns expect different outcomes. Call it only after
        ``close_empty`` has tried every root wiring; the expected vector
        takes part only as a column's (see the module docstring)."""
        vectors, expected = self.vectors, self.expected
        atoms = [vectors[vid] for vid in self.ids[BOOL].values()
                 if vid != expected or self.seen[vid]]
        outcomes: Dict[Tuple, bool] = {}
        for key, outcome in zip(zip(*atoms), vectors[expected]):
            if outcomes.setdefault(key, outcome) != outcome:
                return True
        return False

    def close_one(self):
        """Only the last member ``m`` is unconsumed: a unary root closes
        with ``(m,)``, a binary one with ``(x, m)``, ``x`` before ``m``,
        then ``(m, y)``; a commuting one then only with ``(m, m)``, since
        each ``(m, y)`` before it mirrors an ``(x, m)``."""
        refs, in_cone = self.refs, self.in_cone
        tm = self.shapes[self.cone[-1]][0]
        im = len(refs[tm]) - 1
        vm, m = self.ref_ids[tm][im], refs[tm][im]
        tried = 0
        for ci, in_types, memo, closes, twin, commutes in self.roots:
            if in_cone[ci]:
                continue
            if twin is not None and not in_cone[twin]:
                closes = False  # its twin missed on these same wirings
            if len(in_types) == 1:
                if closes and in_types[0] == tm and self.hits(ci, memo, (vm,)):
                    return self.found(ci, (m,), tried + im + 1)
                tried += len(refs[in_types[0]])
                continue
            t0, t1 = in_types
            n0, n1 = len(refs[t0]), len(refs[t1])
            if not closes or (t0 != tm and t1 != tm):
                tried += n0 * n1
                continue
            if t1 == tm:
                x = self.partner(ci, memo, vm, t0, 0, n0 - (t0 == tm), False)
                if x is not None:
                    return self.found(ci, (refs[t0][x], m), tried + x * n1 + im + 1)
            if t0 == tm:
                y = self.partner(ci, memo, vm, t1, im if commutes else 0, n1, True)
                if y is not None:
                    return self.found(ci, (m, refs[t1][y]), tried + im * n1 + y + 1)
            tried += n0 * n1
        self.budget.advance(tried)
        return None

    def partner(self, ci: int, memo, vm: int, t: str, start: int, stop: int,
                m_first: bool) -> Optional[int]:
        """The first index from ``start`` below ``stop`` of the refs of type
        ``t`` that wired with ``m`` (``m`` first or second) gives the
        expected vector."""
        ids, expected, get = self.ref_ids[t], self.expected, memo.get
        for i in range(start, stop):
            key = (vm, ids[i]) if m_first else (ids[i], vm)
            vid = get(key)
            if vid is None:
                vid = self.apply(ci, key)
            if vid == expected:
                return i
        return None

    def close_pair(self, pa: int, pb: int):
        """Members ``a`` and ``b`` (the last) are unconsumed: only a binary
        root wired ``(a, b)`` or ``(b, a)`` closes, in that order; a
        commuting one only with ``(a, b)``."""
        refs, ids, in_cone = self.refs, self.ref_ids, self.in_cone
        ta, tb = self.shapes[self.cone[pa]][0], self.shapes[self.cone[pb]][0]
        a, b = ("comp", pa), ("comp", pb)
        ia, ib = refs[ta].index(a), len(refs[tb]) - 1
        va, vb = ids[ta][ia], ids[tb][ib]
        tried = 0
        for ci, in_types, memo, closes, twin, commutes in self.roots:
            if in_cone[ci]:
                continue
            if twin is not None and not in_cone[twin]:
                closes = False  # its twin missed on these same wirings
            if len(in_types) == 1:
                tried += len(refs[in_types[0]])
                continue
            t0, t1 = in_types
            n1 = len(refs[t1])
            if closes and t0 == ta and t1 == tb and self.hits(ci, memo, (va, vb)):
                return self.found(ci, (a, b), tried + ia * n1 + ib + 1)
            if (closes and not commutes and t0 == tb and t1 == ta
                    and self.hits(ci, memo, (vb, va))):
                return self.found(ci, (b, a), tried + ib * n1 + ia + 1)
            tried += len(refs[t0]) * n1
        self.budget.advance(tried)
        return None


def _complete_model(
    problem: SynthesisProblem, cone: List[int], wirings: List[Tuple[Ref, ...]]
) -> Dict[str, int]:
    """Assign slots: unused components park below the cone wherever their
    input types already have producers; cone members stack on top in
    discovery order. Every unused component parks before the root, the
    last member (see ``_closers``), so the root takes the final slot."""
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
