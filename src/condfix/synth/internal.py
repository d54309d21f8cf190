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
a deadline, ``timeout_s`` after ``budget.now()`` and never later than the
caller's ``deadline``, and a deterministic node budget; crossing either
reports a timeout, never a wrong unsat. Nodes are counted through a
``budget.Budget``, which reads the clock each time the count reaches a
multiple of 4,096. A solve whose start, the read that sets its deadline,
is already past that deadline (the caller's, unless ``timeout_s`` is
negative) times out at once with no node; a timeout of zero is a deadline
that passes just after that read, so it stops the search at node 4,096.

One node is one candidate for the next cone position: a component not yet
in the cone with one wiring of its inputs. Candidates are visited in a
fixed order (components in problem order; wirings in ``itertools.product``
order over columns first, then earlier members), so under the node
budget alone the node count, the status and the model of a solve are
deterministic. Every candidate costs one node however cheaply it is
dismissed.

Each distinct ``(type, value vector)`` gets a small int id, and each
operator semantics, a tag with its input types, memoizes its applications
on the ids of its inputs, so a repeated application is one dict lookup and
a duplicate check is one list index. Ids and memos live in the problem's
``trace.VectorTable``, one per trace matrix (hash-consing, Filliâtre and
Conchon 2006): every rung encoded from a matrix reads its rows, so each
rung finds the vectors and applications of the rungs before it, and a
ladder climb applies each operator to each input once. An id names a
vector's contents only, so which solve or which instance computed it
first changes no pruning, no node and no model; the two instances of an
operator at level 4 share one memo for the same reason. A solve marks the
ids its columns and cone members hold in its own ``seen`` list, and holds
the table's lock: two threads solving rungs of one matrix take turns, and
independent matrices never contend. A vector holding NaN gets a fresh id
each time and is never memoized (see ``apply``), so it is the one
application a climb repeats.

The last two cone positions are taken in one step (``close``): a
candidate on the next-to-last position is not pushed. Every wiring of
every bool root outside the cone and the candidate is still one node, but
only a wiring that takes every unconsumed member can complete the cone, so
only those are enumerated, in product order, and the nodes before the
first hit are counted at once. One pick consumes at most two members
(every operator is unary or binary), and the candidate ``m``, the last
ref of its type, is always unconsumed. So ``m`` may leave at most one
earlier member unconsumed, each pending type needs a taker outside the
cone other than ``m``, and two pending members need a binary component
left. Then:

- when only ``m`` is unconsumed, a unary root closes as ``(m,)`` and a
  binary one as ``(x, m)``, ``x`` before ``m``, then ``(m, y)``;
- with an earlier member ``a`` unconsumed too, only a binary root closes,
  as ``(a, m)`` or ``(m, a)``.

``close`` checks each such wiring in line: a memo lookup, an ``apply`` on
a miss, a compare with the expected id. Once per component there, ``plan``
counts the root wirings of every root outside the cone and the component,
with one more ref of the component's type, and lists the roots that can
close over that type, each with the count before it. It reads both from a
table of the roots outside the cone (``root_counts``), built once per
output type in each ``extend`` call there, less the component's own
wirings when it is a root. ``m``'s ref joins the refs only while its roots
are tried.

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
  root wirings are counted and not checked. A twin inside the cone, or the
  candidate of the next-to-last position, was not tried there, so the
  later instance is.
- *Mirrors.* A mirrored component commutes (``Component.commutes``:
  ``==``, ``!=``, ``&&``, ``||``, ``+`` and ``*``) and both its ports take
  one type. A wiring's mirror gives the same vector and consumes the same
  members, and product order walks ``(j, i)`` before ``(i, j)`` for
  ``j < i``, so on a position before the last ``(i, j)`` is counted as the
  nodes that ``(j, i)`` took, its own node included. On the last position,
  with one unconsumed member ``m``, each ``(m, y)`` with ``y`` before ``m``
  mirrors an ``(x, m)`` that missed, so only ``(m, m)`` is checked; with
  two, ``(m, a)`` mirrors ``(a, m)`` and is not checked.

A root closes a cone only if every other component can park below it,
which the component shapes and the column types alone decide, once per
process for each (``_closers``); on the standard ladder every bool root
can. The wirings of a root that cannot still count as nodes.

The search starts with the one-member pass (``close_empty``): any root
wiring of the columns closes an empty cone. When no component takes a type
that a component outputs (level 1), no cone has two members, so the search
ends there. When no component outputs an int or a real (levels 1 and 2), a
failed pass can prove the problem unsat with no further search. Every
numeric port then takes a column, so every comparison in any cone is a
one-member root over a column wiring, and every other bool node is a bool
column or a component over bool nodes. On each row an expression's value
is thus a function of the bool columns and those roots, whose vector ids
the pass hands over as its atoms (not the table, which may hold the bool
vectors of deeper rungs). ``confounded`` keys the rows by the atoms: two
rows with one key that expect different outcomes make the problem unsat,
at no node beyond the pass's. The expected vector is an atom only as a
column's own: a deeper cone may still reach that column, as
``b == (b == b)`` does with two bool ``==`` components. No atom proves
nothing: then no column is bool and no comparison closes a cone (``!``
over ``==`` of two int columns), so a deeper cone may hold one untried.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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
    *,
    deadline: Optional[float] = None,
) -> SolveResult:
    """Decide ``problem`` within ``max_nodes`` nodes and by a deadline
    ``timeout_s`` after ``budget.now()``, capped at ``deadline`` (a time on
    ``budget.now``) when one is given."""
    columns = problem.columns
    components = problem.components

    if not components:
        if columns and columns[-1].type == BOOL and problem.satisfies_rows(
            problem.fixed_assignment()
        ):
            return SolveResult(SAT, problem.fixed_assignment())
        return SolveResult(UNSAT)

    if timeout_s is None:
        stop = deadline
    else:
        start = budget.now()
        stop = start + timeout_s if deadline is None else min(start + timeout_s, deadline)
        if start > stop:  # the deadline passed before the rung started
            return SolveResult(TIMEOUT)
    nodes = Budget(max_nodes, stop)
    with problem.vector_table.lock:
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
    hit, atoms = state.close_empty()
    if hit is not None or not any(state.takers[c.out_type] for c in problem.components):
        return hit
    if all(c.out_type == BOOL for c in problem.components) and state.confounded(atoms):
        return None
    for k in range(2, len(problem.components) + 1):
        hit = state.extend(k)
        if hit is not None:
            return hit
    return None


def _closers(problem: SynthesisProblem) -> FrozenSet[int]:
    """The bool components that can own the result slot and so close a
    cone: those below which every other component parks, each once the
    columns or the components parked before it produce its input types,
    and whose own input types are then produced. Decided per shape from
    the columns alone, before any search; with none, no model exists.
    Cached by the shapes (input types, output type) and the column types,
    never by the components, whose dataclass hash is a Python call each:
    the rungs ``encode`` builds give 28 keys."""
    return _closing(tuple([(c.in_types, c.out_type) for c in problem.components]),
                    frozenset([c.type for c in problem.columns]))


@lru_cache(maxsize=32)
def _closing(shapes: Tuple[Tuple[Tuple[str, ...], str], ...],
             columns: FrozenSet[str]) -> FrozenSet[int]:
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
    return frozenset(closers)


class _SearchState:
    """DFS over cones with interned per-row value vectors.

    Every cone member carries the id of the tuple of values it produces
    across all rows. A candidate member whose vector duplicates a
    same-typed column or an earlier member is pruned: any solution through
    the duplicate also exists through the original with a strictly smaller
    cone, which an earlier iteration already enumerated.

    Ids, vectors and memos are the problem's ``vector_table``, shared with
    every other solve over the same matrix, and the caller holds its lock.
    Only ``seen`` (by id, sized to the table at the start and grown with
    it), the cone and its counts belong to this solve. The tables below
    read each ``Component``'s precomputed facts; no per-process cache holds
    a memo, a vector or an id.

    The refs a port may take (columns first, then cone members in cone
    order), the count of consumers of each member, and the counts behind
    the consumability test are updated on push and pop, not rebuilt. Only
    positions before the next-to-last push: there ``extend`` tests each
    candidate against the members left unconsumed for the one pick left,
    without pushing it, and ``close`` tries the roots over it by the
    component's ``plan`` (see the module docstring), checking each root
    wiring in line. The cone does not change there, so each ``plan`` reads
    the ``root_counts`` of its type, built once per ``extend`` call.

    On every cone position a later twin and a mirrored wiring repeat
    subtrees that just missed (see the module docstring). ``extend`` keeps
    the nodes of each component's loop and, for a mirrored component, the
    count before each wiring, and advances the budget by the recorded count
    in place of the walk; ``plan`` counts such root wirings without
    listing them for ``close`` to check.
    """

    def __init__(self, problem: SynthesisProblem, closers: FrozenSet[int], budget: Budget):
        components = problem.components
        table = problem.vector_table
        self.budget = budget
        types = {c.type for c in problem.columns} | {c.out_type for c in components}
        for t in types:
            table.ids.setdefault(t, {})
        self.ids = table.ids
        self.vectors = table.vectors  # by id
        self.seen = [False] * len(self.vectors)  # by id: a column or a cone member has it
        # Per component, in component order: its ``shapes`` (output type,
        # distinct input types, arity), its ``semantics``, resolved once per
        # solve so the per-node path stays in C, and its entry in ``picks``,
        # the candidates of a cone position before the last: input types,
        # memo, nearest earlier twin (the instance before it of its operator
        # semantics) or None, and whether it is ``mirrored`` (it commutes
        # and both its ports take one type). A bool component also has an
        # entry in ``roots``, the candidates of the last position, whose
        # wirings all count as nodes: the same, with whether it can close a
        # cone (see ``_closers``). One memo serves each operator semantics,
        # a tag with its input types: the two instances of an operator at
        # level 4 share theirs, while ``<`` over ints and over reals do not.
        latest: Dict[Tuple, int] = {}
        self.shapes = []
        self.picks = []
        self.roots = []
        self.semantics = []
        for ci, c in enumerate(components):
            op = (c.tag, c.in_types)
            memo = table.memos.setdefault(op, {})
            twin, latest[op] = latest.get(op), ci
            mirrored = c.arity == 2 and c.commutes and c.in_types[0] == c.in_types[1]
            self.shapes.append((c.out_type, tuple(set(c.in_types)), c.arity))
            self.picks.append((ci, c.in_types, memo, twin, mirrored))
            if c.out_type == BOOL:
                self.roots.append((ci, c.in_types, memo, ci in closers, twin, mirrored))
            self.semantics.append((c.entry.fn, c.wraps, c.out_type == REAL,
                                   self.ids[c.out_type], memo))
        self.refs: Dict[str, List[Ref]] = {t: [] for t in types}
        self.ref_ids: Dict[str, List[int]] = {t: [] for t in types}
        values = list(zip(*[inputs for inputs, _ in problem.rows])) or [()] * len(problem.columns)
        for i, col in enumerate(problem.columns):
            vid = self.intern(col.type, values[i])
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
        by_arity: Dict[int, int] = {}
        for _, in_types, arity in self.shapes:
            for t in in_types:
                self.takers[t] += 1
            by_arity[arity] = by_arity.get(arity, 0) + 1
        self.by_arity = dict(sorted(by_arity.items(), reverse=True))

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

    def extend(self, k: int):
        budget, seen, in_cone = self.budget, self.seen, self.in_cone
        refs, ids = self.refs, self.ref_ids
        last = len(self.cone) == k - 2  # each candidate here takes the next-to-last position
        if last:
            unconsumed = self.unconsumed_members()
            counts: Dict[str, tuple] = {}  # by output type: ``root_counts``
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
            if candidates is None:  # every wiring, in product order, with its input ids
                candidates = by_types[in_types] = list(zip(product(*[refs[t] for t in in_types]),
                                                           product(*[ids[t] for t in in_types])))
            plan = None  # built for the first candidate that is no duplicate
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
                if last:
                    if plan is None:
                        plan = self.plan(ci, unconsumed, counts)
                    if not plan:
                        continue
                    left = unconsumed and [m for m in unconsumed if m[0] not in wiring]
                    if left and (len(left) > 1 or left[0] not in plan[2]):
                        continue
                    hit = self.close(plan, ci, wiring, vid, left[0] if left else None)
                    if hit is not None:
                        return hit
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

    def unconsumed_members(self) -> List[Tuple[Ref, str, int]]:
        """The cone members no wiring uses, each as its ref, its type and
        its index among the refs of that type."""
        members = []
        for pos, consumers in enumerate(self.consumers):
            if not consumers:
                t = self.shapes[self.cone[pos]][0]
                members.append((("comp", pos), t, self.refs[t].index(("comp", pos))))
        return members

    def root_counts(self, tm: str):
        """The root wirings of the roots outside the cone, with one more ref
        of type ``tm``: their total, each root's count, and the roots that
        can close over ``tm``, each with the count before it and its earlier
        twin while that is outside the cone (see ``plan``)."""
        refs, in_cone = self.refs, self.in_cone
        total, sizes, closers = 0, {}, []
        for rci, in_types, memo, closes, twin, mirrored in self.roots:
            if in_cone[rci]:
                continue
            if closes and tm in in_types:
                waits = None if twin is None or in_cone[twin] else twin
                closers.append((rci, in_types, memo, mirrored, total, waits))
            size = 1
            for t in in_types:
                size *= len(refs[t]) + (t == tm)
            sizes[rci] = size
            total += size
        return total, sizes, closers

    def plan(self, ci: int, unconsumed: List[Tuple[Ref, str, int]],
             counts: Dict[str, tuple]):
        """How component ``ci`` on the next-to-last position closes the
        cone, or ``()`` when no wiring of it can: its output type would have
        no taker left. Otherwise ``(total, closers, partners)``: the root
        wirings of every root outside the cone and ``ci``, with the ref of
        ``ci`` counted among its type's; each root that can close over that
        type, with the count of the root wirings before its own; and the
        members that may stay unconsumed beside ``ci``, those whose type
        keeps a taker when a binary component is left for both. The counts
        come from ``root_counts`` of ``ci``'s type, built once per call of
        ``extend`` in ``counts``, less ``ci``'s own wirings when it is a
        root."""
        tm, ins, arity = self.shapes[ci]
        takers = self.takers
        if takers[tm] <= (tm in ins):
            return ()
        pair = self.by_arity.get(2, 0) > (arity == 2)
        partners = [m for m in unconsumed if pair and takers[m[1]] > (m[1] in ins)]
        table = counts.get(tm)
        if table is None:
            table = counts[tm] = self.root_counts(tm)
        total, sizes, roots = table
        own = sizes.get(ci, 0)
        # a twin follows one that missed here, unless that one is ``ci``
        closers = [(rci, in_types, memo, mirrored, tried - own if ci < rci else tried)
                   for rci, in_types, memo, mirrored, tried, waits in roots
                   if rci != ci and (waits is None or waits == ci)]
        return total - own, closers, partners

    def close(self, plan, ci: int, wiring: Tuple[Ref, ...], vid: int,
              a: Optional[Tuple[Ref, str, int]]):
        """Close the cone with component ``ci`` wired ``wiring`` (vector
        ``vid``) as ``m`` on the next-to-last position and a root on the
        last, ``a`` being the earlier member left unconsumed, or None (see
        the module docstring). Each root's closing wirings are checked in
        line: ``(x, m)`` over the refs ``xs`` of its first port's type, then
        ``(m, y)`` over the refs ``ys`` of its second's. The root wirings of
        ``plan`` count as nodes up to the first hit."""
        total, closers, _ = plan
        tm = self.shapes[ci][0]
        refs, ids, expected = self.refs, self.ref_ids, self.expected
        refs[tm].append(("comp", len(self.cone)))
        ids[tm].append(vid)
        im = len(refs[tm]) - 1
        m = refs[tm][im]
        if a is not None:
            ia, ta = a[2], a[1]
        hit = None
        for rci, in_types, memo, mirrored, tried in closers:
            if len(in_types) == 1:
                if a is None:
                    got = memo.get((vid,))
                    if got is None:
                        got = self.apply(rci, (vid,))
                    if got == expected:
                        hit = rci, (m,), tried + im + 1
                        break
                continue
            t0, t1 = in_types
            n1 = len(refs[t1])
            if a is None:  # (x, m) with x before m, then (m, y), mirrors of a miss skipped
                xs = range(len(refs[t0]) - (t0 == tm)) if t1 == tm else ()
                ys = range(im if mirrored else 0, n1) if t0 == tm else ()
            else:  # (a, m), then (m, a) unless it mirrors (a, m)
                xs = (ia,) if t0 == ta and t1 == tm else ()
                ys = (ia,) if not mirrored and t0 == tm and t1 == ta else ()
            port_ids = ids[t0]
            for x in xs:
                key = (port_ids[x], vid)
                got = memo.get(key)
                if got is None:
                    got = self.apply(rci, key)
                if got == expected:
                    hit = rci, (refs[t0][x], m), tried + x * n1 + im + 1
                    break
            if hit is not None:
                break
            port_ids = ids[t1]
            for y in ys:
                key = (vid, port_ids[y])
                got = memo.get(key)
                if got is None:
                    got = self.apply(rci, key)
                if got == expected:
                    hit = rci, (m, refs[t1][y]), tried + im * n1 + y + 1
                    break
            if hit is not None:
                break
        refs[tm].pop()
        ids[tm].pop()
        if hit is None:
            self.budget.advance(total)
            return None
        rci, root_wiring, nodes = hit
        self.budget.advance(nodes)
        return self.cone + [ci, rci], self.wirings + [wiring, root_wiring]

    def close_empty(self):
        """The one-member pass over every root wiring of the columns:
        ``(hit, None)``, or ``(None, atoms)``, the ids of the bool columns
        and of every vector computed, all that ``confounded`` reads. The
        wirings of a twin or of a root that cannot close are counted only."""
        refs, ids, expected = self.refs, self.ref_ids, self.expected
        atoms, tried = set(ids[BOOL]), 0
        for ci, in_types, memo, closes, twin, _ in self.roots:
            if closes and twin is None:
                for index, (wiring, key) in enumerate(zip(product(*[refs[t] for t in in_types]),
                                                          product(*[ids[t] for t in in_types]))):
                    vid = memo.get(key)
                    if vid is None:
                        vid = self.apply(ci, key)
                    if vid == expected:
                        self.budget.advance(tried + index + 1)
                        return ([ci], [wiring]), None
                    atoms.add(vid)
            tried += prod([len(ids[t]) for t in in_types])
        self.budget.advance(tried)
        return None, atoms

    def confounded(self, atoms: Set[int]) -> bool:
        """Two rows that agree on every atom of a one-member pass that
        missed expect different outcomes (see the module docstring). No
        atom proves nothing."""
        if not atoms:
            return False
        vectors = self.vectors
        outcomes: Dict[Tuple, bool] = {}
        for key, outcome in zip(zip(*[vectors[vid] for vid in atoms]), vectors[self.expected]):
            if outcomes.setdefault(key, outcome) != outcome:
                return True
        return False


def _complete_model(
    problem: SynthesisProblem, cone: List[int], wirings: List[Tuple[Ref, ...]]
) -> Dict[str, int]:
    """Give every component a slot above the columns and wire its ports.

    Slots fill bottom up. ``first`` maps each type to the slot of its first
    producer: a column, else the first component placed that outputs it.
    Unused components park in repeated passes over ``dead``, each as soon
    as ``first`` holds its input types, and each port of one takes the
    first producer of its type, which is therefore below it. Cone members
    follow in discovery order, wired by their refs, each followed by the
    unused components it lets park. Every unused component parks before the
    root, the last member (see ``_closers``), so the root takes the final
    slot."""
    components = problem.components
    base = problem.num_inputs + 1
    first: Dict[str, int] = {}
    for slot, col in enumerate(problem.columns, 1):
        first.setdefault(col.type, slot)
    dead = [ci for ci in range(len(components)) if ci not in cone]
    placement: List[Tuple[int, List[int]]] = []  # (component, port slots) in slot order
    cone_slots: List[int] = []  # by cone position
    for pos in range(len(cone) + 1):
        parked = True
        while parked:
            parked = False
            for ci in list(dead):
                comp = components[ci]
                if all(t in first for t in comp.in_types):
                    dead.remove(ci)
                    placement.append((ci, [first[t] for t in comp.in_types]))
                    first.setdefault(comp.out_type, base + len(placement) - 1)
                    parked = True
        if pos < len(cone):
            ci = cone[pos]
            ports = [i + 1 if kind == "col" else cone_slots[i] for kind, i in wirings[pos]]
            cone_slots.append(base + len(placement))
            first.setdefault(components[ci].out_type, cone_slots[-1])
            placement.append((ci, ports))
    if dead:
        raise RuntimeError("could not place unused components below the result")
    model = problem.fixed_assignment()
    for slot, (ci, ports) in enumerate(placement, base):
        uid = components[ci].uid
        model[f"l_out_{uid}"] = slot
        model.update((f"l_arg_{uid}_{k}", port) for k, port in enumerate(ports))
    return model
