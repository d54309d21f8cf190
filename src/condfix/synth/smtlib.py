"""SMT-LIB2 emission and the external solver backend.

Scripts are reproducible byte for byte for a given problem: declarations
and assertions follow the canonical element order of the problem. The
wiring constraints quantify nothing; per-row value variables are expanded
eagerly, so any SMT-LIB2-conforming solver can be used via a subprocess
(`sat`/`unsat`/`unknown` on the first line, then the `get-value` form).
Int arithmetic wraps to signed 64 bits, as in MiniLang, so a model means
the same here as in the built-in backend and the interpreter.
"""
from __future__ import annotations

import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import SolverBackendError
from ..minilang import format_real
from ..minilang.values import INT_BITS, INT_MIN
from .components import BOOL, INT, REAL, SMT_SYMBOLS, Component
from .internal import DEFAULT_NODE_BUDGET, SAT, TIMEOUT, UNSAT, SolveResult, solve_internal
from .problem import SynthesisProblem

_SORTS = {BOOL: "Bool", INT: "Int", REAL: "Real"}

# Two's-complement wrap of an Int term into the signed 64-bit range.
_WRAP_INT = f"(- (mod (+ {{}} {-INT_MIN}) {1 << INT_BITS}) {-INT_MIN})"


def _smt_literal(value, type_: str) -> str:
    if type_ == BOOL:
        return "true" if value else "false"
    if type_ == INT:
        return str(value) if value >= 0 else f"(- {-value})"
    # Reals use the shortest round-trip decimal form; pathological floats
    # whose decimal reading differs from the binary value are tolerated.
    text = format_real(abs(value))
    return f"(- {text})" if value < 0 else text


def emit_smtlib(problem: SynthesisProblem) -> str:
    """Serialize the full constraint system, ending with check-sat and a
    get-value over every location variable."""
    lines: List[str] = ["(set-logic ALL)"]
    lvars = problem.location_variables()
    for name in lvars:
        lines.append(f"(declare-const {name} Int)")

    fixed = problem.fixed_assignment()
    for name, slot in fixed.items():
        lines.append(f"(assert (= {name} {slot}))")

    lo, hi = problem.output_slot_range()
    for e in problem.output_elements:
        lines.append(f"(assert (and (<= {lo} {e.name}) (<= {e.name} {hi})))")

    outputs = problem.output_elements
    for i in range(len(outputs)):
        for j in range(i + 1, len(outputs)):
            lines.append(f"(assert (distinct {outputs[i].name} {outputs[j].name}))")

    for e in problem.port_elements:
        candidates = problem.port_candidates(e)
        if not candidates:
            lines.append("(assert false)")
            continue
        disjuncts = " ".join(f"(= {e.name} {c})" for c in candidates)
        lines.append(f"(assert (or {disjuncts}))")
        own = outputs[e.component_index].name
        lines.append(f"(assert (< {e.name} {own}))")

    if problem.components:
        bool_producers = [e.name for e in problem.column_elements if e.type == BOOL]
        bool_producers += [e.name for e in outputs if e.type == BOOL]
        if bool_producers:
            disjuncts = " ".join(f"(= {p} l_result)" for p in bool_producers)
            lines.append(f"(assert (or {disjuncts}))")
        else:
            lines.append("(assert false)")
    elif not (problem.columns and problem.columns[-1].type == BOOL):
        lines.append("(assert false)")

    for r, (inputs, expected) in enumerate(problem.rows):
        lines.extend(_row_constraints(problem, r, inputs, expected))

    lines.append("(check-sat)")
    lines.append(f"(get-value ({' '.join(lvars)}))")
    return "\n".join(lines) + "\n"


def _row_constraints(problem, r: int, inputs, expected) -> List[str]:
    lines = [f"; row {r}"]
    elements = []  # (location var, value var, type)
    for i, e in enumerate(problem.column_elements):
        vname = f"v_{e.name}_{r}"
        lines.append(f"(declare-const {vname} {_SORTS[e.type]})")
        lines.append(f"(assert (= {vname} {_smt_literal(inputs[i], e.type)}))")
        elements.append((e.name, vname, e.type))
    for e in problem.output_elements + problem.port_elements:
        vname = f"v_{e.name}_{r}"
        lines.append(f"(declare-const {vname} {_SORTS[e.type]})")
        elements.append((e.name, vname, e.type))
    rname = f"v_l_result_{r}"
    lines.append(f"(declare-const {rname} Bool)")
    lines.append(f"(assert (= {rname} {_smt_literal(expected, BOOL)}))")
    elements.append(("l_result", rname, BOOL))

    # Component semantics bind each output value to its argument values.
    for i, comp in enumerate(problem.components):
        out_v = f"v_{problem.output_elements[i].name}_{r}"
        args = [f"v_{name}_{r}" for name in problem.port_names[i]]
        lines.append(f"(assert (= {out_v} {_apply_smt(comp, args)}))")

    # Same slot, same type: same value.
    for a in range(len(elements)):
        for b in range(a + 1, len(elements)):
            la, va, ta = elements[a]
            lb, vb, tb = elements[b]
            if ta != tb:
                continue
            lines.append(f"(assert (=> (= {la} {lb}) (= {va} {vb})))")
    return lines


def _apply_smt(comp: Component, args: Sequence[str]) -> str:
    term = f"({SMT_SYMBOLS[comp.tag]} {' '.join(args)})"
    return _WRAP_INT.format(term) if comp.wraps else term


def parse_solver_output(output: str, lvars: Sequence[str]) -> SolveResult:
    lines = [l.strip() for l in output.splitlines() if l.strip()]
    if not lines:
        raise SolverBackendError("empty solver output")
    status = lines[0]
    if status == "unsat":
        return SolveResult(UNSAT)
    if status == "unknown":
        return SolveResult(TIMEOUT)
    if status != "sat":
        raise SolverBackendError(f"unrecognized solver status {status!r}")
    body = " ".join(lines[1:])
    model = _parse_get_value(body)
    missing = [v for v in lvars if v not in model]
    if missing:
        raise SolverBackendError(f"model is missing variables: {missing[:4]}")
    return SolveResult(SAT, model)


def _parse_get_value(text: str) -> Dict[str, int]:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def read(pos):
        if tokens[pos] == "(":
            items = []
            pos += 1
            while tokens[pos] != ")":
                item, pos = read(pos)
                items.append(item)
            return items, pos + 1
        return tokens[pos], pos + 1

    if not tokens:
        raise SolverBackendError("missing get-value response")
    tree, _ = read(0)
    model: Dict[str, int] = {}
    for pair in tree:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SolverBackendError(f"malformed get-value pair: {pair!r}")
        name, value = pair
        if isinstance(value, list):
            # negative integers print as (- n)
            if len(value) == 2 and value[0] == "-":
                value = f"-{value[1]}"
            else:
                raise SolverBackendError(f"unsupported value term {value!r}")
        model[name] = int(value)
    return model


def solve_external(
    problem: SynthesisProblem, command: str, timeout_s: Optional[float] = None
) -> SolveResult:
    """Run an SMT-LIB2 solver as a child process on the emitted script.

    The configured command receives the script path as its final argument.
    A failed process or unparseable output raises SolverBackendError,
    which is distinct from an unsat answer. ``timeout_s`` is real time, the
    ``subprocess`` timeout, not seconds on ``budget.now``.
    """
    script = emit_smtlib(problem)
    argv = shlex.split(command)
    with tempfile.TemporaryDirectory(prefix="condfix-smt-") as tmp:
        path = Path(tmp) / "problem.smt2"
        path.write_text(script)
        try:
            proc = subprocess.run(
                argv + [str(path)],
                capture_output=True,
                text=True,
                timeout=timeout_s,
            )
        except subprocess.TimeoutExpired:
            return SolveResult(TIMEOUT)
        except OSError as exc:
            raise SolverBackendError(f"cannot run solver {command!r}: {exc}") from exc
    if proc.returncode not in (0, 1):  # some solvers exit 1 on unsat
        raise SolverBackendError(
            f"solver exited with {proc.returncode}: {proc.stderr.strip()[:200]}"
        )
    return parse_solver_output(proc.stdout, problem.location_variables())


def solve(
    problem: SynthesisProblem,
    backend: Optional[str] = None,
    timeout_s: Optional[float] = 60.0,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    *,
    deadline: Optional[float] = None,
) -> SolveResult:
    """Solve via the internal backend (backend=None) or an external solver
    command. The internal backend's deadline is ``timeout_s`` from now,
    capped at ``deadline`` (a time on ``budget.now``); an external solver
    gets ``timeout_s`` only. A Sat model is structurally re-checked before
    it is returned."""
    if backend is None:
        result = solve_internal(problem, timeout_s, max_nodes, deadline=deadline)
    else:
        result = solve_external(problem, backend, timeout_s)
    if result.is_sat:
        violations = problem.check_model(result.model)
        if violations:
            raise SolverBackendError(
                "solver returned a structurally invalid model: " + "; ".join(violations[:3])
            )
    return result
