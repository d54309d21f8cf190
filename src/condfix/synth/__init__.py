"""Component-based synthesis of replacement boolean expressions."""

from .components import (
    ARITHMETIC_TAGS, BOOL, COMPARISON_TAGS, Component, INT, LOGICAL_TAGS,
    MAX_LEVEL, MIN_LEVEL, REAL, components_for_level,
)
from .expr import App, Leaf, PatchExpression, evaluate, to_minilang, to_source
from .internal import (
    DEFAULT_NODE_BUDGET, SAT, SolveResult, TIMEOUT, UNSAT, solve_internal,
)
from .problem import SynthesisProblem, decode, encode, encode_with_components
from .smtlib import emit_smtlib, parse_solver_output, solve, solve_external

__all__ = [
    "ARITHMETIC_TAGS", "BOOL", "COMPARISON_TAGS", "Component", "INT",
    "LOGICAL_TAGS", "MAX_LEVEL", "MIN_LEVEL", "REAL", "components_for_level",
    "App", "Leaf", "PatchExpression", "decode", "evaluate",
    "to_minilang", "to_source",
    "DEFAULT_NODE_BUDGET", "SAT", "SolveResult", "TIMEOUT", "UNSAT",
    "solve_internal",
    "SynthesisProblem", "encode", "encode_with_components",
    "emit_smtlib", "parse_solver_output", "solve", "solve_external",
]
