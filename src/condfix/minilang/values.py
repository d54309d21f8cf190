"""Runtime values: booleans, 64-bit wrapping integers, reals, null, records;
and the one table of operator semantics (``OPERATORS``,
``UNARY_OPERATORS``)."""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Callable, NamedTuple, Optional, Tuple, Union

INT_BITS = 64
INT_MIN = -(1 << (INT_BITS - 1))
INT_MAX = (1 << (INT_BITS - 1)) - 1
_INT_MOD = 1 << INT_BITS


class Null:
    """Singleton null reference, only valid where a class type is declared."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "null"


NULL = Null()


@dataclass(frozen=True)
class Obj:
    """Record instance: a class tag plus an opaque payload that the state
    queries of ``registry.QUERIES`` compute on."""

    cls: str
    payload: Any


# Type aliases name condfix classes as strings: typing caches each alias,
# and one that held the classes would keep their module, with every module
# its functions reach, alive after a re-import drops it.
Value = Union[bool, int, float, "Null", "Obj"]

PRIMITIVE_TYPES = ("bool", "int", "real")  # the declared types that are not classes


def wrap_int(x: int) -> int:
    """Two's-complement wrap into the signed 64-bit range."""
    return ((x - INT_MIN) % _INT_MOD) + INT_MIN


def divide(left, right):
    """``/`` before the wrap: an int quotient truncates toward zero."""
    if type(left) is int:
        q = abs(left) // abs(right)
        return q if (left >= 0) == (right >= 0) else -q
    return left / right


def modulo(left, right):
    """``%`` of two ints: the remainder takes the dividend's sign."""
    r = abs(left) % abs(right)
    return r if left >= 0 else -r


class Operator(NamedTuple):
    """One operator's semantics. Its operands share one of ``operands``,
    else it raises TypeMismatch. Its result is a bool, or with ``result``
    None of the operands' type, where an int result out of range wraps to
    signed 64 bits. With ``zero_throws`` a right operand equal to zero (an
    int 0 or a real ±0.0) raises DivisionByZero before ``fn`` runs.
    With ``commutes`` swapping the operands never changes the result, on
    every pair of values of one operand type, so ``fn(a, b) == fn(b, a)``;
    the solver reads it to skip a wiring that mirrors one it tried.
    ``code`` writes ``fn`` in Python over the operand texts ``{0}`` and
    ``{1}``, for the interpreter's generated code, whose globals hold
    ``divide`` and ``modulo``."""

    operands: Tuple[type, ...]
    result: Optional[type]
    fn: Callable
    code: str
    zero_throws: bool = False
    commutes: bool = False


_NUMBERS = (int, float)
# ``==``/``!=`` and ``&&``/``||`` keep rules of their own beyond these
# entries: an object or null compares with any value (the interpreter's
# ``_equal``), and the right operand of ``&&``/``||`` runs only when the
# left one does not decide.
OPERATORS = {
    "||": Operator((bool,), bool, operator.or_, "({0} or {1})", commutes=True),
    "&&": Operator((bool,), bool, operator.and_, "({0} and {1})", commutes=True),
    "==": Operator((bool, int, float), bool, operator.eq, "({0} == {1})", commutes=True),
    "!=": Operator((bool, int, float), bool, operator.ne, "({0} != {1})", commutes=True),
    "<": Operator(_NUMBERS, bool, operator.lt, "({0} < {1})"),
    "<=": Operator(_NUMBERS, bool, operator.le, "({0} <= {1})"),
    ">": Operator(_NUMBERS, bool, operator.gt, "({0} > {1})"),
    ">=": Operator(_NUMBERS, bool, operator.ge, "({0} >= {1})"),
    "+": Operator(_NUMBERS, None, operator.add, "({0} + {1})", commutes=True),
    "-": Operator(_NUMBERS, None, operator.sub, "({0} - {1})"),
    "*": Operator(_NUMBERS, None, operator.mul, "({0} * {1})", commutes=True),
    "/": Operator(_NUMBERS, None, divide, "divide({0}, {1})", zero_throws=True),
    "%": Operator((int,), None, modulo, "modulo({0}, {1})", zero_throws=True),
}
UNARY_OPERATORS = {
    "!": Operator((bool,), bool, operator.not_, "(not {0})"),
    "-": Operator(_NUMBERS, None, operator.neg, "(-{0})"),
}


def matches_declared(v: Value, declared: str) -> bool:
    """A value fits a declared type; null fits any class type."""
    if declared == "bool":
        return isinstance(v, bool)
    if declared == "int":
        return isinstance(v, int) and not isinstance(v, bool)
    if declared == "real":
        return isinstance(v, float)
    return isinstance(v, Null) or (isinstance(v, Obj) and v.cls == declared)


def format_value(v: Value) -> str:
    """Render a value in MiniLang literal syntax (round-trips via the parser).
    An object renders as its class applied to its payload as a string
    literal, escaped as the lexer reads it. A payload holding a surrogate
    code point has no literal form: a ValueError."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_real(v)
    if isinstance(v, Null):
        return "null"
    if isinstance(v, Obj):
        text = "".join(_ESCAPES.get(c, c) for c in str(v.payload))
        if _SURROGATE.search(text):
            raise ValueError(f"{v.cls} payload {v.payload!r} holds a surrogate code point")
        return f'{v.cls}("{text}")'
    raise TypeError(f"not a MiniLang value: {v!r}")


# The escapes the lexer reads in a string literal, by the character each
# stands for. Every other character ``str.splitlines`` breaks a line at is
# written ``\u{hex}``, so a rendered value stays on its line of a suite or
# grid.
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}
_ESCAPES.update((c, f"\\u{{{ord(c):x}}}") for c in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
_SURROGATE = re.compile("[\ud800-\udfff]")


def format_real(x: float) -> str:
    """Shortest round-trip decimal form, never scientific notation."""
    if x != x or x in (float("inf"), float("-inf")):
        # Special values cannot appear in source or suites; propagate-only.
        return repr(x)
    text = repr(float(x))
    if "e" in text:
        # Expand the shortest digits themselves: format(x, "f") keeps only
        # 6 decimals, so 1e-07 would read 0.0.
        text = format(Decimal(text), "f")
    if "." not in text:
        text += ".0"
    return text
