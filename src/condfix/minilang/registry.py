"""The table of argumentless, side-effect-free state query methods.

Classes have no user-definable methods; the only callable surface on a
record value is the set of queries ``QUERIES`` lists for its class tag.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class QueryMethod:
    name: str
    return_type: str  # bool | int | real
    fn: Callable[[Any], object]


# Class tag -> query name -> query.
QUERIES = {
    "Str": {
        "length": QueryMethod("length", "int", len),
        "isEmpty": QueryMethod("isEmpty", "bool", lambda p: len(p) == 0),
    },
}
