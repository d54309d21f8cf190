"""One counted budget with an optional wall-clock deadline.

The interpreter counts steps and the built-in solver counts search nodes
through ``Budget``. Counting is one increment and one compare against
``limit``: the cap when there is no deadline, else the count just before
the next clock read, if that comes before the cap. Only when the count
passes ``limit`` does ``check`` run. It raises ``Exhausted`` once the
count passes the cap. Otherwise the count sits on a multiple of
``CLOCK_EVERY``, so it reads the clock: past the deadline it raises
``DeadlineExceeded``, else it moves ``limit`` to the next read. A clock
read never changes a count, so a deadline that does not pass leaves every
count as it is without one.

Deadlines are absolute ``budget.now()`` seconds, and ``None`` is the only
value that means no deadline. ``now`` is the engine's one clock.
"""
from __future__ import annotations

import time
from typing import Optional

from .errors import DeadlineExceeded

CLOCK_EVERY = 4096

now = time.monotonic


def seconds_left(deadline: float) -> float:
    """The seconds until ``deadline``; raises DeadlineExceeded once it has
    passed."""
    left = deadline - now()
    if left <= 0:
        raise DeadlineExceeded()
    return left


class Exhausted(Exception):
    """The count passed its cap."""


class Budget:
    __slots__ = ("count", "cap", "deadline", "limit")

    def __init__(self, cap: int, deadline: Optional[float] = None):
        self.count = 0
        self.cap = cap
        self.deadline = deadline
        self.limit = cap if deadline is None else min(cap, CLOCK_EVERY - 1)

    def advance(self, count: int = 1) -> None:
        """Count ``count`` at once, as if each was counted alone: the count
        stops on the first one that passes the cap or reads the clock past
        the deadline."""
        end = self.count + count
        while end > self.limit:
            self.count = self.limit + 1
            self.check()
        self.count = end

    def check(self) -> None:
        """Act on a count one past ``limit`` (see the module docstring)."""
        if self.count > self.cap:
            raise Exhausted()
        if now() > self.deadline:
            raise DeadlineExceeded()
        self.limit = min(self.cap, self.count + CLOCK_EVERY - 1)

