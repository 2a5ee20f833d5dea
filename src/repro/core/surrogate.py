"""Surrogate identity.

Section 3 of the paper: *"Automatically, any object has an attribute called
surrogate which allows a system-wide identification of the object and which
is managed by the system."*

A :class:`Surrogate` is an immutable, hashable token.  Surrogates are never
reused within one :class:`SurrogateGenerator`, independent of deletions, and
they order by creation time, which the version and lock managers rely on.

The hash is computed once at construction: surrogates key nearly every
hot dictionary in the engine.  All surrogates of one generator share one
interned space string, so the ``(value, space)`` compares behind equality
and ordering meet the identical string first.
"""

from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True, order=True)
class Surrogate:
    """System-wide identifier of an object or relationship object.

    Parameters
    ----------
    value:
        Monotonically increasing integer assigned by the generator.
    space:
        Name of the identifier space (usually the database name).  Two
        surrogates from different spaces never compare equal even when
        their integer parts collide.
    """

    value: int
    space: str = field(default="db")
    #: Hash of ``(value, space)``, precomputed — excluded from eq/order.
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.value, self.space)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"@{self.space}:{self.value}"

    def __repr__(self) -> str:
        return f"Surrogate({self.value!r}, space={self.space!r})"


class SurrogateGenerator:
    """Thread-safe generator of fresh surrogates for one identifier space.

    >>> gen = SurrogateGenerator("demo")
    >>> a, b = gen.fresh(), gen.fresh()
    >>> a != b and a < b
    True
    """

    def __init__(self, space: str = "db", start: int = 1) -> None:
        if start < 0:
            raise ValueError("surrogate counter must start non-negative")
        # One canonical space string per generator: every surrogate of the
        # space shares it, so eq/order tuple compares hit identity first.
        self._space = sys.intern(space)
        self._counter = itertools.count(start)
        self._lock = threading.Lock()
        self._last = start - 1

    @property
    def space(self) -> str:
        """Identifier space this generator issues surrogates for."""
        return self._space

    @property
    def last_issued(self) -> int:
        """Integer part of the most recently issued surrogate."""
        return self._last

    def fresh(self) -> Surrogate:
        """Return a surrogate never issued before by this generator."""
        with self._lock:
            value = next(self._counter)
            self._last = value
        return Surrogate(value, self._space)

    def fresh_many(self, count: int) -> Iterator[Surrogate]:
        """Yield ``count`` fresh surrogates (convenience for bulk loads)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            yield self.fresh()

    def advance_past(self, value: int) -> None:
        """Ensure future surrogates exceed ``value`` (used after a load)."""
        with self._lock:
            if value >= self._last:
                self._counter = itertools.count(value + 1)
                self._last = value
