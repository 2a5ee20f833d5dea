"""The interning pool for attribute names.

Hot lookup paths probe dictionaries keyed by attribute-name strings
(resolution-plan entries, slot-index maps, member memos).  CPython's dict
probe short-circuits on *identity* before falling back to ``__eq__`` — so
handing every subsystem the one canonical instance of each name turns the
common hit into a pointer compare.

The pool is process-global (types exist outside any single database) and
exposed per-catalog through :attr:`repro.engine.catalog.Catalog.interning`,
so engine code interns "at creation time" through the catalog it is
already holding.  :func:`intern_name` is built on :func:`sys.intern`, so
the pool cooperates with CPython's own identifier interning (parsed query
identifiers and schema declarations meet in the same instance).

Surrogates are not pooled: every one is built fresh by its generator or
by persistence, and equality compares ``(value, space)``.
"""

from __future__ import annotations

import sys
from typing import Dict

__all__ = ["InternPool", "intern_name", "interning_stats"]

#: Canonical attribute-name strings.  Values come from ``sys.intern`` so a
#: pooled name is *the* interpreter-wide instance of its spelling.
_NAMES: Dict[str, str] = {}


def intern_name(name: str) -> str:
    """The canonical instance of an attribute/member name string."""
    pooled = _NAMES.get(name)
    if pooled is None:
        pooled = _NAMES[name] = sys.intern(name)
    return pooled


def interning_stats() -> Dict[str, int]:
    """Pool size (diagnostics / tests)."""
    return {"interning.names": len(_NAMES)}


class InternPool:
    """Facade over the shared pool, exposed as ``catalog.interning``.

    All catalogs share one pool by design — a name interned while defining
    a type in one database must be the same instance another database's
    query parser receives, or the identity fast path would silently
    degrade to string compares across databases.
    """

    __slots__ = ()

    def name(self, name: str) -> str:
        """Intern an attribute/member name string."""
        return intern_name(name)

    def stats(self) -> Dict[str, int]:
        return interning_stats()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<InternPool names={interning_stats()['interning.names']}>"
