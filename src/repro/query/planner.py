"""Sargable-predicate planner: index-scan vs full-scan selection.

The executor used to walk every candidate of the ``from`` source and
evaluate the whole ``where`` per object.  The planner sits in front of
that loop:

1. **Source resolution** — ``from`` names a class (extent) first, falling
   back to a type (all live conforming objects, served by the
   :class:`~repro.query.indexes.IndexManager`'s per-type extent index).

2. **Sarg extraction** — the parsed ``where`` AST is flattened over
   top-level ``and`` conjuncts; every ``Name <cmp> <constant>`` conjunct
   (either side, operators ``= < <= > >=``) is a *search argument*.
   Constants are literals, negated numeric literals, and — matching the
   paper's unquoted enum-label convention (``Function = NAND``) — bare
   identifiers that provably resolve on **no** live candidate type, so
   they evaluate to their own spelling everywhere.

3. **Costing** — each equality sarg is one access path, and every range
   sarg on one attribute joins that attribute's one *interval* (``Length
   >= a and Length <= b`` is probed as ``[a, b]``, not as one bound plus a
   residual filter).  Each path asks the index manager for a value index
   (built lazily on first use once the source holds at least
   ``min_index_source`` objects) and gets a cardinality estimate: exact
   bucket size for equality, two bisects for an interval.  The cheapest
   access path wins if it beats the full scan.

4. **Candidates** — an index lookup returns a *superset* of the matching
   objects in the source's scan order (unhashable values ride along in an
   always-included pool; per-candidate epoch validation self-heals stale
   entries).  The executor re-applies the full ``where`` to every
   candidate, so planner choices can never change query results — only
   how many objects are touched.

The chosen plan is recorded as a :class:`QueryPlan` on the result
(``run_query(..., explain=True)``, CLI ``repro query --explain``) with
estimated vs actual row counts.

Known (documented) divergence: a conjunct that *raises* for objects the
index skips — e.g. ``Weight = 5 and -'x' > 0`` over a source where
``Weight = 5`` matches nothing — raises under a full scan but not under
an index scan, because the residual filter only runs on candidates.
Predicates that evaluate without error are always byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import resolution as _resolution
from ..errors import QueryError, UnknownTypeError
from ..expr.ast import Binary, Literal, Name, Node, Unary

__all__ = ["QueryPlan", "Sarg", "extract_sargs", "plan_source", "resolve_source"]

_COMPARISONS = frozenset(["=", "<", "<=", ">", ">="])
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


class _ClassSource:
    """A named extent as a query source."""

    kind = "class"

    def __init__(self, db, extent):
        self.db = db
        self.extent = extent
        self.name = extent.name

    def size(self) -> int:
        return len(self.extent)

    def fetch_all(self):
        return self.extent.members()

    def fetch_groups(self):
        return split_by_type(self.extent.members(), self.concrete_types())

    def concrete_types(self):
        return [
            concrete
            for concrete, count in self.extent._type_counts.items()
            if count > 0
        ]

    def source_type(self):
        return self.extent.object_type

    def ordered(self, candidates):
        order = self.extent._order
        return sorted(candidates, key=lambda obj: order.get(obj.surrogate, 0))


class _TypeSource:
    """All live objects of a type (subtypes included) as a query source."""

    kind = "type"

    def __init__(self, db, type_):
        self.db = db
        self.type_ = type_
        self.name = type_.name

    def size(self) -> int:
        return self.db.indexes.type_population(self.type_)

    def fetch_all(self):
        return self.db.indexes.objects_of_type(self.type_)

    def fetch_groups(self):
        return self.db.indexes.type_groups_of(self.type_)

    def concrete_types(self):
        return self.db.indexes.concrete_types_of(self.type_)

    def source_type(self):
        return self.type_

    def ordered(self, candidates):
        order = self.db.indexes._adopt_order
        return sorted(candidates, key=lambda obj: order.get(obj.surrogate, 0))


def resolve_source(db, name: str):
    """Resolve a ``from`` name: class extent first, then type."""
    try:
        return _ClassSource(db, db.class_(name))
    except UnknownTypeError:
        pass
    try:
        return _TypeSource(db, db.catalog.type(name))
    except UnknownTypeError:
        raise QueryError(
            f"{name!r} names neither a class nor a type in this database"
        ) from None


def class_source(db, extent) -> _ClassSource:
    """Wrap an already-resolved extent (``Database.select``'s path)."""
    return _ClassSource(db, extent)


def split_by_type(candidates, concrete_types) -> List[Tuple[Any, List[Any]]]:
    """``candidates`` as ``(concrete type, objects)`` groups, source order
    kept within each group; one pass, none when there is one type."""
    if len(concrete_types) == 1:
        return [(concrete_types[0], candidates)] if candidates else []
    groups: Dict[Any, List[Any]] = {}
    for obj in candidates:
        group = groups.get(obj.object_type)
        if group is None:
            group = groups[obj.object_type] = []
        group.append(obj)
    return list(groups.items())


# ---------------------------------------------------------------------------
# sarg extraction
# ---------------------------------------------------------------------------


@dataclass
class Sarg:
    """One sargable conjunct: ``attr <op> key`` with a constant key."""

    attr: str
    op: str
    key: Any
    text: str


def _conjuncts(node: Node) -> List[Node]:
    """Flatten a top-level ``and`` chain into its conjuncts."""
    out: List[Node] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Binary) and current.op == "and":
            stack.append(current.right)
            stack.append(current.left)
        else:
            out.append(current)
    return out


_NOT_CONSTANT = object()


def _fold_constant(node: Node, concrete_types) -> Any:
    """The constant value ``node`` evaluates to for *every* candidate, or
    :data:`_NOT_CONSTANT`.

    Bare identifiers fold to their own spelling only when no live
    candidate type can resolve them — no plan entry, no relationship
    role, no dynamic attributes — mirroring ``Name.evaluate``'s
    unresolved-as-literal fallback.
    """
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Unary) and node.op == "-":
        inner = _fold_constant(node.operand, concrete_types)
        if (inner is _NOT_CONSTANT or isinstance(inner, bool)
                or not isinstance(inner, (int, float))):
            return _NOT_CONSTANT
        return -inner
    if isinstance(node, Name):
        identifier = node.identifier
        for concrete in concrete_types:
            if getattr(concrete, "allow_dynamic", False):
                return _NOT_CONSTANT
            if identifier in _resolution.plan_for(concrete).entries:
                return _NOT_CONSTANT
            participants = getattr(concrete, "participants", None)
            if participants and identifier in participants:
                return _NOT_CONSTANT
        return identifier
    return _NOT_CONSTANT


def _text(conjunct: Binary) -> str:
    """A conjunct as written, without the outer parentheses of
    ``unparse`` (an interval joins several with ``and``)."""
    return f"{conjunct.left.unparse()} {conjunct.op} {conjunct.right.unparse()}"


def extract_sargs(where: Node, concrete_types) -> List[Sarg]:
    """Sargable conjuncts of ``where`` against the given candidate types."""
    sargs: List[Sarg] = []
    for conjunct in _conjuncts(where):
        if not isinstance(conjunct, Binary) or conjunct.op not in _COMPARISONS:
            continue
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        left_const = _fold_constant(left, concrete_types)
        right_const = _fold_constant(right, concrete_types)
        if left_const is not _NOT_CONSTANT and right_const is not _NOT_CONSTANT:
            continue  # constant conjunct: nothing to index
        if isinstance(left, Name) and right_const is not _NOT_CONSTANT:
            sargs.append(Sarg(left.identifier, op, right_const, _text(conjunct)))
        elif isinstance(right, Name) and left_const is not _NOT_CONSTANT:
            sargs.append(
                Sarg(right.identifier, _FLIP[op], left_const, _text(conjunct))
            )
    return sargs


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


@dataclass
class QueryPlan:
    """An inspectable record of how one query was executed.

    ``access_path`` is ``full-scan``, ``index-eq`` or ``index-range``;
    ``estimated_candidates`` is the planner's pre-execution estimate while
    ``candidates``/``rows`` are filled in by the executor (estimated vs
    actual).  ``notes`` records why alternatives were rejected.
    """

    source_name: str
    source_kind: str
    source_size: int
    access_path: str = "full-scan"
    index_attr: Optional[str] = None
    sarg: str = ""
    estimated_candidates: int = 0
    candidates: Optional[int] = None
    rows: Optional[int] = None
    order: str = "none"
    text: str = ""
    notes: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """Multi-line EXPLAIN rendering (the CLI's ``--explain`` output)."""
        lines = [f"plan: {self.text}" if self.text else "plan:"]
        lines.append(
            f"  source:  {self.source_kind} {self.source_name}"
            f" ({self.source_size} objects)"
        )
        access = self.access_path
        if self.index_attr is not None:
            access += f" on {self.index_attr!r} [{self.sarg}]"
        lines.append(f"  access:  {access}")
        actual = ""
        if self.candidates is not None:
            actual += f"  candidates={self.candidates}"
        if self.rows is not None:
            actual += f"  matched={self.rows}"
        lines.append(f"  rows:    estimated={self.estimated_candidates}{actual}")
        if self.order != "none":
            lines.append(f"  order:   {self.order}")
        for note in self.notes:
            lines.append(f"  note:    {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def _access_paths(sargs: List[Sarg]) -> List[Tuple[str, List[Sarg]]]:
    """Group sargs into candidate access paths, in first-appearance order:
    each equality is its own path, and every range sarg on one attribute
    joins that attribute's one interval."""
    paths: List[Tuple[str, List[Sarg]]] = []
    intervals: Dict[str, List[Sarg]] = {}
    for sarg in sargs:
        if sarg.op == "=":
            paths.append(("index-eq", [sarg]))
        elif sarg.attr in intervals:
            intervals[sarg.attr].append(sarg)
        else:
            intervals[sarg.attr] = [sarg]
            paths.append(("index-range", intervals[sarg.attr]))
    return paths


def plan_source(
    db, source, where: Optional[Node], text: str = "", by_type: bool = False
) -> Tuple[QueryPlan, List[Any]]:
    """Choose an access path for ``source`` filtered by ``where``.

    Returns the plan plus the candidate objects in source scan order —
    or, with ``by_type``, the candidates as ``(concrete type, objects)``
    groups (source order within each group), which a type source serves
    from its per-type buckets without merging them.  Candidates are a
    superset of the matches; the caller must still apply the full
    ``where``.
    """
    manager = db.indexes
    size = source.size()
    plan = QueryPlan(
        source_name=source.name,
        source_kind=source.kind,
        source_size=size,
        estimated_candidates=size,
        text=text,
    )
    best = None
    if where is not None and manager.auto and size > 0:
        concrete_types = source.concrete_types()
        for path, sargs in _access_paths(extract_sargs(where, concrete_types)):
            attr = sargs[0].attr
            index = manager.usable_value_index(
                source.kind, source.name, source.source_type(), attr, size
            )
            if index is None:
                plan.notes.append(
                    f"{attr}: source below index threshold "
                    f"({size} < {manager.min_index_source})"
                )
                continue
            if path == "index-eq":
                probe = sargs[0].key
                estimate = index.estimate_eq(probe)
            else:
                unsafe = [s for s in sargs if not index.range_supported(s.key)]
                for sarg in unsafe:
                    plan.notes.append(
                        f"{sarg.text}: values not uniformly comparable with "
                        f"{sarg.key!r}; range scan unsafe"
                    )
                if unsafe:
                    continue
                probe = index.range_span([(sarg.op, sarg.key) for sarg in sargs])
                estimate = probe[1] - probe[0]
            if best is None or estimate < best[0]:
                best = (estimate, path, sargs, index, probe)

    if best is not None and best[0] < size:
        estimate, path, sargs, index, probe = best
        if path == "index-eq":
            candidates = index.lookup_eq(probe)
        else:
            candidates = index.lookup_span(probe)
        index.validate(candidates)
        candidates = source.ordered(candidates)
        if by_type:
            candidates = split_by_type(candidates, concrete_types)
        plan.access_path = path
        plan.index_attr = sargs[0].attr
        plan.sarg = " and ".join(sarg.text for sarg in sargs)
        plan.estimated_candidates = estimate
        manager._bump("index.hits")
    else:
        if best is not None:
            plan.notes.append(
                f"cheapest index ({' and '.join(s.text for s in best[2])}) "
                f"estimated {best[0]} of {size}; full scan kept"
            )
        candidates = source.fetch_groups() if by_type else source.fetch_all()
        if (where is not None and manager.auto
                and size >= manager.min_index_source):
            manager._bump("index.misses")
    return plan, candidates
