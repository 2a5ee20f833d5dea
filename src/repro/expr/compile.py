"""Compilation of constraint expressions to slot-program closures.

The tree-walking ``Node.evaluate`` interpreter pays, per object, a fresh
:class:`~repro.expr.context.EvalContext`, a binding-chain probe per name
and a ``get_member`` protocol call per member access.  For an unindexed
scan or a constraint sweep that cost dominates.

This module compiles an expression **once per (shape, type, schema
epoch)** into a plain Python function over live objects.  The *shape* is
the AST with its literals lifted out as typed placeholders: queries that
differ only in their constants share one program, generated as a factory
over the literals, and each node binds its own values into it.

* member names that the type's :class:`~repro.core.resolution.ResolutionPlan`
  binds to a plain stored attribute become a direct **slot read** —
  ``column[obj._row]`` against the type's :class:`~repro.core.slots.TypeStore`
  column, with the spec default on an UNSET cell;
* ``surrogate`` becomes an attribute load;
* names that resolve through inheritance relationships, containers,
  participant roles, or dynamic binding fall back to a tiny closure around
  the interpretive member protocol (still compiled, just not slot-fast);
* aggregates and quantifiers evaluate their subtree with the ordinary
  tree walk (they carry binder scopes the slot program cannot see); the
  subtree is a per-node binding, so its literals are always the node's
  own;
* operators are generated as source text and ``exec``-compiled, reusing
  the interpreter's own helpers (``truthy``/``_equal``/``_numeric``…) so
  MISSING propagation, string concatenation, division-by-zero errors and
  comparison ``TypeError`` wrapping are **bit-for-bit identical** to
  ``Node.evaluate``.  The interpreter stays available as the testing
  oracle.

Contract: compiled functions assume a *live* object of the compiled type
(callers filter deleted objects first) and **bindings-free** evaluation —
exactly the shape of query predicates and type-anchored integrity
constraints.  Binding-carrying evaluations keep using the interpreter.

Programs are cached by ``(shape, id(type))``, and a bounded cache keyed
by ``(id(node), id(type))`` keeps each repeated node's bound program one
dict probe away (strong references retained, so ids are never reused
while keyed).  Both are validated against the schema epoch
(``catalog.schema_epoch`` proxies the same counter): a DDL change drops
every compiled program and the next use recompiles against the refreshed
plan and store layout.

:func:`compile_info` reports why an expression is not fully slot-compiled;
the ``dynamic-name`` reason kind feeds the REP504 analyzer advisory.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import resolution as _resolution
from ..core.slots import UNSET, store_for
from ..errors import ExprEvaluationError, UnknownAttributeError
from .ast import (
    Aggregate,
    Binary,
    Literal,
    Name,
    Node,
    Path,
    Quantified,
    Unary,
    _equal,
    _numeric,
    truthy,
)
from .context import MISSING, EvalContext, as_collection, resolve_member

__all__ = [
    "CompiledExpr",
    "CompileInfo",
    "compile_expression",
    "compile_predicate",
    "compile_info",
    "compiled_for",
    "invalidate_cache",
]


# ---------------------------------------------------------------------------
# Runtime helpers shared by every generated program.  Each replicates one
# operator branch of ``Binary.evaluate`` / ``Unary.evaluate`` exactly,
# including error messages.
# ---------------------------------------------------------------------------


def _path(value: Any, segments: Tuple[str, ...]) -> Any:
    for segment in segments:
        value = resolve_member(value, segment)
        if value is MISSING:
            return MISSING
    return value


def _in(left: Any, right: Any) -> bool:
    return any(_equal(left, element) for element in as_collection(right))


def _make_cmp(op: str, fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], bool]:
    def cmp(left: Any, right: Any) -> bool:
        if left is MISSING or right is MISSING:
            return False
        try:
            return fn(left, right)
        except TypeError as exc:
            raise ExprEvaluationError(
                f"cannot compare {left!r} {op} {right!r}"
            ) from exc

    return cmp


_lt = _make_cmp("<", lambda a, b: a < b)
_le = _make_cmp("<=", lambda a, b: a <= b)
_gt = _make_cmp(">", lambda a, b: a > b)
_ge = _make_cmp(">=", lambda a, b: a >= b)


def _add(left: Any, right: Any) -> Any:
    if isinstance(left, str) and isinstance(right, str):
        return left + right
    return _numeric(left, "+") + _numeric(right, "+")


def _sub(left: Any, right: Any) -> Any:
    return _numeric(left, "-") - _numeric(right, "-")


def _mul(left: Any, right: Any) -> Any:
    return _numeric(left, "*") * _numeric(right, "*")


def _div(left: Any, right: Any) -> Any:
    left = _numeric(left, "/")
    right = _numeric(right, "/")
    if right == 0:
        raise ExprEvaluationError("division by zero")
    return left / right


def _mod(left: Any, right: Any) -> Any:
    left = _numeric(left, "%")
    right = _numeric(right, "%")
    if right == 0:
        raise ExprEvaluationError("modulo by zero")
    return left % right


def _neg(value: Any) -> Any:
    return -_numeric(value, "-")


_BASE_ENV: Dict[str, Any] = {
    "UNSET": UNSET,
    "MISSING": MISSING,
    "truthy": truthy,
    "_equal": _equal,
    "_path": _path,
    "_in": _in,
    "_lt": _lt,
    "_le": _le,
    "_gt": _gt,
    "_ge": _ge,
    "_add": _add,
    "_sub": _sub,
    "_mul": _mul,
    "_div": _div,
    "_mod": _mod,
    "_neg": _neg,
    "EvalContext": EvalContext,
}

_CMP_HELPER = {"<": "_lt", "<=": "_le", ">": "_gt", ">=": "_ge"}
_ARITH_HELPER = {"+": "_add", "-": "_sub", "*": "_mul", "/": "_div", "%": "_mod"}


class CompileInfo:
    """Why (and how far) an expression compiled to a slot program.

    ``fast`` is true when every name resolved to a direct slot or
    surrogate read and no subtree fell back to interpretation.
    ``reasons`` is a tuple of ``(kind, detail)`` pairs; kinds:

    ``dynamic-name``
        a free name with no static member binding — it resolves
        dynamically (or as its own literal spelling) per object.  This is
        the REP504 advisory trigger.
    ``inherited`` / ``container`` / ``participant`` / ``fallback``
        the name is a member, but binds through the interpretive member
        protocol (inheritance chain, subclass/subrel container,
        relationship role).
    ``aggregate`` / ``quantifier`` / ``path`` / ``opaque``
        the subtree evaluates with the tree-walking interpreter.
    """

    __slots__ = ("fast", "reasons")

    def __init__(self, reasons: Tuple[Tuple[str, str], ...]) -> None:
        self.reasons = reasons
        self.fast = not reasons

    def kinds(self) -> Tuple[str, ...]:
        """Distinct reason kinds, in first-appearance order."""
        seen: List[str] = []
        for kind, _ in self.reasons:
            if kind not in seen:
                seen.append(kind)
        return tuple(seen)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<CompileInfo fast={self.fast} reasons={len(self.reasons)}>"


class CompiledExpr:
    """One compiled program: expression form, predicate form, batch scan."""

    __slots__ = ("expression", "predicate", "scan", "info", "source")

    def __init__(
        self,
        expression: Callable[[Any], Any],
        predicate: Callable[[Any], bool],
        scan: Callable[[Any], Optional[Tuple[int, List[Any]]]],
        info: CompileInfo,
        source: str,
    ) -> None:
        #: ``fn(obj) -> value`` — the ``node.evaluate(EvalContext(obj))``
        #: equivalent (may yield MISSING from path traversal).
        self.expression = expression
        #: ``fn(obj) -> bool`` — ``truthy(node.evaluate(...))``.
        self.predicate = predicate
        #: ``fn(objs) -> (scanned, matched) | None`` — the whole filter
        #: loop generated around the predicate expression: skips deleted
        #: objects, counts the rest, collects matches.  Returns ``None``
        #: when it cannot finish — an object of another type (the slot
        #: columns would be foreign) or a naked TypeError from a raw
        #: comparison; the caller then falls back to the per-object
        #: ``predicate``, which reproduces interpreter semantics exactly.
        self.scan = scan
        self.info = info
        #: Generated source, kept for diagnostics and the slowlog.
        self.source = source


# ---------------------------------------------------------------------------
# Shapes: the AST with its literals lifted out.
# ---------------------------------------------------------------------------

#: Binary operators the codegen emits inline; any other operator hands the
#: whole node to the tree walk.
_INLINE_BINARY = frozenset(
    ["and", "or", "=", "!=", "in", "not in", *_CMP_HELPER, *_ARITH_HELPER]
)


def _shape(node: Node, params: List[Any]) -> Tuple[Any, ...]:
    """The shape key of ``node``; appends its per-node bindings to ``params``.

    A shape is the AST with every :class:`Literal` replaced by a
    placeholder tagged with the value's Python type (the codegen branches
    on ``bool``).  Subtrees the codegen hands to the tree walk
    (aggregates, quantifiers, unknown operators and node kinds) become a
    placeholder too, and the subtree itself is the binding — so literals
    inside them are always the node's own.  Bindings are appended in
    pre-order, left to right, which is the order :class:`_Codegen`
    consumes them in.
    """
    if isinstance(node, Literal):
        params.append(node.value)
        return ("k", type(node.value))
    if isinstance(node, Name):
        return ("n", node.identifier)
    if isinstance(node, Path):
        return ("p", _shape(node.base, params), node.segments)
    if isinstance(node, Unary) and node.op in ("-", "not"):
        return ("u", node.op, _shape(node.operand, params))
    if isinstance(node, Binary) and node.op in _INLINE_BINARY:
        left = _shape(node.left, params)
        return ("b", node.op, left, _shape(node.right, params))
    params.append(node)
    if isinstance(node, Quantified):
        return ("w", "quantifier", "quantifier evaluates interpretively")
    if isinstance(node, Aggregate):
        return (
            "w", "aggregate",
            f"aggregate {node.func}(…) carries binder scope; evaluates "
            f"interpretively",
            node.func == "exists",
        )
    if isinstance(node, Unary):
        return ("w", "opaque", f"unknown unary operator {node.op!r}")
    if isinstance(node, Binary):
        return ("w", "opaque", f"unknown operator {node.op!r}")
    return ("w", "opaque", f"unknown node {type(node).__name__} evaluates interpretively")


class _Codegen:
    """Generates the source of one (shape, type) program.

    Per-node bindings (literal values, interpreted subtrees) are the
    parameters ``k0, k1, …`` of the generated factory, numbered in the
    order :func:`_shape` appended them; everything that depends only on
    the type (slot columns, defaults, member fallbacks) lives in the
    program's globals.
    """

    def __init__(self, type_: Any, obs: Any = None) -> None:
        self.type = type_
        self.plan = _resolution.plan_for(type_, obs)
        self.store = store_for(type_, obs)
        self.env: Dict[str, Any] = dict(_BASE_ENV)
        self.reasons: List[Tuple[str, str]] = []
        self._n = 0
        #: Next factory parameter; reset before each emission pass.
        self.param = 0
        #: When true, comparisons over never-MISSING operands emit the
        #: raw operator instead of the wrapping helper.  A raw compare can
        #: raise a naked TypeError, so this variant is only used inside
        #: the batch scan, whose generated loop catches TypeError and
        #: reports "rerun me per object" — the per-object program then
        #: reproduces the interpreter's exact ExprEvaluationError.
        self.fast_cmp = False

    # -- small utilities -----------------------------------------------------

    def _const(self, prefix: str, value: Any) -> str:
        name = f"{prefix}{self._n}"
        self._n += 1
        self.env[name] = value
        return name

    def _temp(self) -> str:
        name = f"t{self._n}"
        self._n += 1
        return name

    def _next_param(self) -> str:
        name = f"k{self.param}"
        self.param += 1
        return name

    def _member_fallback(self, name: str) -> str:
        """Name accessor through the member protocol (= ctx.lookup)."""

        def acc(obj: Any, _name: str = name) -> Any:
            try:
                return obj.get_member(_name)
            except (KeyError, UnknownAttributeError):
                # Unresolvable names evaluate as their own spelling —
                # the enum-label convention (unresolved_as_literal).
                return _name

        return f"{self._const('n', acc)}(obj)"

    def emit_root(self, shape: Tuple[Any, ...]) -> Tuple[str, bool]:
        """One emission pass over ``shape``: ``(predicate source, is_bool)``."""
        self.param = 0
        src, is_bool, _ = self.emit(shape)
        return src, is_bool

    # -- shape emitters --------------------------------------------------------
    # Each returns ``(source_expr, is_bool, can_be_missing)``.

    def emit(self, shape: Tuple[Any, ...]) -> Tuple[str, bool, bool]:
        tag = shape[0]
        if tag == "k":
            return self._next_param(), shape[1] is bool, False
        if tag == "n":
            return self._emit_name(shape[1])
        if tag == "p":
            base, _, _ = self.emit(shape[1])
            segments = self._const("p", shape[2])
            head = shape[1][1] if shape[1][0] == "n" else "(…)"
            self.reasons.append(
                ("path", f"path {'.'.join((head, *shape[2]))} traverses the "
                         f"member protocol")
            )
            return f"_path({base}, {segments})", False, True
        if tag == "u":
            src, is_bool, _ = self.emit(shape[2])
            if shape[1] == "-":
                return f"_neg({src})", False, False
            inner = src if is_bool else f"truthy({src})"
            return f"(not {inner})", True, False
        if tag == "b":
            return self._emit_binary(shape[1], shape[2], shape[3])
        # "w": the subtree evaluates with the tree walk.
        self.reasons.append((shape[1], shape[2]))
        src = f"{self._next_param()}.evaluate(EvalContext(obj))"
        if shape[1] == "quantifier":
            return src, True, False
        return src, shape[1] == "aggregate" and shape[3], False

    def _emit_name(self, identifier: str) -> Tuple[str, bool, bool]:
        entry = self.plan.entries.get(identifier)
        participants = getattr(self.type, "participants", None)
        if participants and identifier in participants:
            # Relationship roles shadow every member; resolved per object.
            self.reasons.append(
                ("participant", f"name {identifier!r} is a relationship role")
            )
            return self._member_fallback(identifier), False, False
        if entry is None:
            if getattr(self.type, "allow_dynamic", False):
                detail = (
                    f"free name {identifier!r} binds dynamically on "
                    f"{self.type.name!r} (allow_dynamic)"
                )
            else:
                detail = (
                    f"free name {identifier!r} is not a member of "
                    f"{self.type.name!r}; it evaluates as a literal label"
                )
            self.reasons.append(("dynamic-name", detail))
            return self._member_fallback(identifier), False, False
        if entry.kind == "surrogate":
            return "obj.surrogate", False, False
        if (
            entry.kind == "attribute"
            and not entry.rels
            and entry.spec is not None
            and not entry.check_subclass
            and not entry.check_subrel
            and entry.slot is not None
        ):
            # The fast path: a plain stored attribute — one slot read.
            column = self._const("c", self.store.columns[entry.slot])
            default = self._const("d", entry.default)
            temp = self._temp()
            src = f"({default} if ({temp} := {column}[row]) is UNSET else {temp})"
            return src, False, False
        if entry.rels:
            self.reasons.append(
                ("inherited", f"member {identifier!r} resolves through "
                              f"inheritance relationships at runtime")
            )
        elif entry.check_subclass or entry.check_subrel or entry.kind != "attribute":
            self.reasons.append(
                ("container", f"member {identifier!r} is a {entry.kind} "
                              f"container resolved per object")
            )
        else:
            self.reasons.append(
                ("fallback", f"member {identifier!r} needs the interpretive "
                             f"member protocol")
            )
        return self._member_fallback(identifier), False, False

    def _emit_binary(
        self, op: str, left_shape: Tuple[Any, ...], right_shape: Tuple[Any, ...]
    ) -> Tuple[str, bool, bool]:
        left, lbool, lmiss = self.emit(left_shape)
        right, rbool, rmiss = self.emit(right_shape)
        if op in ("and", "or"):
            lsrc = left if lbool else f"truthy({left})"
            rsrc = right if rbool else f"truthy({right})"
            return f"({lsrc} {op} {rsrc})", True, False
        if op == "=":
            if lmiss or rmiss:
                return f"_equal({left}, {right})", True, False
            return f"({left} == {right})", True, False
        if op == "!=":
            if lmiss or rmiss:
                return f"(not _equal({left}, {right}))", True, False
            return f"(not ({left} == {right}))", True, False
        if op == "in":
            return f"_in({left}, {right})", True, False
        if op == "not in":
            return f"(not _in({left}, {right}))", True, False
        helper = _CMP_HELPER.get(op)
        if helper is not None:
            if self.fast_cmp and not lmiss and not rmiss:
                return f"({left} {op} {right})", True, False
            return f"{helper}({left}, {right})", True, False
        return f"{_ARITH_HELPER[op]}({left}, {right})", False, False


def _scan_loop(fast_pred: str, bail: str) -> str:
    """The generated batch filter loop shared by slot and view programs:
    skips deleted objects, counts the rest, collects matches, and answers
    None when it cannot finish (an object of another type, or an
    exception of the ``bail`` kinds)."""
    return (
        "def _scan(objs):\n"
        "    try:\n"
        "        total = len(objs)\n"
        "    except TypeError:\n"
        "        return None\n"
        "    matched = []\n"
        "    append = matched.append\n"
        "    dropped = 0\n"
        "    try:\n"
        "        for obj in objs:\n"
        "            if obj._deleted:\n"
        "                dropped += 1\n"
        "                continue\n"
        "            if obj.object_type is not _scan_type:\n"
        "                return None\n"
        "            row = obj._row\n"
        f"            if {fast_pred}:\n"
        "                append(obj)\n"
        f"    except {bail}:\n"
        "        return None\n"
        "    return (total - dropped, matched)\n"
    )


def _exec_factory(
    gen: _Codegen, body: str, returns: str, filename: str
) -> Tuple[Callable[..., Any], str]:
    """Compile ``body`` (generated functions) inside a factory over
    ``gen``'s per-node bindings ``k0, k1, …`` that returns ``returns``."""
    args = ", ".join(f"k{i}" for i in range(gen.param))
    inner = "".join(f"    {line}\n" for line in f"{body}return {returns}".splitlines())
    source = f"def _factory({args}):\n{inner}"
    env = gen.env
    env["_scan_type"] = gen.type
    exec(compile(source, filename, "exec"), env)
    return env["_factory"], source


class _Program:
    """One compiled (shape, type) program: a factory over per-node bindings."""

    __slots__ = ("factory", "info", "source")

    def __init__(
        self, factory: Callable[..., Any], info: CompileInfo, source: str
    ) -> None:
        self.factory = factory
        self.info = info
        self.source = source

    def bind(self, params: List[Any]) -> CompiledExpr:
        expr, pred, scan = self.factory(*params)
        return CompiledExpr(expr, pred, scan, self.info, self.source)


def _build(shape: Tuple[Any, ...], type_: Any, obs: Any = None) -> _Program:
    gen = _Codegen(type_, obs)
    expr, is_bool = gen.emit_root(shape)
    pred = expr if is_bool else f"truthy({expr})"
    info = CompileInfo(tuple(gen.reasons))
    # Second emission for the batch scan: raw comparisons (fast_cmp).  The
    # scan catches the naked TypeError they may raise and answers None —
    # the caller then reruns per object through the wrapping helpers, so
    # error behavior stays bit-for-bit the interpreter's.
    gen.fast_cmp = True
    fast, fast_bool = gen.emit_root(shape)
    fast_pred = fast if fast_bool else f"truthy({fast})"
    body = (
        f"def _expr(obj):\n    row = obj._row\n    return {expr}\n"
        f"def _pred(obj):\n    row = obj._row\n    return {pred}\n"
        + _scan_loop(fast_pred, "TypeError")
    )
    factory, source = _exec_factory(
        gen, body, "_expr, _pred, _scan", f"<compiled:{type_.name}>"
    )
    return _Program(factory, info, source)


# ---------------------------------------------------------------------------
# The per-epoch caches.
# ---------------------------------------------------------------------------

#: Entries kept per node-keyed cache before it is emptied: the per-node
#: caches only save the shape walk and the factory call for repeated
#: nodes, so dropping them costs one rebind, never a compile.
_NODE_CACHE_LIMIT = 1024

#: (shape, id(type)) -> (type, program): one compiled program per shape.
_programs: Dict[Tuple[Tuple[Any, ...], int], Tuple[Any, _Program]] = {}
#: (id(node), id(type)) -> (node, type, bound program).
_bound: Dict[Tuple[int, int], Tuple[Node, Any, CompiledExpr]] = {}
#: id(node) -> (node, shape, bindings).
_shapes: Dict[int, Tuple[Node, Tuple[Any, ...], List[Any]]] = {}
_cache_epoch: int = -1


def shape_of(node: Node) -> Tuple[Tuple[Any, ...], List[Any]]:
    """``node``'s shape key and per-node bindings (see :func:`_shape`)."""
    hit = _shapes.get(id(node))
    if hit is not None and hit[0] is node:
        return hit[1], hit[2]
    params: List[Any] = []
    shape = _shape(node, params)
    if len(_shapes) >= _NODE_CACHE_LIMIT:
        _shapes.clear()
    _shapes[id(node)] = (node, shape, params)
    return shape, params


def compiled_for(node: Node, type_: Any, obs: Any = None) -> CompiledExpr:
    """The compiled program of ``node`` anchored at ``type_``.

    Programs are compiled once per (shape, type) per schema epoch: queries
    that differ only in their literal values share one program, and each
    node binds its own values into it.  A DDL change invalidates every
    cached program (the epoch is the same counter ``catalog.schema_epoch``
    exposes).  Strong references to the nodes and types are retained so
    identity keys stay valid.
    """
    global _cache_epoch
    if _resolution._SCHEMA_EPOCH != _cache_epoch:
        invalidate_cache()
        _cache_epoch = _resolution._SCHEMA_EPOCH
    key = (id(node), id(type_))
    hit = _bound.get(key)
    if hit is not None and hit[0] is node and hit[1] is type_:
        return hit[2]
    shape, params = shape_of(node)
    program_key = (shape, id(type_))
    entry = _programs.get(program_key)
    if entry is None or entry[0] is not type_:
        entry = _programs[program_key] = (type_, _build(shape, type_, obs))
    compiled = entry[1].bind(params)
    if len(_bound) >= _NODE_CACHE_LIMIT:
        _bound.clear()
    _bound[key] = (node, type_, compiled)
    return compiled


def compile_expression(
    node: Node, type_: Any, obs: Any = None
) -> Callable[[Any], Any]:
    """``fn(obj) -> value`` equivalent to ``node.evaluate(EvalContext(obj))``."""
    return compiled_for(node, type_, obs).expression


def compile_predicate(
    node: Node, type_: Any, obs: Any = None
) -> Callable[[Any], bool]:
    """``fn(obj) -> bool`` equivalent to ``truthy(node.evaluate(...))``."""
    return compiled_for(node, type_, obs).predicate


def compile_info(node: Node, type_: Any, obs: Any = None) -> CompileInfo:
    """Compilability report of ``node`` at ``type_`` (see :class:`CompileInfo`)."""
    return compiled_for(node, type_, obs).info


def invalidate_cache() -> None:
    """Drop every compiled program (tests and diagnostics)."""
    _programs.clear()
    _bound.clear()
    _shapes.clear()


def cache_stats() -> Dict[str, int]:
    """Observable counters of the program cache: ``expr.compiled`` counts
    programs (one per shape and type), ``expr.bound`` the per-node
    bindings kept for repeated nodes."""
    return {
        "expr.compiled": len(_programs),
        "expr.bound": len(_bound),
        "expr.cache_epoch": _cache_epoch,
    }
