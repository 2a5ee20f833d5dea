"""Exception hierarchy for the repro object database.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  The hierarchy mirrors the paper's
subsystems: schema definition, domain validation, integrity constraints,
value inheritance, versions, transactions and the DDL/expression parsers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


# ---------------------------------------------------------------------------
# Schema / type-system errors
# ---------------------------------------------------------------------------

class SchemaError(ReproError):
    """A type definition is malformed or inconsistent."""


class UnknownTypeError(SchemaError):
    """A referenced object/relationship type is not in the catalog."""


class DuplicateTypeError(SchemaError):
    """A type with the same name is already registered."""


class UnknownDomainError(SchemaError):
    """A referenced domain is not in the catalog."""


# ---------------------------------------------------------------------------
# Value / domain errors
# ---------------------------------------------------------------------------

class DomainError(ReproError):
    """A value does not belong to the attribute's domain."""


class UnknownAttributeError(ReproError):
    """An attribute (or subclass) name does not exist on the object/type."""


class ObjectDeletedError(ReproError):
    """The object was deleted (e.g. with its enclosing complex object)."""


# ---------------------------------------------------------------------------
# Integrity and inheritance-relationship errors
# ---------------------------------------------------------------------------

class ConstraintViolation(ReproError):
    """An integrity constraint defined with a type failed.

    Attributes
    ----------
    constraint:
        The source text (or description) of the violated constraint.
    subject:
        The object the constraint was checked against, when known.
    """

    def __init__(self, message: str, constraint: str = "", subject=None):
        super().__init__(message)
        self.constraint = constraint
        self.subject = subject


class InheritanceError(ReproError):
    """Misuse of an inheritance relationship.

    Raised for writes to inherited (read-only) data in an inheritor,
    binding an inheritor to a transmitter of the wrong type, or declaring
    an ``inheriting:`` clause that names data the transmitter type does
    not define.
    """


# ---------------------------------------------------------------------------
# Version-management errors
# ---------------------------------------------------------------------------

class VersionError(ReproError):
    """Illegal operation on a version graph (cycles, frozen versions…)."""


class SelectionError(VersionError):
    """A generic relationship could not select a component version."""


# ---------------------------------------------------------------------------
# Transaction / concurrency errors
# ---------------------------------------------------------------------------

class TransactionError(ReproError):
    """Illegal transaction state transition or usage."""


class LockConflictError(TransactionError):
    """A lock request conflicts with locks held by another transaction."""

    def __init__(self, message: str, holder=None, surrogate=None):
        super().__init__(message)
        self.holder = holder
        self.surrogate = surrogate


class DeadlockError(LockConflictError):
    """Granting the request would create a wait-for cycle."""


class LockTimeoutError(LockConflictError):
    """A blocking lock request waited past its timeout."""


class AccessDeniedError(TransactionError):
    """The access-control manager refused the operation or lock mode."""


# ---------------------------------------------------------------------------
# Parser errors
# ---------------------------------------------------------------------------

class ExprSyntaxError(ReproError):
    """The constraint-expression parser rejected its input."""

    def __init__(self, message: str, position: int = -1, line: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line


class ExprEvaluationError(ReproError):
    """A constraint expression failed at evaluation time.

    Raised for aggregates over empty collections (``min``/``max``/``avg``),
    arithmetic on non-numeric operands and unresolvable mandatory names.
    """


class DDLSyntaxError(SchemaError):
    """The schema DDL parser rejected its input."""

    def __init__(self, message: str, line: int = -1, column: int = -1):
        super().__init__(message)
        self.line = line
        self.column = column


class QueryError(ReproError):
    """A query or navigation request was malformed."""


class PersistenceError(ReproError):
    """The database image could not be saved or loaded."""
