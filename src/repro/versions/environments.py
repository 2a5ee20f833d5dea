"""Environments for version selection (§6 policy 3, after [DiLo85]).

An environment is configuration information *outside* both the composite
object and the component: a named mapping from design objects to the
version that should stand in for them, e.g. a "release-1.0" environment
pinning every component to its released version, or a "testing" environment
mixing in experimental versions.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..core.objects import DBObject
from ..core.surrogate import Surrogate
from ..errors import SelectionError

__all__ = ["Environment", "EnvironmentRegistry"]


class Environment:
    """A named design-object → version assignment."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._assignments: Dict[Surrogate, DBObject] = {}

    def assign(self, design_object: DBObject, version: DBObject) -> None:
        """Pin ``design_object`` (e.g. an interface) to ``version``."""
        self._assignments[design_object.surrogate] = version

    def version_for(self, design_object: DBObject) -> Optional[DBObject]:
        """The pinned version, or None when the environment is silent."""
        return self._assignments.get(design_object.surrogate)

    def __len__(self) -> int:
        return len(self._assignments)

    def __repr__(self) -> str:
        return f"<Environment {self.name} assignments={len(self)}>"


class EnvironmentRegistry:
    """The environments known to one database/session."""

    def __init__(self) -> None:
        self._environments: Dict[str, Environment] = {}
        self._current: Optional[str] = None

    def create(self, name: str, description: str = "") -> Environment:
        if name in self._environments:
            raise SelectionError(f"environment {name!r} already exists")
        environment = Environment(name, description)
        self._environments[name] = environment
        return environment

    def get(self, name: str) -> Environment:
        try:
            return self._environments[name]
        except KeyError:
            raise SelectionError(f"unknown environment {name!r}") from None

    def activate(self, name: str) -> Environment:
        """Make ``name`` the session's current environment."""
        environment = self.get(name)
        self._current = name
        return environment

    @property
    def current(self) -> Optional[Environment]:
        return self._environments.get(self._current) if self._current else None

    def __iter__(self) -> Iterator[Environment]:
        return iter(self._environments.values())

    def __len__(self) -> int:
        return len(self._environments)
