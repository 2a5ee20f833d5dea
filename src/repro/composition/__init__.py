"""Composition layer: interfaces, composites, configurations, baselines."""

from .baselines import (
    clone_object,
    copy_component,
    stale_members,
    view_component,
    view_rel_type,
)
from .composite import (
    Expansion,
    add_component,
    component_subobjects,
    components_of,
    expand,
    visible_image,
)
from .configuration import (
    ConfigurationNode,
    bill_of_materials,
    configuration,
    missing_components,
    provides_all_components,
    where_used,
)
from .interfaces import (
    abstraction_chain,
    abstraction_tree,
    implementations_of,
    interfaces_of,
    rebind,
    refine,
)

__all__ = [
    "clone_object",
    "copy_component",
    "stale_members",
    "view_component",
    "view_rel_type",
    "Expansion",
    "add_component",
    "component_subobjects",
    "components_of",
    "expand",
    "visible_image",
    "ConfigurationNode",
    "bill_of_materials",
    "configuration",
    "missing_components",
    "provides_all_components",
    "where_used",
    "abstraction_chain",
    "abstraction_tree",
    "implementations_of",
    "interfaces_of",
    "rebind",
    "refine",
]
