"""Rule registry for :mod:`repro.analysis`.

Importing this package imports every rule module, which registers the
rules as a side effect of their ``@register`` decorators.  The public
surface re-exports the registry accessors from :mod:`.base`.
"""

from .base import FileContext, Rule, all_rules, dotted_name, register, resolve_rule
from . import api, determinism, hotpath, numerics, privacy, threading  # noqa: F401  (registration imports)

__all__ = [
    "FileContext",
    "Rule",
    "all_rules",
    "dotted_name",
    "register",
    "resolve_rule",
]
