"""One state declaration per component.

Every stateful simulator component owns ``state()`` and ``load(state)``,
defined next to its fields:

* ``state()`` returns a detached plain-data tree (builtins, enums and
  frozen dataclasses) that compares with ``==`` and pickles;
* ``load(state)`` writes such a tree back *in place*: registry gauges,
  compiled replay and system-shared objects hold references into the
  containers, so a restored component keeps its identity.  Derived
  structures (folded histories, address indexes) are rebuilt by
  ``load``, never stored.

The ``*Stats`` dataclasses get all three of ``state``, ``load`` and
``register_metrics`` from their fields through :class:`Counters`, so a
counter is declared once, as a field.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Optional, Tuple

#: Per stats class: (every field name, the integer counter names).
_FIELDS: Dict[type, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}


def _field_names(cls: type) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    names = _FIELDS.get(cls)
    if names is None:
        declared = fields(cls)
        names = _FIELDS[cls] = (
            tuple(f.name for f in declared),
            tuple(f.name for f in declared if f.type in (int, "int")))
    return names


def counter_names(cls: type) -> Tuple[str, ...]:
    """The integer fields of stats dataclass ``cls``, in declaration
    order: its metric names and counters (computed once per class)."""
    return _field_names(cls)[1]


class Counters:
    """Base of the ``*Stats`` dataclasses: state, restore and metric
    registration all read the dataclass fields."""

    def state(self) -> Dict[str, object]:
        out = {}
        for name in _field_names(type(self))[0]:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, list) else value
        return out

    def load(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            current = getattr(self, name)
            if isinstance(current, list):
                current[:] = value
            else:
                setattr(self, name, value)

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose every counter as a ``<prefix>.<field>`` pull gauge."""
        registry.register_object(prefix, self)


def first_difference(a, b, path: str = "state") -> Optional[str]:
    """The path of the first place two state trees differ (None when
    they are equal), descending through dicts, lists and tuples."""
    if a == b:
        return None
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [key for key in b if key not in a]:
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found is not None:
                return found
    elif (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
          and len(a) == len(b)):
        for index, (left, right) in enumerate(zip(a, b)):
            found = first_difference(left, right, f"{path}[{index}]")
            if found is not None:
                return found
    return path
