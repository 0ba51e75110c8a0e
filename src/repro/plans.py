"""The frozen, spec-serializable plan base shared by every plane.

Fault plans, sync attack plans, time-plane specs and chaos plans are all
the same kind of object: plain frozen data that round-trips through JSON,
rejects unknown keys so a typo never silently runs an inert plan, range
checks its fields at construction, and collapses to ``None`` when empty so
the plan-free path (and every cache key hashed before the plane existed)
stays byte-identical.  :class:`FrozenPlan` implements that once; a plan
declares its fields, names its range-checked ones in class variables and
adds only its own extra rules in :meth:`FrozenPlan._validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type, TypeVar

from .errors import ConfigError

P = TypeVar("P", bound="FrozenPlan")


@dataclass(frozen=True)
class FrozenPlan:
    """Base of the frozen plan dataclasses (subclasses add the fields)."""

    #: Noun used in error messages ("unknown fault plan field(s) ...").
    KIND: ClassVar[str] = "plan"
    #: Fields that must lie in [0, 1].
    UNIT_FIELDS: ClassVar[Tuple[str, ...]] = ()
    #: Fields that must be >= 0.
    NONNEGATIVE_FIELDS: ClassVar[Tuple[str, ...]] = ()
    #: (x, y) pairs: a positive ``x`` needs a positive ``y``.
    NEEDS_POSITIVE: ClassVar[Tuple[Tuple[str, str], ...]] = ()
    #: Fields left out of :meth:`to_dict` while None, so documents hashed
    #: before the field existed stay byte-identical.
    OMIT_IF_NONE: ClassVar[Tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        for name in self.UNIT_FIELDS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        for name in self.NONNEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name, needed in self.NEEDS_POSITIVE:
            if getattr(self, name) > 0 and getattr(self, needed) <= 0:
                raise ConfigError(f"{name} needs a positive {needed}")
        self._validate()

    def _validate(self) -> None:
        """The plan's own rules beyond the declared range checks."""

    def is_empty(self) -> bool:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Full plain-data form: every field, defaults included; nested
        plans as their own documents (None when empty), tuples as lists."""
        doc: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name in self.OMIT_IF_NONE:
                continue
            if isinstance(value, FrozenPlan):
                value = None if value.is_empty() else value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            doc[f.name] = value
        return doc

    @classmethod
    def from_dict(cls: Type[P], doc: Mapping[str, Any]) -> P:
        """Inverse of :meth:`to_dict`; unknown keys fail loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown {cls.KIND} field(s) "
                              f"{sorted(unknown)}; have {sorted(known)}")
        return cls(**dict(doc))

    @classmethod
    def normalize(cls: Type[P], value: Any) -> Optional[P]:
        """Coerce None, a mapping or a plan to an *active* plan; an empty
        plan collapses to None."""
        if value is None:
            return None
        plan = value if isinstance(value, cls) else cls.from_dict(dict(value))
        return None if plan.is_empty() else plan
