"""Shared-library objects.

A :class:`SharedLibrary` is the simulator's ``.so``: named guest functions,
optional constructor/destructor, and a provenance that labels every cycle
its code burns.  The paper's §IV-A2 attacks tamper with exactly these parts:
the constructor/destructor (run by the loader before ``main`` / after
``exit``), and the exported functions (interposed via ``LD_PRELOAD``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from ...programs.base import GuestFunction, LeafFunction
from ...programs.ops import Provenance


def code_identity(factory) -> str:
    """Stable identity of a guest function's code, for measurement.

    Hashing a real ``.so`` would capture both instructions and embedded
    constants; the closest analogue for generator factories is the code
    object's location plus the closure's constant contents (so two payloads
    built from one factory with different parameters measure differently).
    """
    code = factory.__code__
    parts = [code.co_filename, code.co_name, str(code.co_firstlineno)]
    closure = getattr(factory, "__closure__", None)
    if closure:
        for cell in closure:
            try:
                parts.append(repr(cell.cell_contents)[:80])
            except ValueError:  # pragma: no cover - empty cell
                parts.append("<empty>")
    return ":".join(parts)


def function_identity(fn: GuestFunction) -> str:
    """:func:`code_identity` of a guest function: a leaf is measured by its
    result function and its cost, any other function by its factory."""
    if isinstance(fn, LeafFunction):
        cycles = fn.cycles
        cost = str(cycles) if cycles.__class__ is int else code_identity(cycles)
        return f"leaf:{code_identity(fn.result)}:{cost}"
    return code_identity(fn.factory)


class SharedLibrary:
    """One shared object in the simulated filesystem."""

    def __init__(self, name: str,
                 symbols: Optional[Dict[str, GuestFunction]] = None,
                 constructor: Optional[GuestFunction] = None,
                 destructor: Optional[GuestFunction] = None,
                 provenance: Provenance = Provenance.LIB,
                 version: str = "1.0") -> None:
        self.name = name
        self.symbols: Dict[str, GuestFunction] = dict(symbols or {})
        self.constructor = constructor
        self.destructor = destructor
        self.provenance = provenance
        self.version = version

    def provides(self, symbol: str) -> bool:
        return symbol in self.symbols

    @property
    def relocation_count(self) -> int:
        """Number of symbols the linker must relocate when loading."""
        return len(self.symbols)

    def text_digest(self) -> str:
        """Measurement of the library's code identity, for attestation.

        Hashes the identities of every function's code object, so swapping
        a genuine function for an interposed one — or adding a constructor —
        changes the digest, as hashing a real ``.so`` would.
        """
        hasher = hashlib.sha256()
        hasher.update(f"{self.name}:{self.version}".encode("utf-8"))
        parts = []
        for symbol in sorted(self.symbols):
            parts.append(f"{symbol}={function_identity(self.symbols[symbol])}")
        for label, fn in (("ctor", self.constructor), ("dtor", self.destructor)):
            if fn is not None:
                parts.append(f"{label}={function_identity(fn)}")
        hasher.update("|".join(parts).encode("utf-8"))
        return hasher.hexdigest()

    def __repr__(self) -> str:
        return (f"SharedLibrary({self.name!r}, {len(self.symbols)} symbols, "
                f"{self.provenance.value})")
