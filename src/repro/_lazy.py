"""Package names that load on first use (PEP 562).

A package ``__init__`` whose public names live in heavy submodules lists
them with :func:`lazy_exports` instead of importing them.  Importing the
package then loads none of those submodules; the first access to one of
the names imports the submodule that defines it, and stores the value in
the package namespace, so later lookups are plain attribute reads.  See
docs/internals.md, "Import layering".
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, names)`` for ``package``, where
    ``exports`` maps a relative submodule (``".fuzz"``) to the names it
    provides and ``names`` lists them all, in order, for ``__all__``."""
    owner: Dict[str, str] = {name: module
                             for module, names in exports.items()
                             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, list(owner)
