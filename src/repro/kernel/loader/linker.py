"""The dynamic linker: link maps, symbol interposition, process bodies.

Symbol resolution walks the link map in order, ``LD_PRELOAD`` entries
first — which is why preloading a library that exports ``malloc`` silently
interposes every ``malloc`` call (paper §V-B2).  All linker work (base
setup, per-library relocation) executes in *user mode inside the process*,
so it is billed to the process: the paper's §III-C observation that the
launch-phase "auxiliary subroutines, like the dynamic linking, are billed
to the process's account".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ...config import CostModel
from ...errors import FileNotFound, SimulationError
from ...programs.base import GuestContext, GuestFunction, Program
from ...programs.ops import Compute, Invoke, Provenance, Syscall
from .library import SharedLibrary
from .registry import LibraryRegistry, parse_ld_preload


class LinkMap:
    """Ordered list of loaded libraries for one process.

    Resolutions are cached until the map changes; ``version`` counts the
    changes, so a caller may keep what it derived from a resolution for as
    long as the version holds.
    """

    def __init__(self, libs: List[SharedLibrary]) -> None:
        self._libs: List[SharedLibrary] = list(libs)
        self._resolved: Dict[str, Tuple[SharedLibrary, GuestFunction]] = {}
        self.version = 0

    def _changed(self) -> None:
        self._resolved = {}
        self.version += 1

    @property
    def libs(self) -> List[SharedLibrary]:
        return list(self._libs)

    def append(self, lib: SharedLibrary) -> None:
        """dlopen: add a library at the end of the search order."""
        self._libs.append(lib)
        self._changed()

    def remove(self, lib: SharedLibrary) -> None:
        """dlclose: drop a library from the map."""
        try:
            self._libs.remove(lib)
        except ValueError:
            raise SimulationError(f"{lib.name} not in link map") from None
        self._changed()

    def resolve(self, symbol: str) -> Tuple[SharedLibrary, GuestFunction]:
        """First definition of ``symbol`` in search order."""
        found = self.lookup(symbol)
        if found is None:
            raise FileNotFound(f"undefined symbol {symbol!r}")
        return found

    def lookup(self, symbol: str) -> Optional[Tuple[SharedLibrary, GuestFunction]]:
        """:meth:`resolve`, or None for an undefined symbol."""
        found = self._resolved.get(symbol)
        if found is None:
            for lib in self._libs:
                fn = lib.symbols.get(symbol)
                if fn is not None:
                    found = self._resolved[symbol] = (lib, fn)
                    break
        return found

    def resolve_after(self, symbol: str,
                      after: Optional[SharedLibrary]) -> Tuple[SharedLibrary, GuestFunction]:
        """RTLD_NEXT: the next definition after library ``after``."""
        seen_after = after is None
        for lib in self._libs:
            if not seen_after:
                if lib is after:
                    seen_after = True
                continue
            fn = lib.symbols.get(symbol)
            if fn is not None:
                return lib, fn
        raise FileNotFound(f"no next definition of {symbol!r}")

    def __contains__(self, lib: SharedLibrary) -> bool:
        return lib in self._libs

    def __iter__(self) -> Iterator[SharedLibrary]:
        return iter(self._libs)

    def __len__(self) -> int:
        return len(self._libs)


def build_link_map(program: Program, env: dict,
                   registry: LibraryRegistry) -> LinkMap:
    """Resolve ``LD_PRELOAD`` plus the program's NEEDED list, in ld.so order."""
    names: List[str] = []
    preload = env.get("LD_PRELOAD", "")
    if preload:
        names.extend(parse_ld_preload(preload))
    for needed in program.needed_libs:
        if needed not in names:
            names.append(needed)
    return LinkMap([registry.lookup(name) for name in names])


def _relocation_work(lib: SharedLibrary, costs: CostModel) -> GuestFunction:
    """User-mode ld.so work for loading one library.

    Attributed to the library's provenance so the oracle can bill the
    loading of an attacker-installed preload to the attack.
    """
    cycles = (costs.linker_per_library_cycles
              + lib.relocation_count * costs.linker_per_symbol_cycles)

    def body(ctx: GuestContext):
        yield Compute(cycles)
        return None

    return GuestFunction(f"ld.so[{lib.name}]", body, lib.provenance)


def _linker_base_work(costs: CostModel) -> GuestFunction:
    def body(ctx: GuestContext):
        yield Compute(costs.linker_base_cycles)
        return None

    return GuestFunction("ld.so[base]", body, Provenance.LIB)


def load_library_ops(lib: SharedLibrary, costs: CostModel):
    """Ops that perform a runtime (dlopen-style) load of ``lib``."""
    ops = [Invoke(_relocation_work(lib, costs))]
    if lib.constructor is not None:
        ops.append(Invoke(lib.constructor))
    return ops


def unload_library_ops(lib: SharedLibrary):
    """Ops that perform a dlclose-style unload of ``lib``."""
    if lib.destructor is not None:
        return [Invoke(lib.destructor)]
    return []


def process_body(ctx: GuestContext, program: Program, link_map: LinkMap,
                 costs: CostModel):
    """The root generator of a freshly exec'd process.

    Mirrors the paper's Fig. 2 process life span: dynamic linking, library
    constructors, ``main()``, library destructors, ``exit()`` — with every
    phase billed to the process.
    """
    yield Invoke(_linker_base_work(costs))
    for lib in link_map:
        yield Invoke(_relocation_work(lib, costs))
    for lib in link_map:
        if lib.constructor is not None:
            yield Invoke(lib.constructor)
    # argv travels via ctx.argv, matching main(ctx) signatures.
    exit_code = yield Invoke(program.main)
    for lib in reversed(list(link_map)):
        if lib.destructor is not None:
            yield Invoke(lib.destructor)
    code = exit_code if isinstance(exit_code, int) else 0
    yield Syscall("exit", (code,))
