"""Program and guest-context abstractions.

A :class:`Program` is the simulator's analogue of an ELF executable: a name,
a ``main`` generator factory, declared static data symbols, and the list of
shared libraries it needs.  The loader materialises it into a process image
at ``execve`` time.

A :class:`GuestContext` is handed to every guest generator.  It exposes the
process's static-symbol addresses, argv, a deterministic RNG stream, and a
dictionary shared across the thread group — nothing else, so guest code can
only affect the world by yielding ops.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from .ops import Compute, Op, Provenance


#: Type of guest code bodies: a generator yielding ops and receiving syscall
#: and library-call results via ``send``.
GuestGen = Generator[Op, object, object]


class GuestFunction:
    """A named piece of guest code with a provenance label.

    Used for thread entry points, fork-child bodies, library functions,
    constructors/destructors and injected payloads alike.
    """

    __slots__ = ("name", "factory", "provenance")

    def __init__(self, name: str,
                 factory: Callable[..., GuestGen],
                 provenance: Provenance = Provenance.USER) -> None:
        self.name = name
        self.factory = factory
        self.provenance = provenance

    def instantiate(self, ctx: "GuestContext", *args) -> GuestGen:
        return self.factory(ctx, *args)

    def __repr__(self) -> str:
        return f"GuestFunction({self.name!r}, {self.provenance.value})"


class LeafFunction(GuestFunction):
    """A library function that is one block of work and a pure result.

    ``cycles`` is its cost: an int, or a function of the call's arguments.
    ``result`` maps the arguments to the return value.  A leaf touches no
    memory, makes no call and keeps no state, so the engine may charge a
    call to it directly, without a frame or a generator
    (:meth:`instantiate` still gives the generator the engine falls back
    to when the call straddles the end of its budget).
    """

    __slots__ = ("cycles", "result")

    def __init__(self, name: str, cycles, result: Callable[..., object],
                 provenance: Provenance = Provenance.LIB) -> None:
        super().__init__(name, None, provenance)
        self.cycles = cycles
        self.result = result

    def cost(self, args: Tuple) -> int:
        """Cycles one call with ``args`` burns."""
        cycles = self.cycles
        return cycles if cycles.__class__ is int else cycles(*args)

    def instantiate(self, ctx: "GuestContext", *args) -> GuestGen:
        return _run_leaf(self, args)


def _run_leaf(leaf: LeafFunction, args: Tuple) -> GuestGen:
    """Any leaf's body as a generator: its cost, then its result."""
    yield Compute(leaf.cost(args))
    return leaf.result(*args)


class Program:
    """An executable image description (the simulator's ELF file)."""

    def __init__(self, name: str,
                 main: Callable[..., GuestGen],
                 data_symbols: Optional[Dict[str, int]] = None,
                 needed_libs: Sequence[str] = ("libc",),
                 argv: Sequence[object] = (),
                 version: str = "1.0") -> None:
        self.name = name
        self.main = GuestFunction(f"{name}.main", main, Provenance.USER)
        self.data_symbols: Dict[str, int] = dict(data_symbols or {})
        self.needed_libs: List[str] = list(needed_libs)
        self.argv: Tuple[object, ...] = tuple(argv)
        self.version = version

    def with_argv(self, *argv: object) -> "Program":
        """Return a copy of this program with different arguments."""
        clone = Program(self.name, self.main.factory,
                        data_symbols=self.data_symbols,
                        needed_libs=self.needed_libs,
                        argv=argv, version=self.version)
        return clone

    def text_digest(self) -> str:
        """Stable digest of the program 'text', for attestation.

        A real measurement hashes the binary; we hash the identity of the
        code object driving the op stream, which changes whenever different
        code would run.
        """
        from ..kernel.loader.library import code_identity

        ident = f"{self.name}:{self.version}:{code_identity(self.main.factory)}"
        return hashlib.sha256(ident.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return f"Program({self.name!r}, libs={self.needed_libs})"


class GuestContext:
    """Per-thread-group view given to guest generators."""

    def __init__(self, argv: Tuple[object, ...],
                 rng_stream_factory: Callable[[str], object],
                 symbol_addrs: Optional[Dict[str, int]] = None) -> None:
        self.argv = argv
        self._rng_stream_factory = rng_stream_factory
        self._symbol_addrs: Dict[str, int] = dict(symbol_addrs or {})
        #: Scratch state shared across the thread group (guest "memory" the
        #: models use for bookkeeping that does not need to be simulated).
        self.shared: Dict[str, object] = {}
        #: State owned by the libc model (heap cursor, arena bounds).
        self.libc: Dict[str, object] = {}

    def addr(self, symbol: str) -> int:
        """Virtual address of static data ``symbol``."""
        try:
            return self._symbol_addrs[symbol]
        except KeyError:
            raise KeyError(
                f"program has no static symbol {symbol!r}; declared: "
                f"{sorted(self._symbol_addrs)}") from None

    def has_symbol(self, symbol: str) -> bool:
        return symbol in self._symbol_addrs

    def bind_symbol(self, symbol: str, vaddr: int) -> None:
        """Used by the loader to assign addresses to declared symbols."""
        self._symbol_addrs[symbol] = vaddr

    def rng(self, name: str):
        """Deterministic random stream namespaced to this process."""
        return self._rng_stream_factory(name)
