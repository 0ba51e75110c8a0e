"""Models of the standard shared libraries (libc, libm, libcrypto, libpthread).

These are the *genuine* libraries the platform ships.  Their functions burn
realistic cycle counts and interact with the kernel exactly where the real
ones would (``malloc`` grows the break and touches pages; ``pthread_create``
clones a thread; ``dlopen`` loads a library and runs its constructor).

Cycle costs are order-of-magnitude figures for a 2008-era x86; only ratios
matter (see DESIGN.md §2).
"""

from __future__ import annotations

from typing import Tuple

from ..kernel.loader.library import SharedLibrary
from ..kernel.loader.registry import LibraryRegistry
from ..kernel.mm.vm import HEAP_BASE
from .base import GuestContext, GuestFunction, LeafFunction
from .ops import Compute, Mem, Provenance, Syscall

# -- cycle costs --------------------------------------------------------------

MALLOC_CYCLES = 120
FREE_CYCLES = 80
SQRT_CYCLES = 60
TRIG_CYCLES = 110
EXP_CYCLES = 140
MD5_BLOCK_CYCLES = 680       # one 64-byte MD5 compression
SHA256_BLOCK_CYCLES = 1_450
MEMCPY_CYCLES_PER_KB = 90
PRINTF_CYCLES = 2_200

#: malloc grows the break in chunks, like a real arena.
_ARENA_CHUNK = 256 * 1024
_ALIGN = 16


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


# -- libc ---------------------------------------------------------------------

def _malloc(ctx: GuestContext, size: int):
    """Bump allocator over brk, modelling glibc's main arena."""
    yield Compute(MALLOC_CYCLES)
    if size <= 0:
        return 0
    state = ctx.libc
    if "bump" not in state:
        state["bump"] = HEAP_BASE
        state["brk_top"] = HEAP_BASE
    need = _align(size)
    if state["bump"] + need > state["brk_top"]:
        grow = max(need, _ARENA_CHUNK)
        new_brk = yield Syscall("brk", (grow,))
        if not isinstance(new_brk, int) or new_brk < 0:
            return 0  # NULL: allocation failed
        state["brk_top"] = new_brk
    ptr = state["bump"]
    state["bump"] += need
    # Write the chunk header; first touch of a page minor-faults here,
    # exactly where glibc would.
    yield Mem(ptr, write=True)
    return ptr


def _free(ctx: GuestContext, ptr: int):
    yield Compute(FREE_CYCLES)
    return None


def _memcpy(ctx: GuestContext, dst: int, src: int, nbytes: int):
    kb = max(1, nbytes // 1024)
    yield Compute(MEMCPY_CYCLES_PER_KB * kb)
    yield Mem(src, write=False)
    yield Mem(dst, write=True)
    return dst


def _printf(ctx: GuestContext, *args):
    yield Compute(PRINTF_CYCLES)
    return len(args)


def _dlopen(ctx: GuestContext, name: str):
    """Runtime library loading: ld.so work plus the constructor, both in
    user mode inside the calling process (paper §III-C)."""
    lib = yield Syscall("_dl_load", (name,))
    if isinstance(lib, int):
        return 0  # NULL: lookup failed
    from ..kernel.loader.linker import load_library_ops

    from ..config import CostModel

    for op in load_library_ops(lib, ctx.shared.get("_costs") or CostModel()):
        yield op
    return lib


def _dlclose(ctx: GuestContext, lib):
    from ..kernel.loader.linker import unload_library_ops

    for op in unload_library_ops(lib):
        yield op
    result = yield Syscall("_dl_unload", (lib,))
    return result


def _libc_ctor(ctx: GuestContext):
    """__libc_csu_init: locale tables, malloc arena setup."""
    yield Compute(25_000)
    return None


def _libc_dtor(ctx: GuestContext):
    yield Compute(8_000)
    return None


# -- libm ------------------------------------------------------------------------
#
# libm and libcrypto functions are leaves: a cycle cost plus a pure result.

def _sqrt(x: float = 2.0) -> float:
    return float(abs(x)) ** 0.5


def _sin(x: float = 0.0) -> float:
    return x - x ** 3 / 6.0  # small-angle flavour; value is irrelevant


def _cos(x: float = 0.0) -> float:
    return 1.0 - x ** 2 / 2.0


def _exp(x: float = 0.0) -> float:
    return 1.0 + x + x ** 2 / 2.0


def _log(x: float = 1.0) -> float:
    return x - 1.0


# -- libcrypto --------------------------------------------------------------------

def _md5_cycles(blocks: int = 1) -> int:
    return MD5_BLOCK_CYCLES * max(1, blocks)


def _sha256_cycles(blocks: int = 1) -> int:
    return SHA256_BLOCK_CYCLES * max(1, blocks)


def _blocks(blocks: int = 1) -> int:
    return blocks


# -- libpthread -------------------------------------------------------------------

def _pthread_create(ctx: GuestContext, fn: GuestFunction, args: Tuple = ()):
    yield Compute(2_500)
    tid = yield Syscall("clone_thread", (fn, args))
    return tid


def _pthread_join(ctx: GuestContext, tid: int):
    yield Compute(600)
    result = yield Syscall("waitpid", (tid,))
    if isinstance(result, tuple):
        return result[1][1]  # the thread's exit code
    return result


# -- assembly ----------------------------------------------------------------------

def _fn(name: str, factory) -> GuestFunction:
    return GuestFunction(name, factory, Provenance.LIB)


def _leaf(name: str, cycles, result) -> LeafFunction:
    return LeafFunction(name, cycles, result, Provenance.LIB)


def make_libc() -> SharedLibrary:
    return SharedLibrary(
        "libc",
        symbols={
            "malloc": _fn("libc.malloc", _malloc),
            "free": _fn("libc.free", _free),
            "memcpy": _fn("libc.memcpy", _memcpy),
            "printf": _fn("libc.printf", _printf),
            "dlopen": _fn("libc.dlopen", _dlopen),
            "dlclose": _fn("libc.dlclose", _dlclose),
        },
        constructor=_fn("libc.ctor", _libc_ctor),
        destructor=_fn("libc.dtor", _libc_dtor),
        version="2.9",
    )


def make_libm() -> SharedLibrary:
    return SharedLibrary(
        "libm",
        symbols={
            "sqrt": _leaf("libm.sqrt", SQRT_CYCLES, _sqrt),
            "sin": _leaf("libm.sin", TRIG_CYCLES, _sin),
            "cos": _leaf("libm.cos", TRIG_CYCLES, _cos),
            "exp": _leaf("libm.exp", EXP_CYCLES, _exp),
            "log": _leaf("libm.log", EXP_CYCLES, _log),
        },
        version="2.9",
    )


def make_libcrypto() -> SharedLibrary:
    return SharedLibrary(
        "libcrypto",
        symbols={
            "md5_block": _leaf("libcrypto.md5_block", _md5_cycles,
                               _blocks),
            "sha256_block": _leaf("libcrypto.sha256_block",
                                  _sha256_cycles, _blocks),
        },
        version="0.9.8",
    )


def make_libpthread() -> SharedLibrary:
    return SharedLibrary(
        "libpthread",
        symbols={
            "pthread_create": _fn("libpthread.pthread_create", _pthread_create),
            "pthread_join": _fn("libpthread.pthread_join", _pthread_join),
        },
        version="2.9",
    )


STANDARD_LIBRARIES = ("libc", "libm", "libcrypto", "libpthread")


def install_standard_libraries(registry: LibraryRegistry) -> None:
    """Install pristine copies of every standard library."""
    for make in (make_libc, make_libm, make_libcrypto, make_libpthread):
        lib = make()
        if not registry.has(lib.name):
            registry.install(lib)
