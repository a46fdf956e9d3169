"""Glue to compiled libraries: scipy's compiled modules and the C allocator.

The package inits of ``scipy.linalg`` and ``scipy.spatial`` import scipy's
array-API layer, which costs more time and memory than the rest of
``import mkridge``; mkridge calls only a few of their compiled routines,
which :func:`scipy_routines` loads from their files.

The rolling loop frees its working set at every refit and allocates it
again at the next; :func:`keep_freed_heap` keeps glibc's malloc from
giving those pages back to the kernel in between.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from pathlib import Path

import scipy

# glibc's <malloc.h> option numbers, and the values its dynamic thresholds
# rise to at most on 64-bit systems
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def keep_freed_heap() -> None:
    """Have glibc's malloc keep up to 64 MiB of freed heap, process-wide.

    By default glibc serves each block above 128 KiB with its own ``mmap``
    and trims the heap's free top above 128 KiB, and raises both thresholds
    only when a block that was itself mapped is freed. A refit's Grams,
    Jacobian and gradient temporaries are then unmapped or trimmed when
    freed and faulted in again, page by page, at the next refit. Blocks up
    to 32 MiB now come from the heap, and up to 64 MiB of free top stays
    mapped. Does nothing off glibc, or if ``mallopt`` cannot be found.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def scipy_routines(subpackage: str, module: str, names: tuple[str, ...]) -> tuple | None:
    """The attributes ``names`` of scipy's compiled module
    ``scipy.<subpackage>.<module>``, or None if its file is missing or fails
    to load.

    Only the ``scipy`` root package is imported (it also puts scipy's DLL
    directory on Windows' search path). The file is loaded under the private
    name ``mkridge.<module>``, which is put in ``sys.modules``. The name must
    end in ``.<module>``, which names the module's init symbol, and must not
    be scipy's own: a later import of the package loads its own copy as
    usual. ``exec_module`` runs a multi-phase init (pybind11's), without
    which the module has no attributes; for a single-phase init (f2py's) it
    does nothing. The caller falls back to the package's public functions.
    """
    directory = Path(scipy.__file__).parent / subpackage
    files = (directory / f"{module}{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next((f for f in files if f.is_file()), None)
    if path is None:
        return None
    loader = importlib.machinery.ExtensionFileLoader(f"{__package__}.{module}", str(path))
    try:
        loaded = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
        loader.exec_module(loaded)
        routines = tuple(getattr(loaded, name) for name in names)
    except (ImportError, OSError, AttributeError):
        return None
    sys.modules[loader.name] = loaded
    return routines
