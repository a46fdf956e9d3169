"""Routines of scipy's compiled modules, loaded without their packages' init.

The package inits of ``scipy.linalg`` and ``scipy.spatial`` import scipy's
array-API layer, which costs more time and memory than the rest of
``import mkridge``; mkridge calls only a few of their compiled routines.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import scipy


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
