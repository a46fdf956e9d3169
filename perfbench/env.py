"""Process set-up shared by the benchmark scripts: thread pinning, import path,
and a record of the environment a run measured.

``pin_threads`` must run before numpy is imported anywhere in the process.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def seeds(text: str) -> list[int]:
    """A seed or an inclusive range of seeds such as ``0-19``."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


class MissingProgram(RuntimeError):
    """The checkout holds no mkridge sources to benchmark."""


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("thread counts must be pinned before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_sources() -> None:
    """Import mkridge from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "mkridge" / "__init__.py").is_file():
        raise MissingProgram(f"no mkridge package under {SRC}")
    sys.path.insert(0, str(SRC))


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def describe() -> dict:
    """Versions, BLAS build, thread pinning, CPU count and commit of this run."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
    }
