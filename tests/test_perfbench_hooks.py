"""The benchmark's traced run wraps program entry points by name.

``perfbench/layers.py`` names every wrapped function and method in one
table. Renaming or deleting one of them would otherwise fail only inside a
traced benchmark run, so this test installs and removes the table here.
"""

import inspect
from pathlib import Path

from mkridge.kernels import CompositeKernel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_wrap_table_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        failed = tracer.uninstall()
    assert failed == []
    assert Tracer.leftovers(layers.OWNERS) == []
    # layers wraps it as a generator, timing each next() on its own
    assert inspect.isgeneratorfunction(CompositeKernel.iter_block_derivs)
