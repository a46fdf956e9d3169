"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces a program's entry points (module functions and class
methods) with timing wrappers, and puts the originals back on ``uninstall``.
Each call is a span; a span's self time is its duration minus the time its
child spans cover. Times are integer nanoseconds from ``perf_counter_ns`` so
the subtraction is exact and a self time cannot come out negative by rounding.

Spans are attributed to a scope (the strategy being run, or ``setup``), so
per-layer numbers can be read per strategy or summed over a workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable

TRACED = "__perfbench_traced__"


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    samples_ns: list[int] = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.scope = "setup"
        self.stats: dict[tuple[str, str], LayerStats] = {}
        self.counters: dict[tuple[str, str], float] = {}
        self.negative_self = 0
        self.state: dict[str, Any] = {}
        self.layers: set[str] = set()  # every span name wrapped, called or not
        self._stack: list[list] = []  # [layer name, child ns] per open span
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        key = (self.scope, name)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _close(self, name: str, dt: int, child: int, called: bool, sample: str | None) -> None:
        stats = self.stats.setdefault((self.scope, name), LayerStats())
        own = dt - child
        if own < 0:
            self.negative_self += 1
        stats.self_ns += own
        if called:
            stats.calls += 1
            if sample == "self":
                stats.samples_ns.append(own)
            elif sample == "total":
                stats.samples_ns.append(dt)
        if self._stack:
            self._stack[-1][1] += dt

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        sample: str | None = None,
        before: Callable | None = None,
        after: Callable | None = None,
        scope_of: Callable | None = None,
        generator: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span named ``name``.

        A call made while a span of the same name is innermost adds no span
        of its own (``tune_random`` calling ``tune_grid`` is one tune event).
        ``generator`` times each ``next()`` of a generator function as one
        span, so the consumer's work between items stays outside it.
        """
        original = vars(owner)[attr]
        make = self._generator_wrapper if generator else self._call_wrapper
        traced = make(original, name, sample, before, after, scope_of)
        setattr(traced, TRACED, True)
        self.layers.add(name)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _call_wrapper(self, fn, name, sample, before, after, scope_of):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            outer = tracer.scope
            if scope_of is not None:
                tracer.scope = scope_of(args)
            try:
                if before is not None:
                    before(tracer, args)
                frame = [name, 0]
                stack.append(frame)
                t0 = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter_ns() - t0
                    stack.pop()
                    tracer._close(name, dt, frame[1], True, sample)
                if after is not None:
                    after(tracer, args, result)
                return result
            finally:
                tracer.scope = outer

        return traced

    def _generator_wrapper(self, fn, name, sample, before, after, scope_of):
        tracer = self
        stack = self._stack
        done = object()

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frame = [name, 0]
                stack.append(frame)
                t0 = perf_counter_ns()
                item = done
                try:
                    item = next(items)
                except StopIteration:
                    pass
                finally:
                    dt = perf_counter_ns() - t0
                    stack.pop()
                    tracer._close(name, dt, frame[1], item is not done, sample)
                if item is done:
                    return
                if after is not None:
                    after(tracer, args, item)
                yield item

        return traced

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; return those not restored."""
        failed = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                failed.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return failed

    @staticmethod
    def leftovers(owners) -> list[str]:
        """Names of attributes of ``owners`` that still hold a traced wrapper."""
        found = []
        for owner in owners:
            for attr, value in vars(owner).items():
                if getattr(value, TRACED, False):
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return found
