"""Per-layer tracing of symdimer, installed from outside the package.

Every public function of the eight modules is replaced, at every module
attribute that refers to it, by a wrapper that opens a span on entry and
closes it on exit.  A span has a name, a start, an end and a parent; when
it closes, its duration and its self time (duration minus the time its
child spans cover) are folded into per-function totals, so memory stays
constant however many calls a workload makes.  Generator functions such
as ``dimer.symmetry_actions`` get one span per yielded item.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

LAYERS = (
    "lattice",
    "dimer",
    "zigzag",
    "matchings",
    "surgery",
    "construct",
    "quiver",
    "cli_io",
)

# Functions whose returned list length is summed into a `results` count.
RESULT_LISTS = frozenset({"matchings.enumerate_matchings"})


class FuncStats:
    __slots__ = ("calls", "returned", "yielded", "results", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.returned = 0
        self.yielded = 0
        self.results = 0
        self.self_s = 0.0
        self.raised = Counter()


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0


class Tracer:
    """Wraps the public functions of ``modules`` (short name -> module)."""

    def __init__(self, modules):
        self.modules = modules
        self.stats = {}
        self.current = None
        self._saved = []

    def _open(self, name):
        span = Span(name, perf_counter(), self.current)
        self.current = span
        return span

    def _close(self, span, stat):
        span.end = perf_counter()
        dur = span.end - span.start
        stat.self_s += dur - span.child_s
        self.current = span.parent
        if span.parent is not None:
            span.parent.child_s += dur

    def reset(self):
        """Drop spans left open by an operation cut short by its time limit."""
        self.current = None

    def _wrap_function(self, name, fn, stat):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, stat)
                stat.raised[type(exc).__name__] += 1
                if name in RESULT_LISTS and isinstance(getattr(exc, "count", None), int):
                    stat.results += exc.count
                raise
            self._close(span, stat)
            stat.returned += 1
            if name in RESULT_LISTS:
                stat.results += len(out)
            return out

        return traced

    def _wrap_generator(self, name, fn, stat):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            inner = fn(*args, **kwargs)

            def items():
                try:
                    while True:
                        span = self._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            self._close(span, stat)
                            stat.returned += 1
                            return
                        except BaseException as exc:
                            self._close(span, stat)
                            stat.raised[type(exc).__name__] += 1
                            raise
                        self._close(span, stat)
                        stat.yielded += 1
                        yield item
                finally:
                    inner.close()

            return items()

        return traced

    def install(self):
        wrappers = {}
        for short, mod in self.modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                package, _, home = value.__module__.rpartition(".")
                if package != "symdimer" or home not in self.modules:
                    continue
                name = f"{home}.{value.__name__}"
                if id(value) not in wrappers:
                    stat = self.stats.setdefault(name, FuncStats())
                    wrap = (
                        self._wrap_generator
                        if inspect.isgeneratorfunction(value)
                        else self._wrap_function
                    )
                    wrappers[id(value)] = wrap(name, value, stat)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def stat(self, name):
        return self.stats.get(name) or FuncStats()

    def layer_self_s(self, layer):
        return sum(s.self_s for n, s in self.stats.items() if n.partition(".")[0] == layer)
