"""In-process span tracing of ``dsps`` from outside the package.

:func:`installed` wraps every public function of the ``dsps`` modules (the
names in each module's ``__all__``, plus ``dsps.cli.main``) in a timing
wrapper, rebinding each one wherever a ``dsps`` module imported it by name,
and restores the originals on exit.  Nothing inside ``src/dsps`` changes.

Spans stay in memory while the run lasts; :meth:`Tracer.dump` writes them out
at the end.  A span records its name (``<module>.<function>``), start, end,
parent span, instance id and the exception type that ended it, if any.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from dataclasses import asdict, dataclass

MODULES = ("dataset", "moments", "lp_core", "selection", "realize", "evaluate", "synthgen", "cli")

# Spans whose arguments and result the layer metrics need afterwards.
KEEP = {
    "dataset.load_population",
    "selection.build_lp_system",
    "lp_core.solve_lp",
    "realize.draw_best",
    *(f"selection.solve_{kind}_size" for kind in ("max", "min", "fixed")),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: str | None
    error: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.kept: dict[int, tuple] = {}  # span index -> (args, result)
        self.instance: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        keep = name in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.instance)
            self.spans.append(span)
            self._stack.append(index)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if keep:
                    self.kept[index] = (args, result)

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def _public_functions(module):
    names = list(getattr(module, "__all__", ()))
    if module.__name__ == "dsps.cli":
        names.append("main")
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every public ``dsps`` function for the duration of the block."""
    modules = [importlib.import_module("dsps")]
    modules += [importlib.import_module(f"dsps.{m}") for m in MODULES]
    wrappers = {}
    for module in modules[1:]:
        short = module.__name__.rsplit(".", 1)[1]
        for name, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, tracer.wrap(f"{short}.{name}", fn))
    restore = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])
    try:
        yield tracer
    finally:
        for module, attr, value in restore:
            setattr(module, attr, value)
