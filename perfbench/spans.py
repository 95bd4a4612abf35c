"""In-memory spans around calls into the listsched modules.

A span is one call: its name, start, end and the span that was open when
it began.  ``Tracer.instrument()`` wraps every public function of the
layer modules, in every listsched namespace that holds a reference to it,
so a traced pass makes exactly the calls an untraced pass makes; the
originals are put back when the context exits.  Spans stay in memory
until ``write()`` is called at the end of the run.

Private helpers are not wrapped, so a module's self time is the time
spent inside its public functions and not inside another public
function, private helpers included.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("datagen", "model", "priority", "selection", "scheduler", "bench", "cli")


def _public_functions(module) -> dict[str, object]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def open(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name_of.append(idx)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    @contextmanager
    def instrument(self):
        """Wrap the public functions of every layer module while active."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "listsched"]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"listsched.{layer}"]
            for name, fn in _public_functions(module).items():
                wrapped[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    patched.append((module, attr, value))
                    setattr(module, attr, replacement)
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name prefix (the layer), in seconds."""
        child = [0.0] * len(self.start)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[span] - self.start[span]
        out: dict[str, float] = {}
        for span, idx in enumerate(self.name_of):
            layer = self.names[idx].split(".")[0]
            own = self.end[span] - self.start[span] - child[span]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON columns; times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": list(self.name_of),
            "parent": list(self.parent),
            "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
            "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
