"""Span tracing installed around the library from the benchmark's side.

``install`` replaces every public function of the layer modules (and the
public methods of the field contexts) with a wrapper that records one span
per call: name, start, end, parent span and run id.  The same wrapper is
bound wherever the original was imported, so calls made through
``from .affine import archimedes`` are traced too.  ``Fp.__init__`` is wrapped
by a counter only: element arithmetic is too fine-grained for a span per
operation, so its time stays in the self time of the kernel that called it.

Self time of a span is its duration minus the durations of its child spans;
it is accumulated per name while the run goes, and the spans themselves are
kept in compact arrays until ``write`` puts them on disk.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from types import FunctionType

LAYERS = ("field", "affine", "projective", "chromo", "isometry", "spreadpoly", "cli")
_CONTEXT_CLASSES = ("RationalContext", "PrimeContext")


class Tracer:
    """In-memory span log with per-name call counts and self time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[list[int]] = []  # [span index, child ns] per open span
        self.run_id = 0
        self.fp_new = 0
        self._own: dict = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, fn, name: str):
        """A function that calls ``fn`` inside a span called ``name``."""
        nid = self.name_id(name)
        now = time.perf_counter_ns
        stack, calls, self_ns = self.stack, self.calls, self.self_ns
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(starts), 0]
            names.append(nid)
            parents.append(parent[0] if parent is not None else -1)
            runs.append(tracer.run_id)
            ends.append(0)
            stack.append(frame)
            start = now()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                ends[frame[0]] = end
                duration = end - start
                self_ns[nid] += duration - frame[1]
                calls[nid] += 1
                if parent is not None:
                    parent[1] += duration

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        wrapped = self._own.get((name, fn))
        if wrapped is None:
            wrapped = self._own[(name, fn)] = self.wrap(fn, name)
        return wrapped(*args, **kwargs)

    def layer_totals(self) -> dict:
        """{layer: (calls, self seconds)} summed over the layer's span names."""
        out: dict = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            calls, ns = out.get(layer, (0, 0))
            out[layer] = (calls + self.calls[nid], ns + self.self_ns[nid])
        return {k: (c, ns / 1e9) for k, (c, ns) in out.items()}

    def by_name(self) -> dict:
        """{span name: (calls, self seconds)}."""
        return {name: (self.calls[i], self.self_ns[i] / 1e9) for i, name in enumerate(self.names)}

    def write(self, path: str):
        """Write every span as a tab-separated line, times in ns from the first span."""
        origin = self.span_start[0] if self.span_start else 0
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\trun\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{self.span_parent[i]}\t{self.span_run[i]}\t"
                          f"{names[self.span_name[i]]}\t{self.span_start[i] - origin}\t"
                          f"{self.span_end[i] - origin}\n")


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions in place, in every quadrance module."""
    from quadrance.field import Fp

    wrappers: dict[int, tuple] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"quadrance.{layer}")
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and isinstance(value, FunctionType)
                    and value.__module__ == module.__name__):
                wrappers[id(value)] = (value, tracer.wrap(value, f"{layer}.{attr}"))
    field = sys.modules["quadrance.field"]
    for cls_name in _CONTEXT_CLASSES:
        cls = getattr(field, cls_name)
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and isinstance(value, FunctionType):
                setattr(cls, attr, tracer.wrap(value, f"field.{cls_name}.{attr}"))
    for name, module in list(sys.modules.items()):
        if name != "quadrance" and not name.startswith("quadrance."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    fp_init = Fp.__init__

    def counting_init(self, r, p):
        tracer.fp_new += 1
        fp_init(self, r, p)

    Fp.__init__ = counting_init
