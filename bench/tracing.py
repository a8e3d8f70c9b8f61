"""Span tracing of conetube's layers from outside the program.

``Tracer`` wraps each layer's public functions and the public and
arithmetic methods of its classes. A name that other modules imported is
wrapped there too (``conetube.surgery.solve_shapes`` is the same function
as ``conetube.gluing.solve_shapes``), so every call into a layer opens a
span whichever module made it. Spans live in flat arrays (name, start, end,
parent, op id) and are written out once, when the run ends.

A layer's self time is the time its spans cover minus the time covered by
their direct child spans. Work inside private helpers is charged to the
public function that called it.
"""

from __future__ import annotations

import array
import collections
import functools
import inspect
import sys
import time
from pathlib import Path

import numpy as np

# modules of src/conetube that are timed; config only holds tolerances
LAYERS = ("jets", "gluing", "holonomy", "curves", "surgery", "tube", "cli")
# Jet operators are the jets layer's work; indexing and iteration are too
# small to be worth a span each
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
}


class Tracer:
    """Span wrappers for every layer, built once; ``activate`` installs them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.name = array.array("i")
        self.op = array.array("i")
        self.raised: collections.Counter = collections.Counter()
        self.jets_built = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._build()

    # -- wrapping ----------------------------------------------------------

    def _span_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
            self.layer_of.append(LAYERS.index(label.split(".", 1)[0]))
        return self._ids[label]

    def wrap(self, fn, label: str):
        """fn with a span named label around every call."""
        nid = self._span_id(label)
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        stack, raised, clock, tracer = self._stack, self.raised, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised[nid] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _count_jets(self, post_init):
        tracer = self

        @functools.wraps(post_init)
        def counted(jet):
            tracer.jets_built += 1
            post_init(jet)

        return counted

    def _build(self) -> None:
        import conetube

        modules = [conetube] + [sys.modules[f"conetube.{m}"] for m in LAYERS]
        for layer in LAYERS:
            module = sys.modules[f"conetube.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(obj, f"{layer}.{attr}")
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is obj:
                                self._patches.append((m, key, obj, wrapped))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        jet = sys.modules["conetube.jets"].Jet
        self._patches.append((jet, "__post_init__", jet.__post_init__, self._count_jets(jet.__post_init__)))

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            label = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                new = self.wrap(member, label)
            elif isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self.wrap(member.__func__, label))
            else:
                continue
            self._patches.append((cls, attr, member, new))

    def activate(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def deactivate(self) -> None:
        for owner, attr, old, _ in reversed(self._patches):
            setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The span columns, one entry per span, as views: call once tracing ended."""
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def layer_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """(self time in seconds, span count) of each layer, in LAYERS order."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        layer = np.asarray(self.layer_of, dtype=np.int64)[a["name"]]
        return (
            np.bincount(layer, weights=dur - child, minlength=len(LAYERS)),
            np.bincount(layer, minlength=len(LAYERS)),
        )

    def durations(self, label: str) -> np.ndarray:
        """Durations in seconds of every span named label."""
        a = self.arrays()
        return (a["end"] - a["start"])[a["name"] == self._ids.get(label, -1)]

    def raised_in(self, label: str) -> int:
        return self.raised[self._ids.get(label, -1)]

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
