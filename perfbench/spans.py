"""Spans recorded from outside the walshflow package.

`Tracer.install` replaces every name in the walshflow modules that binds a
walshflow function (re-imports such as `walshflow.cli.skew_lattice_flow`
included) and every public method on walshflow classes with a wrapper that
records one span per call: name, start, end and parent span. Each wrapped
function gets one span name, `<layer>.<qualname>`, where the layer is the
module that defines it, so a call through a re-import counts for the
module that owns the code.

Spans are kept in flat arrays while the program runs and written out in
one file when it ends; `self_times` and `aggregate` turn them into
per-function and per-layer self time.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("graph", "semigroup", "paths", "flows", "stats", "cli")

# private names that another module calls directly, so they are a boundary
EXTRA_BOUNDARIES = {"flows.MappingFlow._excursion_ray"}

# functions whose arguments (or receiver's key) are counted for distinct_frac
KEYED = {
    "paths.dyadic_label": lambda args: args[:2],
    "paths.RngStream.generator": lambda args: (args[0].root_seed, args[0].stream_key),
}


class Tracer:
    def __init__(self, invocation: int = 0):
        self.invocation = invocation
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    def wrap(self, fn, name: str):
        """Return fn wrapped to record a span named `name` per call. Every
        name bound to one function object gets the same wrapper."""
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        keyed = KEYED.get(name)
        seen = self.keys.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            if keyed is not None:
                seen.add(keyed(args))
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self) -> None:
        """Wrap the walshflow modules in place, for the life of the process."""
        modules = [importlib.import_module(f"walshflow.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("walshflow"))
        classes = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                if not home.startswith("walshflow."):
                    continue
                layer = home.split(".", 1)[1]
                if isinstance(obj, type):
                    classes[id(obj)] = (obj, layer)
                elif isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    name = f"{layer}.{obj.__qualname__}"
                    setattr(module, attr, self.wrap(obj, name))
        for cls, layer in classes.values():
            for attr, raw in list(vars(cls).items()):
                name = f"{layer}.{cls.__qualname__}.{attr}"
                if attr.startswith("_") and name not in EXTRA_BOUNDARIES:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(cls, attr, type(raw)(self.wrap(raw.__func__, name)))
                elif isinstance(raw, types.FunctionType):
                    setattr(cls, attr, self.wrap(raw, name))

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            invocation=np.int64(self.invocation),
        )

    def distinct(self) -> dict[str, int]:
        return {name: len(keys) for name, keys in self.keys.items()}


def self_times(start, end, parent):
    """Per span: its duration minus the part of it its child spans cover.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and the covered part is the sum of their durations.
    """
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def aggregate(names, name_id, start, end, parent) -> dict[str, dict[str, int]]:
    """Calls and self time (ns) per span name, plus the root spans' total."""
    own = self_times(start, end, parent)
    name_id = np.asarray(name_id)
    calls = np.bincount(name_id, minlength=len(names))
    self_ns = np.zeros(len(names), dtype=np.int64)
    np.add.at(self_ns, name_id, own)
    roots = np.asarray(parent) < 0
    root_ns = int(np.sum(np.asarray(end)[roots] - np.asarray(start)[roots]))
    per_name = {
        str(name): {"calls": int(calls[i]), "self_ns": int(self_ns[i])}
        for i, name in enumerate(names)
        if calls[i]
    }
    return {"names": per_name, "root_ns": root_ns}


def load_aggregate(path: str) -> dict:
    with np.load(path) as data:
        return aggregate(
            data["names"], data["name_id"], data["start"], data["end"], data["parent"]
        )
