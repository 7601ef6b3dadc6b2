"""Span tracer that wraps pdcg's public functions and methods from outside.

``Tracer.install()`` replaces every public function of the measured
modules (in every ``pdcg`` namespace that holds it) and every public
method defined on their classes with a wrapper that records one span:
name, start, end and parent span.  The package source stays untouched;
``uninstall()`` restores the originals.  Spans are kept in flat arrays in
memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Modules of ``src/pdcg`` that count as layers.  ``cli`` is argparse plus a
# JSON config load around the same library calls, so it is not measured.
LAYERS = ("core", "functions", "algorithms", "certificates", "equivalence", "harness")

MATVEC_NAMES = ("core.LinearOperator.apply", "core.LinearOperator.adjoint_apply")


class Tracer:
    """In-memory span recorder; one per traced benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.matvec_bytes = array("d")  # computed bytes, parallel to the span arrays
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn, is_matvec: bool = False):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.start)
            tracer.name_of.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            # bytes of the dense (n, p) matrix a matvec reads
            tracer.matvec_bytes.append(8.0 * args[0].n * args[0].p if is_matvec else 0.0)
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1

        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [m for k, m in sys.modules.items() if k == "pdcg" or k.startswith("pdcg.")]
        for layer in LAYERS:
            module = importlib.import_module(f"pdcg.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        if vars(ns).get(attr) is obj:
                            self._restore.append((ns, attr, obj))
                            setattr(ns, attr, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        self._restore.append((obj, meth, fn))
                        setattr(obj, meth, self._wrap(name, fn, name in MATVEC_NAMES))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays (names indexed by ``name``)."""
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "matvec_bytes": np.frombuffer(self.matvec_bytes, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span as a compressed ``.npz`` (plus the name table)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Derived per-span quantities for analysis after a traced run."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name = a["name"]
        self.parent = a["parent"]
        self.duration = a["end"] - a["start"]
        self.matvec_bytes = a["matvec_bytes"]
        child = np.zeros_like(self.duration)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child
        self.layer = np.array([n.split(".", 1)[0] for n in self.names] or [""])[self.name]

    def ids(self, *names: str) -> np.ndarray:
        """Name ids of the given span names (unknown names are skipped)."""
        return np.array([self.names.index(n) for n in names if n in self.names], dtype=np.int32)

    def under(self, ancestor_ids: np.ndarray) -> np.ndarray:
        """Mask of spans that are, or descend from, a span named in ``ancestor_ids``."""
        mask = np.isin(self.name, ancestor_ids)
        has_parent = self.parent >= 0
        while True:  # one pass per level of call depth
            grown = mask.copy()
            grown[has_parent] |= mask[self.parent[has_parent]]
            if np.array_equal(grown, mask):
                return mask
            mask = grown
