"""Spans and decomposition counts, recorded from outside the package.

While a Tracer is installed, timing wrappers stand in for the numpy.linalg
decompositions the package calls and for the public functions of the traced
blockpivot modules, under every name a blockpivot module imported them by.
Uninstalling puts the originals back.  Spans (name, start, end, parent,
item) stay in memory until ``write`` saves them.

``numpy.linalg.norm`` is left alone: the generators call it, and numpy's own
use of svd inside it does not go through the patched attribute.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

LAPACK = ("svd", "eigh", "eigvalsh", "eigvals", "solve")
EIG = ("eigh", "eigvalsh", "eigvals")
TRACED_MODULES = ("linalg", "transforms", "monotone", "convexity", "saddle", "generate", "suites", "matrixio")
# Validation helpers run hundreds of thousands of times per second of glue;
# spans around them would mostly measure the tracer.  The probes time them.
UNTRACED = frozenset({"as_matrix", "adjoint", "max_abs", "is_hermitian", "hermitian_part", "imag_part"})


class Tracer:
    def __init__(self):
        # One span per index: name code, start, end, parent span (-1 at the
        # root) and item id, kept in flat arrays so a run of a million spans
        # stays small.
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_of = array("i")
        self.calls = dict.fromkeys(LAPACK, 0)
        self.lapack_s = 0.0
        self.item = -1
        self.witness_items: set[int] = set()
        self._stack = [-1]
        self._patched: list = []

    def _open(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(code)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.item_of.append(self.item)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> float:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        return self.end[index] - self.start[index]

    def _wrap(self, name: str, fn, lapack: str | None = None):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._close(index)
                if lapack is not None:
                    self.calls[lapack] += 1
                    self.lapack_s += seconds
            if name == "monotone.rank_path_constant" and not result.constant:
                # a path that is not constant is what sends the report into
                # its witness search
                self.witness_items.add(self.item)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            return
        for name in LAPACK:
            self._patch(np.linalg, name, self._wrap(f"numpy.linalg.{name}", getattr(np.linalg, name), name))
        targets = {}
        for layer in TRACED_MODULES:
            module = sys.modules[f"blockpivot.{layer}"]
            for public in getattr(module, "__all__", ()):
                fn = getattr(module, public)
                if callable(fn) and not isinstance(fn, type) and public not in UNTRACED:
                    targets[id(fn)] = self._wrap(f"{layer}.{public}", fn)
        for modname, module in list(sys.modules.items()):
            if modname == "blockpivot" or modname.startswith("blockpivot."):
                for attr, value in list(vars(module).items()):
                    if id(value) in targets:
                        self._patch(module, attr, targets[id(value)])

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run_item(self, tally, index: int, item) -> None:
        """Run one item under a root span named ``item``."""
        self.item = index
        span = self._open("item")
        try:
            tally.run(index, item)
        finally:
            self._close(span)

    def self_seconds(self) -> dict:
        """Self time per span name: duration minus the time its children cover."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        own = np.bincount(name, duration, len(self.names))
        own -= np.bincount(name[parent[child]], duration[child], len(self.names))
        return dict(zip(self.names, own.tolist()))

    def write(self, path) -> None:
        """Save the spans as arrays: ``names[name[i]]`` is span i's name."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 item=np.frombuffer(self.item_of, dtype=np.int32))
