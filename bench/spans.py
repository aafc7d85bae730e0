"""Span tracing of the library's layers, installed from outside the library.

``Tracer.install()`` rebinds, in every loaded ``twistparity`` module, each
attribute that holds a public function of a layer module (``numberfield``,
``localfields``, ``curves``, ``heckechars``, ``parity``, ``experiments``) or
``sympy.factorint``, to one wrapper per function. Functions look up module
globals at call time, so patching the defining module also catches calls made
inside it. Each call records a span (name, parent, start, end) in flat arrays;
``summary()`` turns them into per-name calls, self time (duration minus the
child spans) and total time (outermost spans only, so recursion is not counted
twice). Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import inspect
import sys
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("numberfield", "localfields", "curves", "heckechars", "parity", "experiments")
# localfields functions whose spans are split by the kind of place they run at
BY_PLACE_KIND = ("square_class_index", "hilbert_symbol", "is_unramified_class")
METHODS = (("experiments", "TwistRootNumberOracle", "root_number_of_twist"),)

_ODD_KIND = {None: "odd-q", "split": "odd-split", "inert": "odd-inert", "ramified": "odd-ram"}


def place_kind(lv) -> str:
    """real | complex | odd-q | odd-split | odd-inert | odd-ram | 2-deg1 | 2-e2 | 2-f2"""
    if lv.place_kind != "finite":
        return lv.place_kind
    if lv.p == 2:
        return "2-e2" if lv.e == 2 else "2-f2" if lv.f == 2 else "2-deg1"
    return _ODD_KIND[lv.place.splitting]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []  # open spans per name, to mark outermost ones
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._wrapped: dict[int, object] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def wrap(self, fn, label):
        """Wrap fn; ``label`` is a span name or a function (args, kwargs) -> name."""
        fixed = self.name_id(label) if isinstance(label, str) else None
        names, parent, outer, start, end = self.name, self.parent, self.outer, self.start, self.end
        stack, depth, name_id = self._stack, self._depth, self.name_id

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else name_id(label(args, kwargs))
            sid = len(start)
            names.append(nid)
            parent.append(stack[-1])
            outer.append(depth[nid] == 0)
            depth[nid] += 1
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
                depth[nid] -= 1

        return traced

    def _label_for(self, module: str, fn):
        base = f"{module}.{fn.__name__}"
        if module == "localfields" and fn.__name__ in BY_PLACE_KIND:
            kinds: dict[int, str] = {}

            def by_kind(args, kwargs):
                lv = kwargs["v"] if "v" in kwargs else args[-1]
                k = kinds.get(id(lv))
                if k is None:
                    k = kinds[id(lv)] = f"{base}.{place_kind(lv)}"
                return k
            return by_kind
        if module == "curves" and fn.__name__ == "reduction_type":
            # the library takes Tate's algorithm at residue characteristic 2 and 3
            def by_path(args, kwargs):
                v = kwargs["v"] if "v" in kwargs else args[1]
                return f"{base}.tate" if v.p in (2, 3) else f"{base}.fast"
            return by_path
        return base

    def install(self):
        import sympy

        layer_fns = {}
        for layer in LAYERS:
            mod = sys.modules[f"twistparity.{layer}"]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    layer_fns[id(fn)] = (layer, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "twistparity":
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is sympy.factorint:
                    setattr(mod, attr, self._wrapper(obj, "sympy.factorint"))
                elif id(obj) in layer_fns:
                    layer, fn = layer_fns[id(obj)]
                    setattr(mod, attr, self._wrapper(fn, self._label_for(layer, fn)))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"twistparity.{layer}"], cls_name)
            fn = getattr(cls, meth)
            setattr(cls, meth, self._wrapper(fn, f"{layer}.{cls_name}.{meth}"))

    def _wrapper(self, fn, label):
        w = self._wrapped.get(id(fn))
        if w is None:
            w = self._wrapped[id(fn)] = self.wrap(fn, label)
        return w

    # -- results --------------------------------------------------------------
    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.intc), np.frombuffer(self.parent, dtype=np.intc),
                np.frombuffer(self.outer, dtype=np.int8).astype(bool),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, self_s, total_s}."""
        name, parent, outer, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        m = len(self.names)
        calls = np.bincount(name, minlength=m)
        self_s = np.bincount(name, weights=self_time, minlength=m)
        total_s = np.bincount(name[outer], weights=dur[outer], minlength=m)
        return {n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                    "total_s": float(total_s[i])} for i, n in enumerate(self.names)}

    def grouped_ms(self, outer_name: str, first_child: str) -> list[float]:
        """Per-op milliseconds inside each ``outer_name`` span: an op starts at each
        direct child named ``first_child`` and runs until the next one starts (the
        last until the outer span ends). For oracle_crosscheck with make_char this
        is the cost of each twist."""
        if outer_name not in self._ids or first_child not in self._ids:
            return []
        name, parent, _, start, end = self.arrays()
        out = []
        for s in np.flatnonzero(name == self._ids[outer_name]):
            kids = np.flatnonzero((parent == s) & (name == self._ids[first_child]))
            bounds = np.append(start[kids], end[s])
            out.extend((np.diff(bounds) * 1e3).tolist())
        return out

    def save(self, path):
        name, parent, _, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)
