"""Outside-in tracer for isogeny-kit.

The tracer changes no library code.  It replaces the public functions and
methods of each library module with wrappers, installed from here, and
puts the originals back on `uninstall`:

- a public module-level function, a public method, or one of the
  arithmetic and equality special methods of a library class records a
  *span* (id, key, parent span, op id, start, end) in its module's layer;
- `Scalar` arithmetic and allocation are only *counted*: they run millions
  of times per pass, and their time stays with the calling layer;
- generator functions are counted per item they yield, since their body
  runs interleaved with the consumer;
- a few private helpers that mark a fallback path are counted by name.

A function is re-bound in every library module namespace that holds it,
because modules import names from each other (`suites` does
`from .algebras import reduced_norm_A`).  Self time is aggregated as spans
close: a span's duration minus the time covered by its child spans, summed
per layer.  The first MAX_SPANS spans are kept in memory and written out
by `write_spans`, which records how many were dropped past the cap; the
calls and self times count every span.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array

PACKAGE = "isogeny_kit"
# a traced suites pass makes millions of spans at 40 bytes each
MAX_SPANS = 500_000

LAYERS = ("exactfield", "linalg", "quadforms", "towers", "algebras",
          "spin_low", "spin_six", "spin_eight", "wedge", "smallfields",
          "suites", "cli")

# special methods that do work worth a span; __init__, __hash__,
# __getitem__ and __repr__ stay with the caller's layer
SPAN_DUNDERS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "__eq__",
    "__call__"))

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
              "__pow__", "inverse")

# the scalar kernel: Scalar is counted, FieldDesc is left to its callers
KERNEL_CLASSES = {"exactfield": ("Scalar", "FieldDesc")}

# private helpers that mark a fallback path, counted without a span
COUNTED_PRIVATE = {"spin_eight": ("_norm8_split_oracle",)}

# calls through one module's binding of a name, counted on top of the span:
# the census calls spinor_norm once per isometry it filters
COUNTED_BINDINGS = {("smallfields", "spinor_norm"): "smallfields.spinor_filtered"}

# spans whose results are summarised: total len(result) and None results
WATCHED_RESULTS = ("quadforms.cartan_dieudonne", "quadforms.find_isotropic")


class Tracer:
    def __init__(self):
        self.keys = []          # key id -> "layer.name" or "layer.Class.name"
        self.key_layer = []     # key id -> layer index
        self.calls = []         # key id -> call count
        self.layer_self = [0.0] * len(LAYERS)
        self.counts = {}        # counters without spans, by name
        self.results = {k: [0, 0] for k in WATCHED_RESULTS}  # [sum len, None]
        self.stack = []         # open spans: [span id, time covered by children]
        self.next_span = 0
        self.op_id = -1
        self.spans = {f: array(t) for f, t in (
            ("id", "q"), ("key", "i"), ("parent", "q"), ("op", "i"),
            ("start", "d"), ("end", "d"))}
        self._patches = []      # (owner, name, original)
        self.modules = {}

    # -- installation -------------------------------------------------

    def install(self) -> "Tracer":
        self.modules = {layer: importlib.import_module("%s.%s" % (PACKAGE, layer))
                        for layer in LAYERS}
        scalar = self.modules["exactfield"].Scalar
        for name in SCALAR_OPS:
            self._set(scalar, name, self._counted(vars(scalar)[name],
                                                  "exactfield.scalar_ops"))
        self._set(scalar, "__init__", self._counted(vars(scalar)["__init__"],
                                                    "exactfield.scalar_allocs"))
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    self._rebind(obj, self._wrap(layer, "%s.%s" % (layer, name), obj))
                elif inspect.isclass(obj) and name not in KERNEL_CLASSES.get(layer, ()):
                    self._wrap_class(layer, obj)
            for name in COUNTED_PRIVATE.get(layer, ()):
                fn = vars(mod)[name]
                self._rebind(fn, self._counted(fn, "%s.%s.calls" % (layer, name)))
        for (layer, name), counter in COUNTED_BINDINGS.items():
            mod = self.modules[layer]
            self._set(mod, name, self._counted(vars(mod)[name], counter))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _set(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _rebind(self, original, wrapper):
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    self._set(mod, name, wrapper)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in SPAN_DUNDERS:
                continue
            key = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, (staticmethod, classmethod)):
                self._set(cls, name, type(attr)(self._wrap(layer, key, attr.__func__)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(layer, key, attr))

    # -- wrappers -----------------------------------------------------

    def _counted(self, fn, counter):
        counts = self.counts
        counts.setdefault(counter, 0)

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, layer, key, fn):
        if inspect.isgeneratorfunction(fn):
            return self._counted_generator(fn, key + ".yielded")
        kid = len(self.keys)
        lid = LAYERS.index(layer)
        self.keys.append(key)
        self.key_layer.append(lid)
        self.calls.append(0)
        calls, layer_self, stack, perf = self.calls, self.layer_self, self.stack, time.perf_counter
        watched = self.results.get(key)

        def span(*args, **kwargs):
            sid = self.next_span
            self.next_span = sid + 1
            calls[kid] += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                layer_self[lid] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if sid < MAX_SPANS:
                    self._store(sid, kid, parent, t0, t1)
            if watched is not None:
                if result is None:
                    watched[1] += 1
                else:
                    watched[0] += len(result)
            return result
        span.__wrapped__ = fn
        return span

    def _store(self, sid, kid, parent, t0, t1):
        s = self.spans
        s["id"].append(sid)
        s["key"].append(kid)
        s["parent"].append(parent)
        s["op"].append(self.op_id)
        s["start"].append(t0)
        s["end"].append(t1)

    def _counted_generator(self, fn, counter):
        counts = self.counts
        counts.setdefault(counter, 0)

        def gen(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[counter] += 1
                yield item
        return gen

    # -- reading ------------------------------------------------------

    def key_calls(self, key) -> int:
        return self.calls[self.keys.index(key)]

    def layer_calls(self, layer) -> int:
        lid = LAYERS.index(layer)
        return sum(c for c, k in zip(self.calls, self.key_layer) if k == lid)

    def layer_self_s(self, layer) -> float:
        return self.layer_self[LAYERS.index(layer)]

    def dropped_spans(self) -> int:
        return self.next_span - len(self.spans["id"])

    def write_spans(self, path):
        """Tab-separated spans, in the order they closed, after a comment
        line with the number of spans dropped past MAX_SPANS."""
        s = self.spans
        with gzip.open(path, "wt") as fh:
            fh.write("# spans %d kept %d dropped %d (cap MAX_SPANS = %d)\n" % (
                self.next_span, len(s["id"]), self.dropped_spans(), MAX_SPANS))
            fh.write("span\tkey\tparent\top\tstart_s\tend_s\n")
            for i in range(len(s["id"])):
                fh.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\n" % (
                    s["id"][i], self.keys[s["key"][i]], s["parent"][i],
                    s["op"][i], s["start"][i], s["end"][i]))
