"""Span tracing of qlevy's layers, installed from outside the package.

`Tracer.install()` wraps the public functions and methods of each layer
module and replaces every binding of each wrapped object across the
`qlevy.*` modules (`gram` and `fock` import `conv_exp`, `multiply` and
`involute` by name).  `uninstall()` puts the originals back.

Each wrapped call is a span: name, start, end and parent.  Spans are
aggregated as they close (calls, inclusive and self time, errors) and the
first `SPAN_CAP` are kept in memory for `write_spans`.  A layer's self time
is the time of its spans minus the time of their child spans.  Methods that
run millions of times and cross no layer boundary get a bare call counter
instead of a span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("ncpoly", "bialg", "constructions", "subcoalg", "gns", "gram", "fock", "cli")

# Hot methods that get a call counter and no span.
COUNTED = {"ncpoly.NcPoly.key"}

# Public methods left alone: value-type helpers and memoized lookups that
# run far more often than any layer boundary and would drown the trace.
UNWRAPPED_CLASSES = {"ncpoly.NcPoly", "ncpoly.AlgebraSpec", "bialg.TensorPoly",
                     "bialg.SweedlerExpansion", "gram.ConvergenceRow"}
UNWRAPPED = {
    "bialg.BialgebraSpec.coproduct_word", "bialg.BialgebraSpec.key_counit",
    "bialg.BialgebraSpec.key_delta", "bialg.BialgebraSpec.key_star",
    "bialg.BialgebraSpec.unit_key", "bialg.LinearFunctional.on_word",
    "constructions.GroupLikeBialgebra.poly", "constructions.GroupLikeBialgebra.register",
    "constructions.GroupLikeBialgebra.unit_key", "constructions.GroupLikeBialgebra.key_counit",
    "constructions.GroupLikeBialgebra.key_delta", "constructions.Morphism.map_key",
    "gns.LevyTriple.eta_word", "gns.LevyTriple.rho_word",
    "gram.FactorizedVectorSum.add_term", "gram.FactorizedVectorSum.n_terms",
    "fock.FockFactor.total", "fock.FockFactor.vacuum", "fock.FockFactor.creation",
    "fock.FockFactor.annihilation", "subcoalg.Subcoalgebra.dim",
}

SPAN_CAP = 50_000


class _Stat:
    __slots__ = ("calls", "incl", "self", "errors", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0      # time of outermost calls only (recursion-safe)
        self.self = 0.0
        self.errors = 0
        self.depth = 0


def _boundaries(mod):
    """(qualified name, owner, attribute, raw value) of each public function
    and method of a layer module that gets a span or a counter."""
    layer = mod.__name__.rsplit(".", 1)[1]
    for attr, value in vars(mod).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(value):
            yield f"{layer}.{attr}", mod, attr, value
        elif inspect.isclass(value):
            for mattr, raw in vars(value).items():
                name = f"{layer}.{attr}.{mattr}"
                public = not mattr.startswith("_") or mattr == "__call__"
                function = isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw)
                left_alone = name in UNWRAPPED or f"{layer}.{attr}" in UNWRAPPED_CLASSES
                if public and function and (name in COUNTED or not left_alone):
                    yield name, value, mattr, raw


class Tracer:
    """Wraps qlevy's layer boundaries; aggregate with `stats`, `edges`, `sizes`."""

    def __init__(self, sizes=None):
        from qlevy.errors import QLevyError

        self._error_type = QLevyError
        self._sizes_of = dict(sizes or {})   # span name -> f(args, result) -> count
        self._restore = []
        self.task_id = -1
        self.stats = defaultdict(_Stat)
        self.edges = defaultdict(int)     # (parent span name, span name) -> calls
        self.sizes = defaultdict(float)   # span name -> summed size of results
        self.size_max = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []                   # (id, parent id, task, name, start, end)
        self.dropped = 0
        self._stack = []
        self._next_id = 0

    def reset(self):
        """Zero every aggregate in place; the wrappers hold references to them."""
        for stat in self.stats.values():
            stat.__init__()
        for table in (self.edges, self.sizes, self.size_max, self.counters):
            table.clear()
        self.spans.clear()
        self.dropped = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        stat = self.stats[name]
        clock = time.perf_counter
        stack = self._stack
        size_of = self._sizes_of.get(name)
        error_type = self._error_type
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            frame = [0.0, name, self._next_id, layer]   # child time, name, id, layer
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if parent is None or parent[3] != layer:   # the error leaves the layer
                    stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                duration = end - start
                stat.calls += 1
                stat.self += duration - frame[0]
                if stat.depth == 0:
                    stat.incl += duration
                if parent is None:
                    self.edges[(None, name)] += 1
                else:
                    parent[0] += duration
                    self.edges[(parent[1], name)] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[2], parent[2] if parent else -1,
                                       self.task_id, name, start, end))
                else:
                    self.dropped += 1
            if size_of is not None:
                size = size_of(args, result)
                self.sizes[name] += size
                self.size_max[name] = max(self.size_max[name], size)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"qlevy.{layer}") for layer in LAYERS]
        replace = {}                      # id(original object) -> replacement
        for mod in mods:
            for name, owner, attr, raw in _boundaries(mod):
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                make = self._counter if name in COUNTED else self._span
                wrapped = make(name, fn)
                replace[id(raw)] = kind(wrapped) if kind else wrapped
                self._rebind(owner, attr, replace[id(raw)])
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qlevy" or mod_name.startswith("qlevy.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and replace[id(value)] is not value:
                    self._rebind(mod, attr, replace[id(value)])
        return self

    def _rebind(self, owner, attr, value):
        original = vars(owner)[attr]
        if original is value:
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------------

    def _layer_stats(self, layer):
        return (s for n, s in self.stats.items() if n.split(".", 1)[0] == layer)

    def layer_self(self, layer):
        """Self time of a layer's spans, in seconds."""
        return sum(s.self for s in self._layer_stats(layer))

    def layer_errors(self, layer):
        """QLevyErrors raised out of the layer."""
        return sum(s.errors for s in self._layer_stats(layer))

    def write_spans(self, path):
        """Write the kept spans as tab-separated text, one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\ttask\tname\tstart_s\tend_s\n")
            for span_id, parent, task, name, start, end in self.spans:
                fh.write(f"{span_id}\t{parent}\t{task}\t{name}\t{start:.9f}\t{end:.9f}\n")
