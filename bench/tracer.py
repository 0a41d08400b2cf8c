"""Per-layer spans and counts, from wrappers around the program's functions.

Nothing inside ``semistar`` is changed: each traced function is replaced,
in every module namespace and class that binds it, by a wrapper that
records a span (name, start, end, parent span, invocation, pass) and adds
to the layer's call count, self time and work counts.  Functions imported
by name into another module (``engine`` binds ``count_hom``, ``chain``,
``subposet`` and ``enum_hom`` itself) are wrapped there too, and the
recursion of ``count_hom`` through the ``posets`` global is traced.

Self time is a span's duration minus the time covered by its child spans.
The hottest calls are counted and timed without keeping their spans:
``Poset.__hash__`` (every cache lookup keyed by a poset),
``Support.component_poset`` (a cached accessor called per support and
branch) and ``MultiPoly`` addition and multiplication.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _relation_pairs(args, result):
    pairs = args[2] if len(args) > 2 else None
    if hasattr(pairs, "__len__"):
        return len(pairs)
    return sum(result.up_mask(i).bit_count() for i in range(result.size))


# (layer, module, attribute path, {work count: function of (args, result)}, keep spans)
TARGETS = (
    ("cli", "semistar.cli", "main", {}, True),
    ("spectrum.validate", "semistar.spectrum", "validate_tree", {}, True),
    ("spectrum.surgery", "semistar.spectrum", "branch_subtree", {}, True),
    ("spectrum.surgery", "semistar.spectrum", "quotient_subtree", {}, True),
    ("spectrum.surgery", "semistar.spectrum", "SpectrumTree.with_labels", {}, True),
    ("spectrum.supports", "semistar.spectrum", "enumerate_supports",
     {"visited": lambda a, r: len(r)}, True),
    ("spectrum.component_poset", "semistar.spectrum", "Support.component_poset", {}, False),
    ("engine.count_semistar", "semistar.engine", "count_semistar", {}, True),
    ("engine.count_smstar", "semistar.engine", "count_smstar", {}, True),
    ("engine.tildhom", "semistar.engine", "tildhom_count", {}, True),
    ("engine.fstar_poset", "semistar.engine", "fstar_poset",
     {"elements": lambda a, r: r.size}, True),
    ("engine.semistar_poset", "semistar.engine", "semistar_poset",
     {"elements": lambda a, r: r.size}, True),
    ("posets.count_hom", "semistar.posets", "count_hom", {}, True),
    ("posets.enum_hom", "semistar.posets", "enum_hom", {"maps": lambda a, r: len(r)}, True),
    ("posets.chain", "semistar.posets", "chain", {"elements": lambda a, r: a[0]}, True),
    ("posets.subposet", "semistar.posets", "subposet", {"elements": lambda a, r: r.size}, True),
    ("posets.from_relation", "semistar.posets", "Poset.from_relation",
     {"pairs": _relation_pairs}, True),
    ("posets.covers", "semistar.posets", "Poset.covers", {}, True),
    ("posets.hash", "semistar.posets", "Poset.__hash__", {}, False),
    ("polynomials.interpolate", "semistar.polynomials", "interpolate", {}, True),
    ("polynomials.add", "semistar.polynomials", "MultiPoly.__add__", {}, False),
    ("polynomials.add", "semistar.polynomials", "MultiPoly.__radd__", {}, False),
    ("polynomials.mul", "semistar.polynomials", "MultiPoly.__mul__", {}, False),
    ("polynomials.mul", "semistar.polynomials", "MultiPoly.__rmul__", {}, False),
    ("polynomials.evaluate", "semistar.polynomials", "MultiPoly.evaluate", {}, True),
)


class _Layer:
    __slots__ = ("calls", "self_s", "work")

    def __init__(self, work_names):
        self.calls = 0
        self.self_s = 0.0
        self.work = {name: 0 for name in work_names}


class Tracer:
    """Wraps the traced functions while installed; keeps spans in memory."""

    def __init__(self):
        self.layers: dict[str, _Layer] = {}
        self.spans: list[tuple] = []
        self.invocation = None
        self.phase = None
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []
        self._wrapped: dict[int, object] = {}

    # -- installation --------------------------------------------------------

    def install(self):
        for layer, module_name, path, work, keep_span in TARGETS:
            stats = self.layers.setdefault(layer, _Layer(work))
            owner = sys.modules[module_name]
            *class_path, attr = path.split(".")
            for name in class_path:
                owner = getattr(owner, name)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            func = raw.__func__ if is_classmethod else raw
            wrapper = self._wrapped.get(id(func))
            if wrapper is None:
                if layer == "polynomials.interpolate":
                    wrapper = self._wrap_interpolate(func, stats)
                else:
                    wrapper = self._wrap(layer, func, stats, work, keep_span)
                self._wrapped[id(func)] = wrapper
            if isinstance(owner, type):
                self._set(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            else:
                # every module of the package that bound the function by name
                for module_name_k, module in list(sys.modules.items()):
                    if module_name_k.split(".")[0] == "semistar" and module is not None:
                        if getattr(module, attr, None) is func:
                            self._set(module, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, func, stats, work, keep_span=True):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep_span:
                frame = [self._next_id, 0.0]
                self._next_id += 1
            else:
                # the children of an unkept span hang from its nearest kept ancestor
                frame = [None if parent is None else parent[0], 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if keep_span:
                    spans.append((frame[0], name, start, end,
                                  None if parent is None else parent[0],
                                  self.invocation, self.phase))
            for key, measure in work.items():
                stats.work[key] += measure(args, result)
            return result

        return wrapper

    def _wrap_interpolate(self, func, stats):
        stats.work["evaluations"] = 0
        traced = self._wrap("polynomials.interpolate", func, stats, {})

        def wrapper(evaluator, *args, **kwargs):
            def counted(point):
                stats.work["evaluations"] += 1
                return evaluator(point)

            return traced(counted, *args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        out = {}
        for layer, stats in self.layers.items():
            out[f"{layer}.calls"] = stats.calls
            out[f"{layer}.self_s"] = stats.self_s
            for key, value in stats.work.items():
                out[f"{layer}.{key}"] = value
        return out

    def write_spans(self, path: str):
        """JSON lines: a header naming the fields, then one array per span."""
        fields = ["id", "name", "start", "end", "parent", "invocation", "pass"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": fields}) + "\n")
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")
