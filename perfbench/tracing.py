"""In-process tracing of ``odx`` for the per-layer metrics.

:class:`Tracer` replaces every public function of the ``odx`` modules, at
every module that binds it, and the public methods of ``MarketLP``, with a
wrapper that records a span (name, start, end, parent).  Spans stay in
memory until :meth:`Tracer.report` folds them into per-layer figures.

A span's self time is its duration minus the time of its direct child
spans.  ``<layer>.self_s`` sums the self time of the layer's functions.
Each metric of ``GROUPS`` sums the self time of the functions it names plus
that of the helpers they call which no group names, of any layer
(``extract_characteristics`` also covers its per-node
``tree.conditional_moment`` calls), so the groups never count a second
twice.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

MODULES = ("tree", "structure", "deflators", "decompose", "superhedge", "mc",
           "io", "cli", "random_models")
LAYERS = ("cli", "io", "tree", "structure", "deflators", "decompose",
          "superhedge", "mc")
TRACED_CLASSES = ("MarketLP",)
# third-party calls counted where odx looks them up: (module, name)
FOREIGN = (("decompose", "linprog"),)

GROUPS = {
    "io.load_s": ("io.load_model", "io.adapted_from_json", "io.load_claim"),
    "io.emit_s": ("io.dump_json", "io.process_to_json",
                  "io.decomposition_to_json"),
    "tree.path_accum_s": ("tree.path_cumsum", "tree.path_cumprod",
                          "tree.doob_decompose", "tree.quadratic_covariation"),
    "structure.characteristics_s": ("structure.extract_characteristics",),
    "structure.solve_s": ("structure.solve_structure",),
    "deflators.numeraire_s": ("deflators.numeraire_portfolio",),
    "deflators.jump_martingale_s": ("deflators.orthogonal_jump_martingale",),
    "decompose.marketlp_s": ("decompose.MarketLP.__init__",),
    "decompose.node_max_s": ("decompose.MarketLP.node_max",),
    "decompose.supermart_s": ("decompose.is_supermartingale_under_all",),
    "decompose.ldp_s": ("decompose.min_norm_superhedge",),
    "decompose.lp_route_s": ("decompose.decompose_lp",),
    "decompose.kw_route_s": ("decompose.decompose_kw",),
    "decompose.uniqueness_s": ("decompose.check_uniqueness",),
    "superhedge.snell_s": ("superhedge.snell_envelope",),
    "superhedge.view_s": ("superhedge.portfolio_view",),
    "mc.simulate_s": ("mc.simulate",),
    "mc.deflate_s": ("mc.deflate_paths",),
    "mc.structural_rho_s": ("mc.structural_rho",),
    "mc.martingale_test_s": ("mc.martingale_test",),
}
CALLS = {
    "tree.path_accum_calls": GROUPS["tree.path_accum_s"],
    "deflators.numeraire_calls": GROUPS["deflators.numeraire_s"],
    "decompose.highs_calls": ("decompose.linprog",),
}
PER_NODE = {
    "decompose.node_max_per_node": "decompose.MarketLP.node_max",
    "decompose.ldp_per_node": "decompose.min_norm_superhedge",
}


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Wraps the ``odx`` functions while installed; keeps the spans."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self._stack = []
        self._wrapped = {}   # original function -> wrapper
        self._patched = []   # (owner, attribute, original)

    def _wrap(self, fn, name):
        if fn not in self._wrapped:
            spans, stack = self.spans, self._stack

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()

            self._wrapped[fn] = traced
        return self._wrapped[fn]

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def install(self):
        modules = [importlib.import_module("odx")]
        modules += [importlib.import_module(f"odx.{m}") for m in MODULES]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__.startswith("odx.")):
                    self._patch(module, attr, _span_name(obj))
        for module in modules[1:]:
            for cls_name in TRACED_CLASSES:
                cls = vars(module).get(cls_name)
                if cls is not None and cls.__module__ == module.__name__:
                    for attr, obj in list(vars(cls).items()):
                        if inspect.isfunction(obj) and (
                                attr == "__init__" or not attr.startswith("_")):
                            self._patch(cls, attr, _span_name(obj))
        for mod, attr in FOREIGN:
            self._patch(importlib.import_module(f"odx.{mod}"), attr,
                        f"{mod}.{attr}")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def report(self, nonleaf_nodes):
        """Per-layer self times, the grouped metrics, call counts and
        calls per non-leaf node, all keyed by metric name."""
        group_of = {fn: g for g, fns in GROUPS.items() for fn in fns}
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({g: 0.0 for g in GROUPS})
        groups = [None] * n
        calls = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            layer = name.split(".", 1)[0]
            group = group_of.get(name)
            if group is None and parent >= 0:
                group = groups[parent]
            groups[i] = group
            self_time = end - start - child_time[i]
            if f"{layer}.self_s" in out:
                out[f"{layer}.self_s"] += self_time
            if group is not None:
                out[group] += self_time
        for metric, fns in CALLS.items():
            out[metric] = sum(calls[fn] for fn in fns)
        for metric, fn in PER_NODE.items():
            out[metric] = calls[fn] / nonleaf_nodes if nonleaf_nodes else 0.0
        return out

    def dump(self):
        """Spans as plain lists, names replaced by indices into ``names``."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {"names": names,
                "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]}
