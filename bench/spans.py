"""Span recorder for the traced benchmark run.

Hooks wrap endscope functions by name wherever an endscope module binds them,
so calls made by the benchmark and calls between endscope modules are both
recorded.  A span holds its name, start, end, parent span and item id, in flat
arrays that stay in memory until the run ends.  A layer's self time is its
span time minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    layer: str  # <module>.<function>
    module: str
    attr: str
    stats: tuple  # stats printed for this layer, from calls / self_s / an amount
    amount: object = None  # result -> number, summed into the amount stat
    probe: object = None  # () -> number read before and after; the growth is summed
    method_of: str | None = None  # wrap `attr` on every subclass of this class


HOOKS = (
    Hook("cayley.multiply", "endscope.cayley", "multiply", ("calls", "self_s"),
         method_of="GroupOracle"),
    Hook("cayley.build_ball", "endscope.cayley", "build_ball", ("self_s", "elements"),
         lambda ball: len(ball.order)),
    Hook("cayley.estimate_ends", "endscope.cayley", "estimate_ends", ("self_s", "radii"),
         lambda est: len(est.per_radius)),
    Hook("coxeter.tits_normal_form", "endscope.coxeter", "tits_normal_form", ("calls", "self_s")),
    Hook("report.render_dot", "endscope.report", "render_dot", ("self_s", "bytes"), len),
    Hook("graphs.enumerate_clique_separators", "endscope.graphs", "enumerate_clique_separators",
         ("calls", "self_s")),
    Hook("coxeter.is_finite_type", "endscope.coxeter", "is_finite_type", ("calls", "self_s")),
    Hook("graph_products.graph_product_ends", "endscope.graph_products", "graph_product_ends",
         ("calls", "self_s")),
    Hook("graph_products.graph_product_semistable", "endscope.graph_products",
         "graph_product_semistable", ("calls", "self_s")),
    Hook("graph_products.raag_simply_connected_at_infinity", "endscope.graph_products",
         "raag_simply_connected_at_infinity", ("calls", "self_s")),
    Hook("coxeter.coxeter_ends", "endscope.coxeter", "coxeter_ends", ("calls", "self_s")),
    Hook("inference.infer", "endscope.inference", "infer", ("self_s", "facts"), len),
    Hook("inference.certificate_as_dict", "endscope.inference", "certificate_as_dict",
         ("self_s", "nodes")),
    Hook("cli.run", "endscope.cli", "run", ("self_s", "output_bytes"),
         probe=lambda: sys.stdout.tell()),  # stdout is captured per item
    Hook("model.parse_document", "endscope.model", "parse_document", ("self_s",)),
    Hook("towers.hermite_normal_form", "endscope.towers", "hermite_normal_form", ("calls", "self_s")),
    Hook("towers.ml_decide_constant", "endscope.towers", "ml_decide_constant", ("calls", "self_s")),
    Hook("towers.ml_check_window", "endscope.towers", "ml_check_window", ("calls", "self_s")),
)

# Stats that count spans rather than sum an amount.
CALL_STATS = {"calls", "nodes"}
UNITS = {"calls": "count", "nodes": "count", "self_s": "s", "elements": "count",
         "radii": "count", "facts": "count", "bytes": "bytes", "output_bytes": "bytes"}


# Which end-to-end metric each layer should move, on which workload, and the
# workloads that bypass the layer (where the prediction is no change).
PREDICTIONS = {
    "cayley.multiply": ("items_per_s, item_tail_ms", "sweep, cayley_cli", "analyze, deciders"),
    "cayley.build_ball": ("items_per_s, peak_rss_mb", "sweep, cayley_cli", "analyze, deciders"),
    "cayley.estimate_ends": ("item_tail_ms", "sweep", "analyze, deciders"),
    "coxeter.tits_normal_form": ("items_per_s", "cayley_cli", "sweep (labels 2, 3)"),
    "report.render_dot": ("output_mb, items_per_s", "cayley_cli", "sweep, deciders"),
    "graphs.enumerate_clique_separators": ("item_tail_ms; items_per_s", "deciders; analyze", "sweep"),
    "coxeter.is_finite_type": ("item_tail_ms; items_per_s", "deciders; analyze", "sweep"),
    "graph_products.graph_product_ends": ("item_tail_ms", "deciders, analyze", "sweep, cayley_cli"),
    "graph_products.graph_product_semistable": ("item_tail_ms", "deciders, analyze", "sweep, cayley_cli"),
    "graph_products.raag_simply_connected_at_infinity": ("item_tail_ms", "deciders, analyze",
                                                         "sweep, cayley_cli"),
    "coxeter.coxeter_ends": ("items_per_s (decide once)", "analyze", "deciders, sweep (one call per item)"),
    "inference.infer": ("items_per_s", "analyze", "all others"),
    "inference.certificate_as_dict": ("output_mb, items_per_s, peak_rss_mb", "analyze", "all others"),
    "cli.run": ("output_mb, items_per_s, peak_rss_mb", "analyze, cayley_cli", "sweep, deciders"),
    "model.parse_document": ("items_per_s (small today)", "analyze", "all others"),
    "towers.hermite_normal_form": ("item_p50_ms", "deciders", "all others"),
    "towers.ml_decide_constant": ("item_p50_ms", "deciders", "all others"),
    "towers.ml_check_window": ("item_p50_ms", "deciders", "all others"),
}


class SpanRecorder:
    def __init__(self):
        self.layers = []  # span name id -> layer
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amounts = {}  # layer -> summed amount
        self.stack = []
        self.item_id = -1

    def wrap(self, fn, hook):
        """A wrapper that records one span per call of `fn`."""
        if hook.layer not in self.layers:
            self.layers.append(hook.layer)
        nid = self.layers.index(hook.layer)
        layer, amount, probe = hook.layer, hook.amount, hook.probe
        rec, clock = self, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.item.append(rec.item_id)
            rec.end.append(0.0)
            rec.stack.append(idx)
            before = probe() if probe else 0
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec.stack.pop()
            if amount or probe:
                got = amount(result) if amount else probe() - before
                rec.amounts[layer] = rec.amounts.get(layer, 0) + got
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=HOOKS):
        """Wrap every hook; returns the layers whose target no longer resolves."""
        missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "endscope" or n.startswith("endscope."))]
        for hook in hooks:
            module = sys.modules.get(hook.module)
            if hook.method_of:
                base = getattr(module, hook.method_of, None)
                classes = [c for c in vars(module).values() if isinstance(c, type)
                           and isinstance(base, type) and issubclass(c, base)
                           and callable(vars(c).get(hook.attr))] if module else []
                if not classes:
                    missing.append(hook.layer)
                for cls in classes:
                    setattr(cls, hook.attr, self.wrap(vars(cls)[hook.attr], hook))
                continue
            target = getattr(module, hook.attr, None) if module else None
            if not callable(target):
                missing.append(hook.layer)
                continue
            wrapper = self.wrap(target, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, key, wrapper)
        return missing

    def mark(self):
        """Position to split spans by pass."""
        return len(self.start), dict(self.amounts)

    def truncate(self, begin):
        """Forget the spans from `begin` on (their statistics are taken)."""
        for arr in (self.name, self.parent, self.item, self.start, self.end):
            del arr[begin:]

    def layer_stats(self, begin, end, amounts_before, amounts_after):
        """Per-layer calls, self time and amounts of the spans in [begin, end)."""
        child = [0.0] * (end - begin)
        for i in range(begin, end):
            p = self.parent[i]
            if p >= begin:
                child[p - begin] += self.end[i] - self.start[i]
        calls, self_s = {}, {}
        for i in range(begin, end):
            layer = self.layers[self.name[i]]
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + (self.end[i] - self.start[i]) - child[i - begin]
        stats = {}
        for hook in HOOKS:
            for stat in hook.stats:
                if stat in CALL_STATS:
                    value = calls.get(hook.layer, 0)
                elif stat == "self_s":
                    value = self_s.get(hook.layer, 0.0)
                else:
                    value = amounts_after.get(hook.layer, 0) - amounts_before.get(hook.layer, 0)
                stats[f"{hook.layer}.{stat}"] = value
        return stats

    def write(self, path):
        """Spans as five native arrays after a span-count header; layer names
        go to a side file, one per line, in span name id order."""
        with open(path, "wb") as fh:
            array("q", [len(self.start)]).tofile(fh)
            for arr in (self.name, self.parent, self.item, self.start, self.end):
                arr.tofile(fh)
        with open(str(path) + ".layers", "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.layers) + "\n")
