"""Per-layer tracing from outside the program.

Every listed public function is replaced, at every module binding inside
the `gentle` package (``cohomology`` imports ``rank`` by name, ``nogaps``
imports ``string_complex`` by name, and so on), by a wrapper that records
a span: function, parent span, start and end.  Spans stay in memory and are
reduced to per-layer metrics when the run ends.  A layer's self time is
its span's duration minus the time its child spans cover.

Counters that need an argument or a result (matrix cells, walks found,
presentations seen) are read inside a ``trace.inspect`` child span, so
their cost is tracing overhead and never lands in a layer's self time.
"""
import sys
from array import array
from time import perf_counter

from gentle import cli, cohomology, complexes, core, exact, nogaps, walks

LAYERS = (
    (core, "parse_presentation"), (core, "validate_gentle"), (core, "path_basis"),
    (walks, "enumerate_gst"), (walks, "enumerate_gba"), (walks, "classify_walk"),
    (complexes, "string_complex"), (complexes, "band_complex"),
    (complexes, "differential_matrix"),
    (exact, "rank"),
    (cohomology, "cohomology_dims"), (cohomology, "node_contributions"),
    (cohomology, "beta_cohomology"),
    (nogaps, "witness_family"), (nogaps, "reduce_witness"), (nogaps, "hl_spectrum"),
    (cli, "main"),
)
LAYER_NAMES = tuple(f"{m.__name__.removeprefix('gentle.')}.{f}" for m, f in LAYERS)
INSPECT = "trace.inspect"

COUNTERS = (
    ("exact.rank.cells", "count", "lower"),
    ("exact.rank.fraction_calls", "count", "lower"),
    ("core.path_basis.per_presentation", "ratio", "lower"),
    ("walks.classify_walk.useful_ratio", "ratio", "higher"),
    ("cohomology.rank_share", "ratio", "lower"),
    ("nogaps.ranks_per_reduction", "ratio", "lower"),
    ("nogaps.reduce_witness.failed", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
)


def metric_specs():
    """(name, unit, better) of every metric a traced run reports."""
    specs = []
    for layer in LAYER_NAMES:
        specs += [(f"{layer}.calls", "count", "lower"),
                  (f"{layer}.self_s", "s", "lower"),
                  (f"{layer}.total_s", "s", "lower")]
    return specs + list(COUNTERS)


def _bindings(fn):
    """Every (module, attribute) in the gentle package bound to fn."""
    return [(mod, attr) for name, mod in list(sys.modules.items())
            if name == "gentle" or name.startswith("gentle.")
            for attr, value in vars(mod).items() if value is fn]


class Tracer:
    """Span recorder; `install` wraps the layers, `uninstall` restores them."""

    def __init__(self):
        self.names = list(LAYER_NAMES) + [INSPECT]
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.cells = 0
        self.fraction_calls = 0
        self.walks_found = 0
        self.reduce_failed = 0
        self.presentations = {}
        self.pass_presentations = 0
        self.saved = []

    def _open(self, name_id):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def _inspect(self, hook, value):
        idx = self._open(self.name_ids[INSPECT])
        try:
            hook(value)
        finally:
            self._close(idx)

    # hooks: read arguments or results for the count metrics
    def _rank_args(self, args):
        rows = args[0]
        self.cells += len(rows) * (len(rows[0]) if rows else 0)
        if any(x.denominator != 1 for row in rows for x in row):
            self.fraction_calls += 1

    def _presentation_arg(self, args):
        self.presentations.setdefault(id(args[0]), args[0])

    def _walks_result(self, result):
        self.walks_found += len(result.walks)

    def _wrap(self, name, fn):
        name_id = self.name_ids[name]
        before = {"exact.rank": self._rank_args,
                  "core.path_basis": self._presentation_arg}.get(name)
        after = (self._walks_result
                 if name in ("walks.enumerate_gst", "walks.enumerate_gba") else None)
        counts_failures = name == "nogaps.reduce_witness"

        def traced(*args, **kwargs):
            if before is not None:
                self._inspect(before, args)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if counts_failures:
                    self.reduce_failed += 1
                raise
            finally:
                self._close(idx)
            if after is not None:
                self._inspect(after, result)
            return result

        return traced

    def install(self):
        for (mod, attr), name in zip(LAYERS, LAYER_NAMES):
            fn = getattr(mod, attr)
            wrapper = self._wrap(name, fn)
            for owner, binding in _bindings(fn):
                self.saved.append((owner, binding, fn))
                setattr(owner, binding, wrapper)

    def uninstall(self):
        for owner, binding, fn in reversed(self.saved):
            setattr(owner, binding, fn)
        self.saved.clear()

    def end_pass(self):
        """Count the presentations path_basis saw in the pass just run."""
        self.pass_presentations += len(self.presentations)
        self.presentations.clear()

    def metrics(self, passes, traced_wall_s, untraced_wall_s):
        """Per-pass layer metrics, from the recorded spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        rank_id = self.name_ids["cohomology.cohomology_dims"]
        reduce_id = self.name_ids["nogaps.reduce_witness"]
        ranks_in_reductions = 0
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            ancestors = set()
            p = self.span_parent[i]
            while p >= 0:
                ancestors.add(self.span_name[p])
                p = self.span_parent[p]
            if k not in ancestors:
                total_s[k] += dur[i]
            if k == rank_id and reduce_id in ancestors:
                ranks_in_reductions += 1
        out = {}
        for k, layer in enumerate(LAYER_NAMES):
            out[f"{layer}.calls"] = calls[k] / passes
            out[f"{layer}.self_s"] = self_s[k] / passes
            out[f"{layer}.total_s"] = total_s[k] / passes

        def ratio(a, b):
            return a / b if b else 0.0

        get = lambda layer: calls[self.name_ids[layer]]
        dims_calls = get("cohomology.cohomology_dims")
        out.update({
            "exact.rank.cells": self.cells / passes,
            "exact.rank.fraction_calls": self.fraction_calls / passes,
            "core.path_basis.per_presentation":
                ratio(get("core.path_basis"), self.pass_presentations),
            "walks.classify_walk.useful_ratio":
                ratio(self.walks_found, get("walks.classify_walk")),
            "cohomology.rank_share":
                ratio(dims_calls, dims_calls + get("cohomology.node_contributions")),
            "nogaps.ranks_per_reduction":
                ratio(ranks_in_reductions, get("nogaps.reduce_witness")),
            "nogaps.reduce_witness.failed": self.reduce_failed / passes,
            "trace.wall_s": traced_wall_s,
            "trace.untraced_wall_s": untraced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
            "trace.self_sum_s": sum(self_s[:len(LAYER_NAMES)]) / passes,
        })
        return out
