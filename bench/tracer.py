"""Outside-in tracer for pythrep, installed from the benchmark's own files.

``Tracer.install`` replaces every public function and method of the layer
modules by a wrapper that records a span (name, start, end, parent) while
the tracer is active.  Every alias of a wrapped function is rebound to the
same wrapper: names imported into other pythrep modules, re-exports in
``pythrep/__init__``, and class aliases such as ``__mul__ = multiply``,
``power = __pow__`` and ``__rmul__ = __mul__``.  ``check_word`` runs about
a thousand times per tree product, too often for a span: it only counts
its calls and the address characters it validates inside ``Tree.__init__``.

Spans live in compact arrays until the run ends.  A span's self time is its
duration minus the durations of its child spans, which nest strictly in a
single-threaded closed loop.  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import Counter

LAYERS = ("words", "forests", "thompson", "pythagorean", "limitspace", "rep", "cli")
# Public names of a module without __all__.
PUBLIC = {"cli": ("main",)}
# Special methods that are part of the API; other dunders (hash, eq, repr,
# setattr) are left alone.
DUNDERS = {"__init__", "__mul__", "__rmul__", "__pow__", "__invert__", "__add__", "__sub__", "__neg__"}
COUNT_ONLY = "words.check_word"


def _verdict_hook(tr, args, result, exc):
    if exc is None:
        tr.counts[f"pythagorean.verdict.{result.status}"] += 1


def _trim_hook(tr, args, result, exc):
    if exc is None:
        tr.counts["limitspace.trim.leaves_in"] += args[0].tree.n_leaves
        tr.counts["limitspace.trim.leaves_out"] += result.tree.n_leaves


def _act_hook(tr, args, result, exc):
    if exc is None:
        tr.counts["rep.act.leaves_out"] += result.tree.n_leaves


def _main_hook(tr, args, result, exc):
    if exc is not None or result != 0:
        tr.counts["cli.main.exit_nonzero"] += 1


HOOKS = {
    "pythagorean.diffuse_certificate": _verdict_hook,
    "limitspace.LimitVector.trim": _trim_hook,
    "rep.act": _act_hook,
    "cli.main": _main_hook,
}


class Tracer:
    """Spans and counters of one traced run; record only while ``active``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.words = [0, 0]  # check_word calls, characters it validated for a Tree
        self.active = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        if name == COUNT_ONLY:
            return self._count_only(fn)
        hook = HOOKS.get(name)
        nid = self._id(name)
        stack, span_name, start, end, parent = self.stack, self.span_name, self.start, self.end, self.parent
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            result = exc = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end[i] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, args, result, exc)

        return spanned

    def _count_only(self, fn):
        cell = self.words
        stack, span_name, tree_init = self.stack, self.span_name, self._id("forests.Tree.init")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                cell[0] += 1
                if stack and span_name[stack[-1]] == tree_init:
                    cell[1] += len(args[0])
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap the layer modules' public API and rebind every alias."""
        wrappers: dict = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pythrep.{layer}")
            for attr in PUBLIC.get(layer) or mod.__all__:
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for name, mod in list(sys.modules.items()):
            if name == "pythrep" or name.startswith("pythrep."):
                for attr, val in list(vars(mod).items()):
                    if isinstance(val, types.FunctionType) and val in wrappers:
                        setattr(mod, attr, wrappers[val])

    def _wrap_class(self, layer: str, cls: type) -> None:
        seen: dict = {}
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            kind = type(val) if isinstance(val, (classmethod, staticmethod)) else None
            fn = val.__func__ if kind else val
            if not isinstance(fn, types.FunctionType):
                continue  # properties and slots
            if fn not in seen:  # the first name defined is the span's name
                seen[fn] = self.wrap(f"{layer}.{cls.__name__}.{attr.strip('_')}", fn)
            setattr(cls, attr, kind(seen[fn]) if kind else seen[fn])

    # -- results --------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total self seconds; plus phase splits of
        diffuse_certificate and the raw counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        decide = self._ids.get("pythagorean.diffuse_certificate", -2)
        phase1 = {self._ids.get(k, -3) for k in ("pythagorean.word_operator", "pythagorean.spectral_radius")}
        onorm = self._ids.get("pythagorean.operator_norm", -4)
        for i in range(n):
            nid = self.span_name[i]
            name = self.names[nid]
            own = dur[i] - covered[i]
            calls[name] += 1
            self_ns[name] += own
            p = self.parent[i]
            if p >= 0 and self.span_name[p] == decide:
                if nid in phase1:
                    self_ns["pythagorean.phase1"] += own
                    if self.names[nid] == "pythagorean.word_operator":
                        calls["pythagorean.phase1"] += 1
                elif nid == onorm:
                    self_ns["pythagorean.phase2"] += own
        self_ns["pythagorean.phase2"] += self_ns["pythagorean.diffuse_certificate"]
        calls.update(self.counts)
        calls[COUNT_ONLY] += self.words[0]
        calls["forests.Tree.init.chars"] += self.words[1]
        return {"calls": calls, "self_s": {k: v / 1e9 for k, v in self_ns.items()}}

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def _calls(key):
    return lambda a: a["calls"][key]


def _self(key):
    return lambda a: a["self_s"].get(key, 0.0) / a["wall_s"]


def _self_prefix(prefix):
    return lambda a: sum(v for k, v in a["self_s"].items() if k.startswith(prefix)) / a["wall_s"]


def _ratio(num, den):
    return lambda a: a["calls"][num] / a["calls"][den] if a["calls"][den] else 0.0


MULTIPLY = "thompson.ThompsonElement.multiply"
TRIM = "limitspace.LimitVector.trim"

# name, unit, better, value from the aggregate.  A self time is reported as
# its share of the traced call time (self_frac), so a layer a workload never
# reaches reads 0 as a share, not as a constant time.  Counts are per pass.
PER_LAYER = [
    ("words.check_word.calls", "count", "lower", _calls("words.check_word")),
    ("words.check_word.per_multiply", "1", "lower", _ratio("words.check_word", MULTIPLY)),
    ("words.IntervalUnion.self_frac", "1", "lower", _self_prefix("words.IntervalUnion.")),
    ("words.CantorPoint.self_frac", "1", "lower", _self_prefix("words.CantorPoint.")),
    ("forests.Tree.init.calls", "count", "lower", _calls("forests.Tree.init")),
    ("forests.Tree.init.self_frac", "1", "lower", _self("forests.Tree.init")),
    ("forests.Tree.init.chars", "count", "lower", _calls("forests.Tree.init.chars")),
    ("forests.common_refinement.calls", "count", "lower", _calls("forests.common_refinement")),
    ("forests.common_refinement.self_frac", "1", "lower", _self("forests.common_refinement")),
    ("forests.Tree.composed.self_frac", "1", "lower", _self("forests.Tree.composed")),
    ("forests.Tree.subtree.self_frac", "1", "lower", _self("forests.Tree.subtree")),
    ("thompson.multiply.calls", "count", "lower", _calls(MULTIPLY)),
    ("thompson.multiply.self_frac", "1", "lower", _self(MULTIPLY)),
    ("thompson.ThompsonElement.init.self_frac", "1", "lower", _self("thompson.ThompsonElement.init")),
    ("thompson.generator.self_frac", "1", "lower", _self("thompson.generator")),
    ("thompson.pow.self_frac", "1", "lower", _self("thompson.ThompsonElement.pow")),
    ("thompson.parse_element.self_frac", "1", "lower", _self("thompson.parse_element")),
    ("pythagorean.leaf_decorations.calls", "count", "lower", _calls("pythagorean.leaf_decorations")),
    ("pythagorean.leaf_decorations.self_frac", "1", "lower", _self("pythagorean.leaf_decorations")),
    ("pythagorean.phase1.calls", "count", "lower", _calls("pythagorean.phase1")),
    ("pythagorean.phase1.self_frac", "1", "lower", _self("pythagorean.phase1")),
    ("pythagorean.phase2.self_frac", "1", "lower", _self("pythagorean.phase2")),
    ("pythagorean.operator_norm.calls", "count", "lower", _calls("pythagorean.operator_norm")),
    ("pythagorean.verdict.certified", "count", "higher", _calls("pythagorean.verdict.certified")),
    ("pythagorean.verdict.not_diffuse", "count", "higher", _calls("pythagorean.verdict.not_diffuse")),
    ("pythagorean.verdict.unknown", "count", "lower", _calls("pythagorean.verdict.unknown")),
    ("pythagorean.pair_from_json.self_frac", "1", "lower", _self("pythagorean.pair_from_json")),
    ("pythagorean.random_pair.self_frac", "1", "lower", _self("pythagorean.random_pair")),
    ("limitspace.grow.calls", "count", "lower", _calls("limitspace.LimitVector.grow")),
    ("limitspace.grow.self_frac", "1", "lower", _self("limitspace.LimitVector.grow")),
    ("limitspace.inner.self_frac", "1", "lower", _self("limitspace.LimitVector.inner")),
    ("limitspace.trim.calls", "count", "lower", _calls(TRIM)),
    ("limitspace.trim.self_frac", "1", "lower", _self(TRIM)),
    ("limitspace.trim.leaves_in", "count", "lower", _calls("limitspace.trim.leaves_in")),
    ("limitspace.trim.leaves_out", "count", "lower", _calls("limitspace.trim.leaves_out")),
    ("limitspace.trim.keep_ratio", "1", "lower", _ratio("limitspace.trim.leaves_out", "limitspace.trim.leaves_in")),
    ("limitspace.tau.self_frac", "1", "lower", _self("limitspace.tau")),
    ("limitspace.tau_star.self_frac", "1", "lower", _self("limitspace.tau_star")),
    ("limitspace.rho_union.self_frac", "1", "lower", _self("limitspace.rho_union")),
    ("rep.act.calls", "count", "lower", _calls("rep.act")),
    ("rep.act.self_frac", "1", "lower", _self("rep.act")),
    ("rep.act.leaves_out", "count", "lower", _calls("rep.act.leaves_out")),
    ("rep.ergodic_average.self_frac", "1", "lower", _self("rep.ergodic_average")),
    ("rep.coefficient_cyclic.calls", "count", "lower", _calls("rep.coefficient_cyclic")),
    ("rep.coefficient_cyclic.self_frac", "1", "lower", _self("rep.coefficient_cyclic")),
    ("rep.gram_average_norm.self_frac", "1", "lower", _self("rep.gram_average_norm")),
    ("rep.coefficient.self_frac", "1", "lower", _self("rep.coefficient")),
    ("rep.mixing_scan.self_frac", "1", "lower", _self("rep.mixing_scan")),
    ("rep.koopman_coefficient.self_frac", "1", "lower", _self("rep.koopman_coefficient")),
    ("rep.character_check.self_frac", "1", "lower", _self("rep.character_check")),
    ("cli.main.calls", "count", "lower", _calls("cli.main")),
    ("cli.main.self_frac", "1", "lower", _self("cli.main")),
    ("cli.main.exit_nonzero", "count", "lower", _calls("cli.main.exit_nonzero")),
]

# Computed by run.py from the untraced and traced halves of a traced run.
OVERHEAD = ("trace.overhead_frac", "1", "lower")


def per_layer(agg: dict, passes: int, wall_s: float) -> dict:
    """The per-layer metrics from the aggregate of ``passes`` traced passes
    whose calls took ``wall_s`` seconds in all."""
    agg = dict(agg, wall_s=wall_s)
    per_pass = {"calls": Counter({k: v / passes for k, v in agg["calls"].items()})}
    out = {}
    for name, unit, _, fn in PER_LAYER:
        out[name] = {"value": float(fn(agg if unit == "1" else per_pass)), "unit": unit}
    return out
