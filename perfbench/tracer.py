"""Outside-in tracer for the ktsurf layers.

The tracer wraps the public functions of each layer module from outside the
program: every module-level public function is replaced, in its defining
module and in every other ``ktsurf`` module that imported it by name, by a
wrapper that counts calls and measures total and self time.  Three
``Diagram`` methods are wrapped on the class.  ``uninstall`` puts every
original back, so the program source is never touched.

Calls that cross from one layer into another record a span (name, start,
end, parent span, op id).  Spans stay in memory until ``write_spans``.
Functions of the two leaf layers (``diagram`` and ``curves``) are called tens
of millions of times, so they keep only counts and times, never spans.

Self time is a call's duration minus the durations of the wrapped calls it
made.  The time spent in the tracer's own hooks is charged to no function.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import types

LAYERS = ("diagram", "curves", "pants", "tangles", "trisection", "invariants",
          "lemmas", "cli")
LEAF_LAYERS = ("diagram", "curves")
# metric prefix -> method of diagram.Diagram
DIAGRAM_METHODS = {"diagram.construct": "__init__",
                   "diagram.half_twist": "half_twist",
                   "diagram.intersect_round": "intersect_round"}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
            yield name, obj


class _Args:
    """Reads a call's argument by parameter name, defaults included."""

    def __init__(self, fn):
        params = inspect.signature(fn).parameters
        self.index = {name: k for k, name in enumerate(params)}
        self.default = {name: p.default for name, p in params.items()}

    def get(self, args, kwargs, name):
        k = self.index[name]
        if k < len(args):
            return args[k]
        return kwargs.get(name, self.default[name])


class Tracer:
    """Counts, times and spans for every wrapped ktsurf function."""

    def __init__(self):
        self.op = None            # id of the op in flight; set by the caller
        self.funcs: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.extra: dict[str, float] = {}  # derived-metric numerators
        self.spans: list = []
        self._stack: list = []    # per live call: [child_s, layer, span id]
        self._patches: list = []  # (owner, attribute, original)
        self._orig: dict = {}     # metric prefix -> original function
        self._seen_pools: dict = {}
        self._pairs: set = set()

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"ktsurf.{layer}")
                   for layer in LAYERS}
        everywhere = [importlib.import_module("ktsurf"), *modules.values()]
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                prefix = f"{layer}.{name}"
                self._orig[prefix] = fn
                wrapper = self._wrap(prefix, layer, fn)
                for owner in everywhere:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
        diagram_cls = modules["diagram"].Diagram
        for prefix, attr in DIAGRAM_METHODS.items():
            fn = vars(diagram_cls)[attr]
            self._orig[prefix] = fn
            self._patch(diagram_cls, attr, self._wrap(prefix, "diagram", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, prefix: str, layer: str, fn):
        stat = self.funcs.setdefault(prefix, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        hook = _HOOKS.get(prefix)
        pre = hook(self, _Args(fn)) if hook else None
        leaf = layer in LEAF_LAYERS

        def wrapper(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else None
            span = None
            if not leaf and (parent is None or parent[1] != layer):
                span = len(spans)
                spans.append(None)
            frame = [0.0, layer, span if span is not None
                     else (parent[2] if parent else None)]
            post = pre(args, kwargs) if pre else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if span is not None:
                    spans[span] = (prefix, start, end,
                                   parent[2] if parent else None, self.op)
            if post:
                post(result)
            if parent is not None:
                # The whole wrapper, hooks included, is the parent's child
                # time, so tracer work is charged to no function.
                parent[0] += clock() - entered
            return result

        return wrapper

    def _count(self, key: str, amount: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    # -- results --------------------------------------------------------------

    def stats(self) -> dict:
        """Raw counts, mergeable across processes by summing."""
        extra = dict(self.extra)
        extra["curves.geometric_intersection.distinct"] = len(self._pairs)
        return {"funcs": {k: list(v) for k, v in self.funcs.items()},
                "extra": extra}

    def write_spans(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for k, span in enumerate(self.spans):
                if span is not None:
                    fh.write(json.dumps({"id": k, **dict(zip(keys, span))})
                             + "\n")


# -- hooks for derived metrics ------------------------------------------------
#
# A hook is called once per wrapped function at install time with the tracer
# and an argument reader.  It returns a `pre(args, kwargs)` callable, run
# before each call, which returns a `post(result)` callable or None.


def _hook_neighbor_candidates(tr: Tracer, a: _Args):
    def pre(args, kwargs):
        def post(result):
            pool = a.get(args, kwargs, "pool")
            if pool is None:
                p = a.get(args, kwargs, "p")
                budget = a.get(args, kwargs, "twist_budget")
                pool = tr._orig["pants.curve_pool"](p.sphere, budget)
            tr._count("pants.neighbor_candidates.scanned",
                      len(pool) + len(a.get(args, kwargs, "extra")))
            tr._count("pants.neighbor_candidates.returned", len(result))
        return post
    return pre


def _hook_curve_pool(tr: Tracer, a: _Args):
    def pre(args, kwargs):
        start = time.perf_counter()

        def post(result):
            if id(result) not in tr._seen_pools:
                tr._seen_pools[id(result)] = result
                tr._count("pants.curve_pool.curves", len(result))
                tr._count("pants.curve_pool.build_s",
                          time.perf_counter() - start)
        return post
    return pre


def _hook_geometric_intersection(tr: Tracer, a: _Args):
    pairs = tr._pairs

    def pre(args, kwargs):
        h1 = hash(a.get(args, kwargs, "c1"))
        h2 = hash(a.get(args, kwargs, "c2"))
        pairs.add(hash((h1, h2) if h1 < h2 else (h2, h1)))
        return None
    return pre


def _hook_efficient_defining_pairs(tr: Tracer, a: _Args):
    pair_calls = tr.funcs.setdefault("tangles.pair_distance", [0, 0.0, 0.0])

    def pre(args, kwargs):
        before = pair_calls[0]

        def post(result):
            u = a.get(args, kwargs, "u")
            budget = a.get(args, kwargs, "twist_budget")
            pool = a.get(args, kwargs, "pool")
            enumerate_efficient = tr._orig["tangles.enumerate_efficient"]
            ups = enumerate_efficient(u.upper, budget, pool)
            downs = enumerate_efficient(u.lower, budget, pool)
            tr._count("tangles.efficient_defining_pairs.pairs_scored",
                      len(ups) * len(downs))
            tr._count("tangles.efficient_defining_pairs.returned", len(result))
            tr._count("tangles.efficient_defining_pairs.distance_calls",
                      pair_calls[0] - before)
        return post
    return pre


def _hook_pair_distance(tr: Tracer, a: _Args):
    searches = tr.funcs.setdefault("pants.distance_upper", [0, 0.0, 0.0])

    def pre(args, kwargs):
        before = searches[0]

        def post(result):
            if searches[0] - before >= 2:
                tr._count("tangles.pair_distance.fallbacks")
        return post
    return pre


def _hook_distance_upper(tr: Tracer, a: _Args):
    def pre(args, kwargs):
        def post(result):
            tr._count("pants.distance_upper.nodes_expanded",
                      result.nodes_expanded)
            if result.value is None:
                tr._count("pants.distance_upper.exhausted")
        return post
    return pre


def route_of(cert) -> str:
    """Route a certificate took, read from the certificate and its notes."""
    notes = [cert.pants.note, cert.dual.note, *cert.notes]
    if any("by definition" in n for n in notes):
        return "by_definition"
    if any("search skipped" in n for n in notes):
        return "skipped"
    meta = cert.spine.meta
    if (meta is not None and meta.op == "+"
            and not any("composition failed" in n for n in notes)):
        return "composed"
    return "searched"


def _hook_kt_bounds(tr: Tracer, a: _Args):
    def pre(args, kwargs):
        def post(result):
            tr._count(f"invariants.route.{route_of(result)}")
        return post
    return pre


def _hook_verify_lemma(tr: Tracer, a: _Args):
    def pre(args, kwargs):
        def post(result):
            tr._count("lemmas.verify_lemma.instances", len(result))
        return post
    return pre


_HOOKS = {
    "pants.neighbor_candidates": _hook_neighbor_candidates,
    "pants.curve_pool": _hook_curve_pool,
    "curves.geometric_intersection": _hook_geometric_intersection,
    "tangles.efficient_defining_pairs": _hook_efficient_defining_pairs,
    "tangles.pair_distance": _hook_pair_distance,
    "pants.distance_upper": _hook_distance_upper,
    "invariants.kt_bounds": _hook_kt_bounds,
    "lemmas.verify_lemma": _hook_verify_lemma,
}


# -- per-layer metrics --------------------------------------------------------

def merge_stats(parts) -> dict:
    """Sum raw stats from several traced processes."""
    out = {"funcs": {}, "extra": {}}
    for part in parts:
        for name, values in part["funcs"].items():
            acc = out["funcs"].setdefault(name, [0, 0.0, 0.0])
            for k, v in enumerate(values):
                acc[k] += v
        for key, value in part["extra"].items():
            out["extra"][key] = out["extra"].get(key, 0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict) -> dict[str, float]:
    """Every per-layer metric the benchmark defines, from raw stats."""
    funcs, extra = stats["funcs"], stats["extra"]
    out: dict[str, float] = {}
    for name, (calls, _total, self_s) in sorted(funcs.items()):
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for route in ("composed", "searched", "skipped", "by_definition"):
        key = f"invariants.route.{route}"
        out[key] = extra.get(key, 0)
    for key in ("pants.curve_pool.curves", "pants.curve_pool.build_s",
                "pants.distance_upper.nodes_expanded",
                "pants.distance_upper.exhausted",
                "tangles.efficient_defining_pairs.pairs_scored",
                "lemmas.verify_lemma.instances"):
        out[key] = extra.get(key, 0)
    out["pants.neighbor_candidates.yield_ratio"] = _ratio(
        extra.get("pants.neighbor_candidates.returned", 0),
        extra.get("pants.neighbor_candidates.scanned", 0))
    out["tangles.efficient_defining_pairs.yield_ratio"] = _ratio(
        extra.get("tangles.efficient_defining_pairs.returned", 0),
        extra.get("tangles.efficient_defining_pairs.distance_calls", 0))
    out["tangles.pair_distance.fallback_share"] = _ratio(
        extra.get("tangles.pair_distance.fallbacks", 0),
        funcs.get("tangles.pair_distance", [0])[0])
    out["curves.geometric_intersection.distinct_ratio"] = _ratio(
        extra.get("curves.geometric_intersection.distinct", 0),
        funcs.get("curves.geometric_intersection", [0])[0])
    return out
