"""Spans around calls into geoblock's layers, recorded from the benchmark.

The worker wraps the public functions below in every ``geoblock`` module
namespace that bound them (``blocker`` imports ``connecting_family``,
``harness`` imports ``blocking_threshold`` and so on), so inner calls cannot
escape the wrapper.  Spans stay in memory and are written out once, at the
end of the pass.  ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter


def _key(*parts) -> str:
    return "|".join(str(p) for p in parts)


def _geometry(space) -> str:
    return _key(space.kind, space.b1, space.b2)


def _family(args, res) -> dict:
    return {"segments": res.n, "key": _key(_geometry(args["space"]), args["x"], args["y"], res.t_sq)}


def _threshold(args, res) -> dict:
    space, x, y = args["space"], args["x"], args["y"]
    if space.is_torus:
        # s_t(x, y) = s_t(0, y - x) on a torus: key by translation class
        diff = space.reduce_point(type(x)(y.x - x.x, y.y - x.y))
        key = _key(_geometry(space), diff, res.instance.family.t_sq)
    else:
        key = _key(_geometry(space), x, y, res.instance.family.t_sq)
    return {"key": key}


# (module, function, layer name, counters from the bound arguments and result)
TARGETS = [
    ("geoblock.flatspace", "connecting_family", "flatspace.family", _family),
    ("geoblock.flatspace", "intersection_candidates", "flatspace.intersections",
     lambda a, r: {"hits": len(r)}),
    ("geoblock.blocker", "build_instance", "blocker.build_instance",
     lambda a, r: {"candidates": r.num_candidates}),
    ("geoblock.blocker", "solve_exact", "blocker.solve",
     lambda a, r: {"root_gap": r.size - r.lower_bound, "uncertified": int(not r.optimal)}),
    ("geoblock.blocker", "blocking_threshold", "blocker.threshold", _threshold),
    ("geoblock.blocker", "blocking_cost_sampled", "blocker.sampled_cost",
     lambda a, r: {"pairs": len(r.pairs)}),
    ("geoblock.blocker", "recursion_harness", "blocker.recursion",
     lambda a, r: {"level_pairs": sum(len(lv.pairs) for lv in r.levels)}),
    ("geoblock.hyperbolic", "orbit_count", "hyperbolic.orbit",
     lambda a, r: {"points": len(r.ball.displacements)}),
    ("geoblock.hyperbolic", "blocking_lower_bound_series", "hyperbolic.bounds", None),
    ("geoblock.growth", "rate_estimate", "growth.fit", None),
]
ROOT = "harness"


class Tracer:
    """In-memory span recorder; one span is [name, start, end, parent, op, counters]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, counters=None):
        sig = inspect.signature(fn) if counters else None

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None])
            self._stack.append(idx)
            start = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][5] = counters(bound.arguments, res)
            return res

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded geoblock module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "geoblock" or n.startswith("geoblock.")]
        for mod_name, fn_name, layer, counters in TARGETS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.wrap(layer, original, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


COUNTERS = {
    "flatspace.family": ("segments",),
    "flatspace.intersections": ("hits",),
    "blocker.build_instance": ("candidates",),
    "blocker.solve": ("root_gap", "uncertified"),
    "blocker.sampled_cost": ("pairs",),
    "blocker.recursion": ("level_pairs",),
    "hyperbolic.orbit": ("points",),
}
RATIOS = {"flatspace.family": "distinct_ratio", "blocker.threshold": "class_ratio"}
CALLS = [t[2] for t in TARGETS if t[2] != "hyperbolic.bounds"]


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer (times, counts) from one traced pass.

    Self time is a span's duration minus the durations of its direct
    children.  Counts (calls, work counters, distinct-key ratios) must repeat
    exactly from run to run; times need not.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _c in spans:
        if parent >= 0:
            child[parent] += end - start
    times: dict[str, float] = {f"{t[2]}.self_s": 0.0 for t in TARGETS}
    times[f"{ROOT}.self_s"] = 0.0
    counts: dict[str, float] = {f"{name}.calls": 0 for name in CALLS}
    for name, keys in COUNTERS.items():
        counts.update({f"{name}.{k}": 0 for k in keys})
    distinct: dict[str, set] = {name: set() for name in RATIOS}
    for i, (name, start, end, _parent, _op, c) in enumerate(spans):
        times[f"{name}.self_s"] += (end - start) - child[i]
        if f"{name}.calls" in counts:
            counts[f"{name}.calls"] += 1
        if c is None:  # the call raised
            continue
        for k in COUNTERS.get(name, ()):
            counts[f"{name}.{k}"] += c[k]
        if name in distinct:
            distinct[name].add(c["key"])
    for name, metric in RATIOS.items():
        calls = counts[f"{name}.calls"]
        counts[f"{name}.{metric}"] = len(distinct[name]) / calls if calls else 0.0
    return times, counts
