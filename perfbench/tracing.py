"""Spans around the public functions of every fqincidence module.

``Tracer`` replaces each wrapped function by a recording wrapper in every
fqincidence module that holds it, so calls through ``from ... import``
copies (``harness.count_incidences``, ``cli.count_incidences``,
``apps.max_collinear``, ...) are recorded too.  A span is
(group, start, end, parent, job, info); spans stay in memory until the run
writes them out.  Self time is a span's duration minus that of its direct
children.  tracemalloc runs only inside the spans whose peak allocation is
reported, and only in a tracer made with peak=True: the run uses one for a
separate memory pass so that tracemalloc does not slow the timed spans.
"""

import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

# module -> {function: span group}
GROUPS = {
    "geom": {f: f"geom.{f}" for f in (
        "count_incidences", "max_collinear", "max_shared_collinear",
        "all_planes_through_one")},
    "setsys": {f: f"setsys.{f}" for f in (
        "neighborhood_system", "vc_dimension", "shatter_function")},
    "reductions": {f: f"reductions.{f}" for f in (
        "count_solutions", "build_point_plane_sets", "cs_upper")},
    "apps": {f: f"apps.{f}" for f in (
        "triple_count_T", "dot_product_set", "trace_pairs", "regular_subset",
        "sphere_line_scan", "bisector_collinear_k", "bisector_plane")},
    "bounds": {f: "bounds" for f in (
        "eval_vinh_line", "eval_cs_line", "eval_thm_line", "eval_plane_bounds",
        "eval_ks_distance", "eval_distance_dot_lower", "regime_report")},
    "harness": {
        "run_suite": "harness.run_suite", "preset": "harness.preset",
        "emit": "harness.emit", "random_config": "harness.sample",
        **{f: "harness.sample" for f in (
            "sample_field_subset", "sample_points2", "sample_points3",
            "sample_planes_one", "sample_lines")},
    },
    "fileio": {
        **{f"load_{k}": "fileio.load" for k in ("points", "lines", "planes", "setsystem")},
        **{f"save_{k}": "fileio.save" for k in ("points", "lines", "planes", "setsystem")},
    },
    "cli": {"main": "cli.main"},
}

PEAK_GROUPS = {"geom.count_incidences", "apps.regular_subset"}


def field_class(fs) -> str:
    if fs.n == 1:
        return "prime"
    return "small_ext" if fs.q <= 256 else "large_ext"


def _n(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _info_count(a):
    flats = a["flats"]
    kind = "lines" if flats and type(flats[0]).__name__ == "Line2" else "planes"
    return (kind, field_class(a["fs"]), _n(a["points"]) * _n(flats))


def _info_records(a):
    for key in ("points", "lines", "planes"):
        if key in a:
            return _n(a[key])
    return _n(a["system"].family) if "system" in a else 0


_INFO = {
    "count_incidences": _info_count,
    "neighborhood_system": lambda a: _n(a["points"]) * _n(a["planes"]),
    "triple_count_T": lambda a: _n(a["E"]) * _n(a["F"]),
    "dot_product_set": lambda a: _n(a["E"]) * _n(a["F"]),
    **{f"save_{k}": _info_records for k in ("points", "lines", "planes", "setsystem")},
}


def _load_records(result) -> int:
    return _n(result[1]) if isinstance(result, tuple) else _n(result.family)


class Tracer:
    """Context manager that patches the wrappers in and takes them out again."""

    def __init__(self, peak: bool = False):
        self.spans = []  # (group, t0, t1, parent, job, info)
        self.job = -1
        self.peak = peak
        self.peak_mb = dict.fromkeys(sorted(PEAK_GROUPS), 0.0)
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, group):
        spans, stack, peak_mb = self.spans, self._stack, self.peak_mb
        sig = inspect.signature(fn)
        info_of = _INFO.get(fn.__name__)
        is_load = fn.__name__.startswith("load_")
        peak = self.peak and group in PEAK_GROUPS

        def wrapper(*args, **kwargs):
            info = None
            if info_of is not None:
                bound = sig.bind(*args, **kwargs)
                if fn.__name__ == "count_incidences":
                    for key in ("points", "flats"):
                        bound.arguments[key] = list(bound.arguments[key])
                    args, kwargs = bound.args, bound.kwargs
                info = info_of(bound.arguments)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            own_trace = peak and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if own_trace:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    peak_mb[group] = max(peak_mb[group], mb)
                    tracemalloc.stop()
                stack.pop()
                spans[idx] = (group, t0, t1, parent, self.job, info)
            if is_load:
                spans[idx] = (group, t0, t1, parent, self.job, _load_records(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        mods = {name: sys.modules[f"fqincidence.{name}"] for name in GROUPS}
        originals = {}
        for mname, funcs in GROUPS.items():
            for fname, group in funcs.items():
                fn = getattr(mods[mname], fname)
                originals[id(fn)] = (fn, self._wrap(fn, group))
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "fqincidence":
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()
        return False


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer values from finished spans; times and counts are per pass."""
    child = defaultdict(float)
    for group, t0, t1, parent, _job, _info in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = defaultdict(float)
    calls = defaultdict(int)
    rate_work = defaultdict(float)
    rate_time = defaultdict(float)
    for i, (group, t0, t1, _parent, _job, info) in enumerate(spans):
        dur = t1 - t0
        self_s[group] += dur - child[i]
        calls[group] += 1
        if group == "geom.count_incidences":
            kind, cls, pairs = info
            rate_work[f"geom.count_{kind}.{cls}"] += pairs
            rate_time[f"geom.count_{kind}.{cls}"] += dur
        elif group in ("apps.triple_count_T", "apps.dot_product_set"):
            rate_work[group] += info
            rate_time[group] += dur
        elif group == "setsys.neighborhood_system":
            rate_work[group] += info
        elif group in ("fileio.load", "fileio.save"):
            rate_work["fileio"] += info
            rate_time["fileio"] += dur

    def rate(key):
        return rate_work[key] / rate_time[key] if rate_time[key] > 0 else 0.0

    out = {}
    for cls in ("prime", "small_ext", "large_ext"):
        out[f"geom.count_planes.pairs_per_s.{cls}"] = rate(f"geom.count_planes.{cls}")
        out[f"geom.count_lines.pairs_per_s.{cls}"] = rate(f"geom.count_lines.{cls}")
    out["geom.count_incidences.calls"] = calls["geom.count_incidences"] / passes
    out["setsys.neighborhood_system.pairs"] = rate_work["setsys.neighborhood_system"] / passes
    out["setsys.vc_dimension.calls"] = calls["setsys.vc_dimension"] / passes
    out["apps.triple_count_T.pairs_per_s"] = rate("apps.triple_count_T")
    out["apps.dot_product_set.pairs_per_s"] = rate("apps.dot_product_set")
    out["apps.bisector_plane.calls"] = calls["apps.bisector_plane"] / passes
    out["fileio.records_per_s"] = rate("fileio")
    for group in sorted({g for funcs in GROUPS.values() for g in funcs.values()}):
        if group != "apps.bisector_plane":
            out[f"{group}.self_s"] = self_s[group] / passes
    out["_self_total_s"] = sum(self_s.values()) / passes
    return out


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("group,start,end,parent,job\n")
        for group, t0, t1, parent, job, _info in spans:
            fh.write(f"{group},{t0:.9f},{t1:.9f},{parent},{job}\n")
