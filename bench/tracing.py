"""Span recording around calls into gapfill's public functions.

The tracer replaces every binding of each public function of the layer
modules (including the names other modules took with `from ... import`)
by a wrapper that records one span per call: name, start, end, parent
span, thread, the CLI task that was running, and a few counts read from
the arguments or the result.  Spans stay in memory; the caller writes
them out when the run ends.  Nothing here touches gapfill's source.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time

LAYERS = ("model", "spectral", "bloch", "edge", "coarse", "cli", "_output")
OUTPUT_FUNCS = ("_output.write_json", "_output.write_csv", "_output.svg_plot")
MASK_FUNCS = ("model.make_mask", "model.mask_all", "model.mask_from_sites",
              "model.mask_from_member")
ASSEMBLE_FUNCS = ("model.assemble_bulk", "model.assemble_restricted")
LIFT_FUNCS = ("edge.strip_operator", "edge.lift_block_vector",
              "edge.localization_profile")


def _counted_apply(fn, counter: dict):
    def apply(x):
        counter["applies"] = counter.get("applies", 0) + 1
        return fn(x)
    return apply


def _counts(name: str, args, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name == "model.build_gauge":
        return {"links": int(result.phase_x.size + result.phase_y.size)}
    if name in ASSEMBLE_FUNCS:
        return {"rows": int(result.dimension)}
    if name in MASK_FUNCS:
        return {"sites": result.n_inside}
    if name == "spectral.eigensolve":
        return {"dim": int(args[0].dimension)}
    if name == "edge.strip_block":
        return {"dim": int(result.dimension)}
    if name == "edge.strip_bands":
        window = sum(len(w) for w in result.window_energies)
        # every block is diagonalized in full and again over the window
        return {"window_pairs": window,
                "computed": int(result.dispersion.size) + window}
    if name == "coarse.wideness_check":
        return {"spot_checks": int(result.spot_checks_total)}
    if name in OUTPUT_FUNCS:
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            extra = {}
            if name == "spectral.operator_norm":
                args = (_counted_apply(args[0], extra),) + args[1:]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra.update(_counts(name, args, result))
            tracer.spans.append({"id": sid, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "thread": threading.get_ident(),
                                 "task": tracer.task, "counts": extra})
            return result
        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of the layer modules, in every module."""
        modules = [getattr(package, m) for m in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules + [package]:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and id(fn) in wrappers:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics


def _dur(s) -> float:
    return s["end"] - s["start"]


def _outermost(spans, names) -> list:
    """Spans named in `names` with no ancestor also named in `names`."""
    by_id = {s["id"]: s for s in spans}
    names = set(names)
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p in by_id and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p not in by_id:
            out.append(s)
    return out


def _total(spans, names) -> float:
    return sum(_dur(s) for s in _outermost(spans, names))


def _self_time(spans, name) -> float:
    """Span time minus the time of its direct child spans (same thread)."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + _dur(s)
    return sum(_dur(s) - child.get(s["id"], 0.0) for s in spans if s["name"] == name)


def _within(spans, name, outer_name) -> list:
    """Spans of `name` lying inside the interval of some `outer_name` span.

    Gap filling solves its blocks on pool threads, so their spans have no
    parent there; containment in time attributes them instead.
    """
    outer = [(s["start"], s["end"]) for s in spans if s["name"] == outer_name]
    return [s for s in spans if s["name"] == name
            and any(a <= s["start"] and s["end"] <= b for a, b in outer)]


def _sum_count(spans, name, key) -> int:
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


PER_LAYER = (
    # name, unit
    ("cli.gaps_s", "s"), ("cli.chern_s", "s"), ("cli.edge-fill_s", "s"),
    ("cli.bands_s", "s"), ("cli.affiliation_s", "s"), ("cli.wideness_s", "s"),
    ("cli.report_s", "s"),
    ("cli.output_s", "s"), ("cli.output_bytes", "bytes"),
    ("cli.cpu_s", "s"), ("cli.cpu_per_wall", "ratio"),
    ("model.gauge_s", "s"), ("model.gauge_links", "count"),
    ("model.assemble_s", "s"), ("model.assemble_rows", "count"),
    ("model.mask_s", "s"), ("model.mask_sites", "count"),
    ("spectral.eigensolve_s", "s"), ("spectral.eigensolve_calls", "count"),
    ("spectral.eigensolve_dim_max", "rows"), ("spectral.eigensolve_n3", "1e9"),
    ("spectral.operator_norm_s", "s"), ("spectral.operator_norm_applies", "count"),
    ("bloch.fiber_build_s", "s"), ("bloch.fibers", "count"),
    ("bloch.invariant_pair_self_s", "s"),
    ("edge.block_build_s", "s"), ("edge.blocks", "count"),
    ("edge.block_dim_max", "rows"),
    ("edge.gap_fill_s", "s"), ("edge.lift_s", "s"),
    ("edge.vector_use_ratio", "ratio"),
    ("edge.bands_self_s", "s"), ("edge.bands_window_ratio", "ratio"),
    ("coarse.affiliation_s", "s"), ("coarse.affiliation_self_s", "s"),
    ("coarse.wideness_s", "s"), ("coarse.spot_checks", "count"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans, task_seconds: dict, cpu_s: float, wall_s: float,
                  untraced_wall_s: float) -> dict:
    """Every per-layer metric from one traced round; 0 where a layer idles."""
    eig = [s for s in spans if s["name"] == "spectral.eigensolve"]
    blocks = [s for s in spans if s["name"] == "edge.strip_block"]
    fill_solves = _within(spans, "spectral.eigensolve", "edge.gap_filling_check")
    fill_profiles = _within(spans, "edge.localization_profile",
                            "edge.gap_filling_check")
    computed = sum(s["counts"]["dim"] for s in fill_solves)
    bands_computed = _sum_count(spans, "edge.strip_bands", "computed")
    v = {f"cli.{t}_s": task_seconds.get(t, 0.0)
         for t in ("gaps", "chern", "edge-fill", "bands", "affiliation",
                   "wideness", "report")}
    v.update({
        "cli.output_s": _total(spans, OUTPUT_FUNCS),
        "cli.output_bytes": sum(s["counts"].get("bytes", 0)
                                for s in _outermost(spans, OUTPUT_FUNCS)),
        "cli.cpu_s": cpu_s,
        "cli.cpu_per_wall": cpu_s / wall_s,
        "model.gauge_s": _total(spans, ["model.build_gauge"]),
        "model.gauge_links": _sum_count(spans, "model.build_gauge", "links"),
        "model.assemble_s": _total(spans, ASSEMBLE_FUNCS),
        "model.assemble_rows": sum(_sum_count(spans, n, "rows") for n in ASSEMBLE_FUNCS),
        "model.mask_s": _total(spans, MASK_FUNCS),
        "model.mask_sites": sum(s["counts"]["sites"]
                                for s in _outermost(spans, MASK_FUNCS)),
        "spectral.eigensolve_s": _total(spans, ["spectral.eigensolve"]),
        "spectral.eigensolve_calls": len(eig),
        "spectral.eigensolve_dim_max": max((s["counts"]["dim"] for s in eig), default=0),
        "spectral.eigensolve_n3": sum(s["counts"]["dim"] ** 3 for s in eig) / 1e9,
        "spectral.operator_norm_s": _total(spans, ["spectral.operator_norm"]),
        "spectral.operator_norm_applies": _sum_count(spans, "spectral.operator_norm",
                                                     "applies"),
        "bloch.fiber_build_s": _total(spans, ["bloch.fiber_hamiltonian"]),
        "bloch.fibers": sum(1 for s in spans if s["name"] == "bloch.fiber_hamiltonian"),
        "bloch.invariant_pair_self_s": _self_time(spans, "bloch.invariant_pair_result"),
        "edge.block_build_s": _total(spans, ["edge.strip_block"]),
        "edge.blocks": len(blocks),
        "edge.block_dim_max": max((s["counts"]["dim"] for s in blocks), default=0),
        "edge.gap_fill_s": _total(spans, ["edge.gap_filling_check"]),
        "edge.lift_s": _total(spans, LIFT_FUNCS),
        "edge.vector_use_ratio": len(fill_profiles) / computed if computed else 0.0,
        "edge.bands_self_s": _self_time(spans, "edge.strip_bands"),
        "edge.bands_window_ratio": (_sum_count(spans, "edge.strip_bands", "window_pairs")
                                    / bands_computed if bands_computed else 0.0),
        "coarse.affiliation_s": _total(spans, ["coarse.affiliation_check"]),
        "coarse.affiliation_self_s": _self_time(spans, "coarse.affiliation_check"),
        "coarse.wideness_s": _total(spans, ["coarse.wideness_check"]),
        "coarse.spot_checks": _sum_count(spans, "coarse.wideness_check", "spot_checks"),
        "trace.overhead_s": wall_s - untraced_wall_s,
    })
    return v
