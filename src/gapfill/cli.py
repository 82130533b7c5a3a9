"""Experiment orchestration: `gapfill <task> --config cfg.json [--out DIR]`.

Tasks: gaps, chern, edge-fill, bands, affiliation, wideness, report.
gaps solves an unmasked torus on its Bloch fibers and every other window
on the banded route, with no cap on its dimension.  edge-fill certifies
the widest gap of the model torus (the spectrum that gaps reports) and
asks the strip of its params to fill it.  Exit code 0 on pass verdicts, 2
on scientific fail verdicts, 1 on configuration or tooling errors, among
them a field the task reads that the config lacks.  Every run
records its config hash and seed in manifest.json under its task name,
beside the entries of the other tasks run into the same directory, with
every convention that affects a sign or threshold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import bloch, coarse, edge, spectral
from ._output import svg_plot, write_csv, write_json
from .errors import ConfigInvalid, GapfillError, MissingArtifacts
from .model import (BallsShape, DiskShape, GraphShape, HalfPlaneShape,
                    MagneticLattice, assemble_restricted, build_gauge, make_mask,
                    mask_all, mask_from_sites)

TASKS = ("gaps", "chern", "edge-fill", "bands", "affiliation", "wideness", "report")
# bands.svg draws the bands that come within this many Landau-level spacings
# 8*pi*max(k, 1) of e_ref: a choice of the plot, not of the flow
BANDS_PLOT_SPACINGS = 0.525


def _requires(key: str, fields_of: dict) -> list:
    """if/then clauses: an object whose `key` is v must carry every field in fields_of[v]."""
    return [{"if": {"properties": {key: {"const": v}}, "required": [key]},
             "then": {"required": fields}} for v, fields in fields_of.items()]


_MASK_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["half_plane", "graph", "half_plane_with_balls",
                          "disk", "sites", "all"]},
        "level": {"type": "number"},
        "f_samples": {"type": "array", "items": {"type": "number"}},
        "radius": {"type": "number", "minimum": 0},
        "ball_height": {"type": "number"},
        "center": {"type": "array", "items": {"type": "number"},
                   "minItems": 2, "maxItems": 2},
        "sites": {"type": "array",
                  "items": {"type": "array", "items": {"type": "integer"},
                            "minItems": 2, "maxItems": 2}},
    },
    "required": ["kind"],
    "additionalProperties": False,
    "allOf": _requires("kind", {"half_plane": ["level"], "graph": ["f_samples"],
                                "half_plane_with_balls": ["level", "radius", "ball_height"],
                                "disk": ["center", "radius"], "sites": ["sites"]}),
}

_FILTER_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["polynomial", "smoothed_indicator", "gaussian"]},
        "power_coefficients": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "degree": {"type": "integer", "minimum": 0, "maximum": spectral.DEGREE_CAP_DEFAULT},
        **{x: {"type": "number"} for x in ("lo", "hi", "center")},
        **{x: {"type": "number", "exclusiveMinimum": 0} for x in ("smoothing", "sigma")},
    },
    "required": ["type"],
    "allOf": _requires("type", {"polynomial": ["power_coefficients"],
                                "smoothed_indicator": ["lo", "hi", "smoothing", "degree"],
                                "gaussian": ["center", "sigma", "degree"]}),
}

_PARAMS_SCHEMA = {
    "type": "object",
    "properties": {
        "export_bands": {"type": "boolean"},
        "grid": {"type": "array", "items": {"type": "integer", "minimum": 4},
                 "minItems": 2, "maxItems": 2},
        "interval": {"type": "array", "items": {"type": "number"},
                     "minItems": 2, "maxItems": 2},
        "width_cells": {"type": "integer", "minimum": 4},
        "length_cells": {"type": "integer", "minimum": 1},
        "n_samples": {"type": "integer", "minimum": 1},
        "delta": {"type": "number", "exclusiveMinimum": 0},
        "shape": _MASK_SCHEMA,
        "n_kappa": {"type": "integer", "minimum": 4},
        "e_ref": {"type": "number"},
        "filter": _FILTER_SCHEMA,
        "radii": {"type": "array", "items": {"type": "number", "minimum": 0},
                  "minItems": 1},
        "verify_bitwise": {"type": "boolean"},
        "r": {"type": "number", "exclusiveMinimum": 0},
        "y_diameter": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "model": {
            "type": "object",
            "properties": {
                "k": {"type": "integer", "minimum": 0},
                "q": {"type": "integer", "minimum": 1},
                "cells_x": {"type": "integer", "minimum": 1},
                "cells_y": {"type": "integer", "minimum": 1},
                "geometry": {"enum": ["torus", "strip", "masked"]},
                "gauge": {"enum": ["landau", "symmetric"]},
                "potential": {"type": "array", "items": {"type": "number"}},
                "mask_descriptor": _MASK_SCHEMA,
            },
            "required": ["k", "q", "cells_x", "cells_y", "geometry", "gauge"],
            "additionalProperties": False,
        },
        "task": {"enum": list(TASKS)},
        "params": _PARAMS_SCHEMA,
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
    },
    "required": ["model", "task"],
    "additionalProperties": False,
    # the strip tasks read the strip size from params
    "allOf": [{"if": {"properties": {"task": {"enum": ["edge-fill", "bands"]}}},
               "then": {"required": ["params"], "properties": {
                   "params": {"required": ["width_cells", "length_cells"]}}}}],
}

CONVENTIONS = {
    "orientation": bloch.ORIENTATION,
    "spectral_flow": edge.FLOW_CONVENTIONS,
    # the conformance model.plaquette_products is held to; no check reads it
    "plaquette_flux_tolerance": 1e-12,
    "fhs_integrality_tolerance": bloch.FHS_INTEGRALITY_TOL,
    "residual_factor": spectral.RESIDUAL_FACTOR,
    "degree_cap": spectral.DEGREE_CAP_DEFAULT,
    "gap_sample_inset_fraction": edge.GAP_SAMPLE_INSET,
    "overlap_singular_tolerance": bloch.OVERLAP_SINGULAR_TOL,
}


def load_config(path: str) -> dict:
    """Parse and schema-validate a config file; ConfigInvalid with diagnostics."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    import jsonschema
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        msgs = []
        for e in errors[:5]:
            loc = "/".join(str(p) for p in e.absolute_path) or "<root>"
            msgs.append(f"{loc}: {e.message}")
        raise ConfigInvalid("config rejected: " + "; ".join(msgs))
    m, params = cfg["model"], cfg.get("params", {})
    q, pot = m["q"], m.get("potential")
    if pot is not None and len(pot) != q ** 2:
        raise ConfigInvalid(f"model/potential: expected q^2 = {q**2} "
                            f"row-major samples, got {len(pot)}")
    n_x, n_y = q * m["cells_x"], q * m["cells_y"]
    for ix, iy in m.get("mask_descriptor", {}).get("sites", ()):
        if not (0 <= ix < n_x and 0 <= iy < n_y):
            raise ConfigInvalid(f"model/mask_descriptor/sites: site [{ix}, {iy}] lies "
                                f"outside the {n_x} x {n_y} site window")
    for loc, desc in (("model/mask_descriptor", m.get("mask_descriptor")),
                      ("params/shape", params.get("shape"))):
        if desc is not None and desc["kind"] == "graph" and len(desc["f_samples"]) != q:
            raise ConfigInvalid(f"{loc}/f_samples: a graph shape needs q = {q} samples "
                                f"(one cell), got {len(desc['f_samples'])}")
    interval = params.get("interval")
    if interval is not None and not interval[0] < interval[1]:
        raise ConfigInvalid(f"params/interval: need lower < upper, got {interval}")
    filt = params.get("filter", {})
    if filt.get("type") == "smoothed_indicator" and not filt["lo"] < filt["hi"]:
        raise ConfigInvalid(f"params/filter: need lo < hi, got [{filt['lo']}, {filt['hi']}]")
    return cfg


def _lattice(cfg: dict) -> MagneticLattice:
    m = cfg["model"]
    pot = m.get("potential")
    if pot is not None:
        pot = np.asarray(pot, float).reshape(m["q"], m["q"])
    return MagneticLattice(m["k"], m["q"], m["cells_x"], m["cells_y"],
                           m["geometry"], pot)


def _shape_from_descriptor(desc: dict, cells_x: int):
    """The shape a mask descriptor names; balls sit at x = 0, 1, ..., cells_x."""
    kind = desc["kind"]
    if kind == "half_plane":
        return HalfPlaneShape(desc["level"])
    if kind == "graph":
        return GraphShape(tuple(desc["f_samples"]))
    if kind == "half_plane_with_balls":
        centers = tuple((float(cx), desc["ball_height"])
                        for cx in range(cells_x + 1))
        return BallsShape(HalfPlaneShape(desc["level"]), desc["radius"], centers)
    if kind == "disk":
        return DiskShape(tuple(desc["center"]), desc["radius"])
    raise ConfigInvalid(f"mask kind {kind!r} is not a shape")


def _mask(cfg: dict, lattice: MagneticLattice):
    desc = cfg["model"].get("mask_descriptor")
    if desc is None or desc["kind"] == "all":
        return mask_all(lattice)
    if desc["kind"] == "sites":
        return mask_from_sites(lattice, [tuple(s) for s in desc["sites"]])
    return make_mask(lattice, _shape_from_descriptor(desc, lattice.cells_x))


def _unmasked_torus(cfg: dict, lattice: MagneticLattice) -> bool:
    return lattice.geometry == "torus" and cfg["model"].get("mask_descriptor") is None


def _write_manifest(out: str, cfg: dict, cfg_path: str) -> None:
    """Record this task's config hash and seed under "tasks" in manifest.json.

    Entries of the other tasks that wrote into the directory are kept, so a
    chain run into one directory keeps one entry per task; rerunning a task
    replaces its own entry.
    """
    with open(cfg_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    path = os.path.join(out, "manifest.json")
    tasks = {}
    if os.path.exists(path):
        with open(path) as fh:
            tasks = json.load(fh).get("tasks", {})
    tasks[cfg["task"]] = {"config_sha256": digest, "seed": cfg.get("seed", 0)}
    write_json(path, {
        "tool": "gapfill",
        "version": __version__,
        "tasks": tasks,
        "conventions": CONVENTIONS,
    })


def _spectrum_outputs(out: str, report):
    ev = report.eigenvalues
    starts = [a for a, _ in report.clusters]
    ids = np.searchsorted(starts, np.arange(len(ev)), side="right") - 1
    # the banded route computes no vectors, so it has no residuals to write
    res = [""] * len(ev) if report.residuals is None else report.residuals.tolist()
    rows = [(i, float(e), r, int(c)) for i, (e, r, c) in enumerate(zip(ev, res, ids))]
    write_csv(os.path.join(out, "spectrum.csv"),
              ["index", "eigenvalue", "residual", "cluster_id"], rows)
    write_json(os.path.join(out, "gaps.json"),
               {"gaps": [{"lower": g.lower, "upper": g.upper} for g in report.gaps],
                "min_width": spectral._default_gap_width(ev),
                "n_eigenvalues": int(len(report.eigenvalues)),
                "solver": report.solver})
    svg_plot(os.path.join(out, "spectrum.svg"),
             [{"x": list(range(len(report.eigenvalues))),
               "y": [float(v) for v in report.eigenvalues], "kind": "points"}],
             xlabel="index", ylabel="eigenvalue", title="spectrum")


def _task_gaps(cfg, out):
    """Spectrum and gaps: an unmasked torus on its Bloch fibers, any other window banded."""
    lattice = _lattice(cfg)
    gauge = build_gauge(lattice, cfg["model"]["gauge"])
    if _unmasked_torus(cfg, lattice):
        report = bloch.torus_spectrum(lattice, gauge)
    else:
        op = assemble_restricted(lattice, gauge, _mask(cfg, lattice))
        report = spectral.banded_spectrum(spectral.banded(op))
    _spectrum_outputs(out, report)
    return 0


def _task_chern(cfg, out):
    lattice = _lattice(cfg)
    gauge_kind = cfg["model"]["gauge"]
    p = cfg.get("params", {})
    n_s, n_t = p.get("grid", [16, 16])
    # default lower end: one below the Gershgorin bound -4*pi*k + min W of
    # every fiber, so the interval holds every band below its upper end
    lo, hi = p.get("interval", [-4.0 * np.pi * lattice.k + lattice.potential.min() - 1.0,
                                4.0 * np.pi * max(lattice.k, 1)])
    res = bloch.invariant_pair_result(lattice, gauge_kind,
                                      spectral.SpectralInterval(lo, hi),
                                      bloch.BlochGrid(n_s, n_t))
    write_json(os.path.join(out, "chern.json"),
               {"group": list(res.band_group), "dim": res.dim, "chern": res.chern,
                "max_flux": res.max_flux, "interval": [lo, hi],
                "grid": [n_s, n_t], "orientation": res.orientation,
                "solver": res.solver})
    if p.get("export_bands", False):
        energies = bloch.band_energies(lattice, gauge_kind, bloch.BlochGrid(n_s, n_t))
        rows = []
        for a in range(n_s):
            for b in range(n_t):
                for j, en in enumerate(energies[a, b]):
                    rows.append((a / n_s, b / n_t, j, float(en)))
        write_csv(os.path.join(out, "bands.csv"),
                  ["s", "t", "band_index", "energy"], rows)
    return 0


def _bulk_gap_for(cfg: dict, lattice: MagneticLattice):
    """The widest gap of the model torus, certified; None when no gap is wide enough."""
    report = bloch.torus_spectrum(lattice, build_gauge(lattice, cfg["model"]["gauge"]))
    gaps = [g for g in report.gaps if g.width >= 0.2 * 8 * np.pi * max(lattice.k, 1)]
    if not gaps:
        return None
    g = max(gaps, key=lambda g: g.width)
    inset = 0.02 * g.width
    return spectral.certify_interval(report, g.lower + inset, g.upper - inset)


def _strip_from_params(cfg: dict, lattice: MagneticLattice):
    """The strip of the params with the model torus's k, q and W; balls sit one per cell.

    Both strip tasks restrict the model torus, so a model that is not an
    unmasked torus is refused (ConfigInvalid).
    """
    if not _unmasked_torus(cfg, lattice):
        raise ConfigInvalid(f"{cfg['task']} restricts the model torus to a strip: the model "
                            "needs torus geometry and no mask_descriptor")
    p = cfg.get("params", {})
    shape = None
    if "shape" in p:
        shape = _shape_from_descriptor(p["shape"], p["length_cells"])
    return edge.make_strip(lattice.k, lattice.q, p["width_cells"], p["length_cells"],
                           shape, lattice.potential)


def _task_edge_fill(cfg, out):
    p = cfg.get("params", {})
    lattice = _lattice(cfg)
    strip = _strip_from_params(cfg, lattice)
    gap = _bulk_gap_for(cfg, lattice)
    if gap is None:
        write_json(os.path.join(out, "edge_report.json"),
                   {"verdict": "no_bulk_gap", "all_pass": False})
        return 2
    report = edge.gap_filling_check(strip, gap, p.get("n_samples", 16),
                                    p.get("delta", 0.5))
    write_json(os.path.join(out, "edge_report.json"), {
        "bulk_gap": {"lower": gap.lower, "upper": gap.upper, "margin": gap.margin},
        "samples": [[float(s), float(d)] for s, d in zip(report.samples, report.distances)],
        "delta": report.pass_threshold,
        "verdicts": [bool(v) for v in report.verdicts],
        "all_pass": report.all_pass,
        "max_distance": report.max_distance,
        "n_strip_eigenvalues": report.n_strip_eigenvalues,
        "solver": report.solver,
        "localization": [{"energy": lp.energy,
                          "mass_within_1_5": lp.mass_within(1.5),
                          "decay_rate": lp.decay_rate} for lp in report.localization],
        "conventions": report.conventions,
    })
    return 0 if report.all_pass else 2


def _task_bands(cfg, out):
    p = cfg.get("params", {})
    strip = _strip_from_params(cfg, _lattice(cfg))
    flow = edge.strip_bands(strip, p.get("n_kappa", 48), p.get("e_ref"))
    write_csv(os.path.join(out, "dispersion.csv"), ["kappa", "band", "energy"],
              [(float(kappa), b, float(en))
               for kappa, energies in zip(flow.kappas, flow.dispersion)
               for b, en in enumerate(energies)])
    write_json(os.path.join(out, "flow.json"), {
        "e_ref": flow.e_ref,
        "net_flow": flow.net_flow,
        "net_flow_upper": flow.net_flow_upper,
        "crossings": [{"kappa": c.kappa, "sign": c.sign, "edge": c.edge,
                       "mass_lower": c.mass_lower} for c in flow.crossings],
        "conventions": flow.conventions,
        "solver": flow.solver,
    })
    halfwidth = BANDS_PLOT_SPACINGS * 8.0 * np.pi * max(strip.lattice.k, 1)
    in_gap = np.abs(flow.dispersion - flow.e_ref) < halfwidth
    series = [{"x": [float(k) for k in flow.kappas],
               "y": [float(v) for v in flow.dispersion[:, b]], "kind": "line"}
              for b in range(flow.dispersion.shape[1])
              if in_gap[:, b].any()]
    svg_plot(os.path.join(out, "bands.svg"), series[:160], xlabel="kappa",
             ylabel="energy", title="strip dispersion")
    return 0


def _task_affiliation(cfg, out):
    p = cfg.get("params", {})
    lattice = _lattice(cfg)
    if lattice.geometry != "masked":
        raise ConfigInvalid("affiliation task needs masked geometry (open window)")
    gauge = build_gauge(lattice, cfg["model"]["gauge"])
    bulk = assemble_restricted(lattice, gauge, mask_all(lattice))
    mask = _mask(cfg, lattice)
    restricted = assemble_restricted(lattice, gauge, mask)
    a, b = bulk.gershgorin()
    encl = (a - 1.0, b + 1.0)
    f = p.get("filter", {"type": "polynomial", "power_coefficients": [0.0, 1.0]})
    if f["type"] == "polynomial":
        filt = spectral.polynomial_filter(f["power_coefficients"], encl)
    elif f["type"] == "smoothed_indicator":
        filt = spectral.smoothed_indicator_filter(f["lo"], f["hi"], f["smoothing"],
                                                  encl, f["degree"])
    else:  # gaussian, the one other type the config schema admits
        filt = spectral.gaussian_filter(f["center"], f["sigma"], encl, f["degree"])
    radii = p.get("radii", [0.5, 1.0, 2.0, 3.0])
    rep = coarse.affiliation_check(bulk, restricted, mask, filt, radii,
                                   verify_bitwise=p.get("verify_bitwise", True))
    write_json(os.path.join(out, "affiliation.json"), {
        "filter": {"description": rep.filter_description, "degree": rep.filter_degree},
        "radii": [float(r) for r in rep.radii],
        "deviations": [float(d) for d in rep.deviations],
        "exact_zero_radius": rep.exact_zero_radius,
        "far_counts": [int(c) for c in rep.far_counts],
    })
    write_csv(os.path.join(out, "affiliation.csv"), ["radius", "deviation"],
              list(zip([float(r) for r in rep.radii],
                       [float(d) for d in rep.deviations])))
    return 0


def _task_wideness(cfg, out):
    p = cfg.get("params", {})
    lattice = _lattice(cfg)
    desc_cfg = cfg["model"].get("mask_descriptor", {"kind": "all"})
    if desc_cfg["kind"] in ("sites", "all"):
        region = _mask(cfg, lattice)
    else:
        region = _shape_from_descriptor(desc_cfg, lattice.cells_x)
    cert = coarse.wideness_check(region, p.get("r", 1.0), lattice,
                                 y_diameter=p.get("y_diameter"), seed=cfg.get("seed", 0))
    write_json(os.path.join(out, "wideness.json"), {
        "verdict": cert.verdict,
        "witness": cert.witness,
        "entourage_radius": cert.entourage_radius,
        "spot_checks": [cert.spot_checks_passed, cert.spot_checks_total],
    })
    return 0 if cert.verdict != "counterexample_found" else 2


def _task_report(cfg, out):
    def read(name):
        path = os.path.join(out, name)
        if not os.path.exists(path):
            raise MissingArtifacts(f"missing {name}; run the producing task first")
        with open(path) as fh:
            return json.load(fh)

    gaps = read("gaps.json")
    chern = read("chern.json")
    edge_rep = read("edge_report.json")
    flow = read("flow.json")
    if "net_flow_upper" not in flow:
        raise MissingArtifacts("flow.json has no net_flow_upper; rerun the bands task")
    affiliation = None
    if os.path.exists(os.path.join(out, "affiliation.json")):
        affiliation = read("affiliation.json")

    obstruction = chern["chern"] != 0
    filled = bool(edge_rep.get("all_pass"))
    # under the declared conventions the lower edge carries -c1, the upper +c1
    flow_matches = flow["net_flow"] == -chern["chern"] == -flow["net_flow_upper"]
    # a constant filter (degree 0) is trivially affiliated, so its leg shows nothing
    affiliation_ok = True
    if affiliation is not None:
        deviations = affiliation["deviations"]
        affiliation_ok = (affiliation["filter"]["degree"] >= 1
                          and (not deviations or deviations[-1] <= 1e-6))

    if not obstruction:
        verdict = "no_obstruction"
        message = "no obstruction; gap filling not implied"
        status = 0
    elif filled and flow_matches and affiliation_ok:
        verdict = "PASS"
        message = (f"nonzero obstruction (c1={chern['chern']}), gap filled, "
                   "net_flow=-c1 on the lower edge and +c1 on the upper edge")
        status = 0
    else:
        verdict = "FAIL"
        message = (f"obstruction c1={chern['chern']} but gap_filled={filled}, "
                   f"flow_matches={flow_matches}, affiliation_ok={affiliation_ok}")
        if affiliation is not None:
            message += f" (affiliation filter degree {affiliation['filter']['degree']})"
        status = 2

    doc = {
        "verdict": verdict,
        "message": message,
        "bulk_gaps": gaps["gaps"],
        "invariant_pair": {"dim": chern["dim"], "chern": chern["chern"]},
        "gap_filled": filled,
        "max_sample_distance": edge_rep.get("max_distance"),
        "net_flow": flow["net_flow"],
        "net_flow_upper": flow["net_flow_upper"],
        "affiliation_final_deviation": (affiliation["deviations"][-1]
                                        if affiliation and affiliation["deviations"]
                                        else None),
        "conventions": CONVENTIONS,
    }
    write_json(os.path.join(out, "report.json"), doc)
    md = [f"# gapfill report: {verdict}", "", message, "",
          f"- invariant pair (dim, c1) = ({chern['dim']}, {chern['chern']})",
          f"- bulk gaps: {[(g['lower'], g['upper']) for g in gaps['gaps']]}",
          f"- gap filled: {filled} (max sample distance "
          f"{edge_rep.get('max_distance')})",
          f"- net spectral flow: lower edge {flow['net_flow']}, upper edge {flow['net_flow_upper']}"]
    if affiliation is not None:
        md.append(f"- affiliation final deviation: {doc['affiliation_final_deviation']}")
    from ._output import atomic_write
    atomic_write(os.path.join(out, "report.md"), "\n".join(md) + "\n")
    return status


_TASK_FNS = {
    "gaps": _task_gaps,
    "chern": _task_chern,
    "edge-fill": _task_edge_fill,
    "bands": _task_bands,
    "affiliation": _task_affiliation,
    "wideness": _task_wideness,
    "report": _task_report,
}


def run(task: str, config_path: str, out_dir: str | None = None,
        seed: int | None = None) -> int:
    """Execute one task; returns the exit status (0 pass, 2 fail verdict)."""
    cfg = load_config(config_path)
    if task != cfg["task"]:
        raise ConfigInvalid(f"config declares task {cfg['task']!r}, invoked {task!r}")
    if seed is not None:
        cfg["seed"] = seed
    out = out_dir or cfg.get("output_dir", "gapfill-out")
    os.makedirs(out, exist_ok=True)
    _write_manifest(out, cfg, config_path)
    return _TASK_FNS[task](cfg, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapfill",
        description="spectral gaps, Chern pairs and edge filling for magnetic "
                    "lattice Laplacians")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        status = run(args.task, args.config, args.out, args.seed)
    except GapfillError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
