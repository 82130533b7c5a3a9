"""Experiment orchestration: `gapfill <task> --config cfg.json [--out DIR]`.

Tasks: bulk-spectrum, gaps, chern, edge-fill, bands, affiliation, wideness,
report.  Exit code 0 on pass verdicts, 2 on scientific fail verdicts, 1 on
configuration or tooling errors.  Every run writes manifest.json recording
the config hash and every convention that affects a sign or threshold.
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
                    MagneticLattice, assemble_bulk, assemble_restricted,
                    build_gauge, make_mask, mask_all, mask_from_sites)

TASKS = ("bulk-spectrum", "gaps", "chern", "edge-fill", "bands",
         "affiliation", "wideness", "report")

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
}

_PARAMS_SCHEMA = {
    "type": "object",
    "properties": {
        "cluster_tol": {"type": "number", "exclusiveMinimum": 0},
        "min_gap_width": {"type": "number", "exclusiveMinimum": 0},
        "export_operator": {"type": "boolean"},
        "export_bands": {"type": "boolean"},
        "grid": {"type": "array", "items": {"type": "integer", "minimum": 4},
                 "minItems": 2, "maxItems": 2},
        "interval": {"type": "array", "items": {"type": "number"},
                     "minItems": 2, "maxItems": 2},
        "width_cells": {"type": "integer", "minimum": 4},
        "length_cells": {"type": "integer", "minimum": 1},
        "n_samples": {"type": "integer", "minimum": 1},
        "delta": {"type": "number", "exclusiveMinimum": 0},
        "bulk_cells": {"type": "integer", "minimum": 2},
        "shape": _MASK_SCHEMA,
        "n_kappa": {"type": "integer", "minimum": 4},
        "e_ref": {"type": "number"},
        "designated_edge": {"enum": ["lower", "upper"]},
        "filter": {"type": "object"},
        "radii": {"type": "array", "items": {"type": "number", "minimum": 0}},
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
}

CONVENTIONS = {
    "orientation": bloch.ORIENTATION,
    "spectral_flow": edge.FLOW_CONVENTIONS,
    "plaquette_flux_tolerance": 1e-12,
    "fhs_integrality_tolerance": 1e-6,
    "residual_factor": spectral.RESIDUAL_FACTOR,
    "degree_cap": spectral.DEGREE_CAP_DEFAULT,
    "gap_sample_inset_fraction": 0.05,
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
    q = cfg["model"]["q"]
    pot = cfg["model"].get("potential")
    if pot is not None and len(pot) != q ** 2:
        raise ConfigInvalid(f"model/potential: expected q^2 = {q**2} "
                            f"row-major samples, got {len(pot)}")
    for loc, desc in (("model/mask_descriptor", cfg["model"].get("mask_descriptor")),
                      ("params/shape", cfg.get("params", {}).get("shape"))):
        if desc is not None and desc["kind"] == "graph" \
                and len(desc.get("f_samples", ())) != q:
            raise ConfigInvalid(f"{loc}/f_samples: a graph shape needs q = {q} samples "
                                f"(one cell), got {len(desc.get('f_samples', ()))}")
    interval = cfg.get("params", {}).get("interval")
    if interval is not None and not interval[0] < interval[1]:
        raise ConfigInvalid(f"params/interval: need lower < upper, got {interval}")
    return cfg


def _lattice(cfg: dict) -> MagneticLattice:
    m = cfg["model"]
    pot = m.get("potential")
    if pot is not None:
        pot = np.asarray(pot, float).reshape(m["q"], m["q"])
    return MagneticLattice(m["k"], m["q"], m["cells_x"], m["cells_y"],
                           m["geometry"], pot)


def _shape_from_descriptor(desc: dict, lattice: MagneticLattice):
    kind = desc["kind"]
    if kind == "half_plane":
        return HalfPlaneShape(desc["level"])
    if kind == "graph":
        return GraphShape(tuple(desc["f_samples"]))
    if kind == "half_plane_with_balls":
        centers = tuple((float(cx), desc["ball_height"])
                        for cx in range(lattice.cells_x + 1))
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
    return make_mask(lattice, _shape_from_descriptor(desc, lattice))


def _unmasked_torus(cfg: dict, lattice: MagneticLattice) -> bool:
    return lattice.geometry == "torus" and cfg["model"].get("mask_descriptor") is None


def _write_manifest(out: str, cfg: dict, cfg_path: str) -> None:
    with open(cfg_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    write_json(os.path.join(out, "manifest.json"), {
        "tool": "gapfill",
        "version": __version__,
        "task": cfg["task"],
        "config_sha256": digest,
        "seed": cfg.get("seed", 0),
        "dense_cap": spectral.DENSE_CAP,
        "conventions": CONVENTIONS,
    })


def _spectrum_outputs(out: str, report, min_gap_width: float, solver: dict):
    rows = [(i, float(ev), float(res), report.cluster_id(i))
            for i, (ev, res) in enumerate(zip(report.eigenvalues, report.residuals))]
    write_csv(os.path.join(out, "spectrum.csv"),
              ["index", "eigenvalue", "residual", "cluster_id"], rows)
    gaps = spectral.detect_gaps(report, min_gap_width)
    write_json(os.path.join(out, "gaps.json"),
               {"gaps": [{"lower": g.lower, "upper": g.upper, "margin": g.margin}
                         for g in gaps],
                "min_width": min_gap_width,
                "n_eigenvalues": int(len(report.eigenvalues)),
                "solver": solver})
    svg_plot(os.path.join(out, "spectrum.svg"),
             [{"x": list(range(len(report.eigenvalues))),
               "y": [float(v) for v in report.eigenvalues], "kind": "points"}],
             xlabel="index", ylabel="eigenvalue", title="spectrum")
    return gaps


def _task_bulk_spectrum(cfg, out):
    """Spectrum and gaps; an unmasked torus is solved on its Bloch fibers."""
    lattice = _lattice(cfg)
    p = cfg.get("params", {})
    export = p.get("export_operator", False)
    gauge = build_gauge(lattice, cfg["model"]["gauge"])
    if _unmasked_torus(cfg, lattice):
        report = bloch.torus_spectrum(lattice, gauge, cluster_tol=p.get("cluster_tol"))
        solver = {"route": "bloch_fibers", "blocks": lattice.cells_x * lattice.cells_y,
                  "block_dim": lattice.q ** 2}
        op = assemble_bulk(lattice, gauge) if export else None
    else:
        op = assemble_restricted(lattice, gauge, _mask(cfg, lattice))
        report = spectral.eigensolve(op, cluster_tol=p.get("cluster_tol"))
        solver = {"route": "dense", "blocks": 1, "block_dim": op.dimension}
    if export:
        from .model import export_triplets
        export_triplets(op, os.path.join(out, "operator.csv"))
    min_w = p.get("min_gap_width", 0.01 * float(report.eigenvalues[-1]
                                                - report.eigenvalues[0]))
    _spectrum_outputs(out, report, min_w, solver)
    return 0


_task_gaps = _task_bulk_spectrum  # gaps task = spectrum + gap artifacts


def _task_chern(cfg, out):
    lattice = _lattice(cfg)
    gauge = build_gauge(lattice, cfg["model"]["gauge"])
    p = cfg.get("params", {})
    n_s, n_t = p.get("grid", [16, 16])
    lo, hi = p.get("interval", [-1.0, 4.0 * np.pi * max(lattice.k, 1)])
    res = bloch.invariant_pair_result(lattice, gauge,
                                      spectral.SpectralInterval(lo, hi),
                                      bloch.BlochGrid(n_s, n_t))
    write_json(os.path.join(out, "chern.json"),
               {"group": list(res.band_group), "dim": res.dim, "chern": res.chern,
                "max_flux": res.max_flux, "interval": [lo, hi],
                "grid": [n_s, n_t], "orientation": res.orientation})
    if p.get("export_bands", False):
        bands = bloch.band_structure(lattice, gauge, bloch.BlochGrid(n_s, n_t))
        rows = []
        for a in range(n_s):
            for b in range(n_t):
                for j, en in enumerate(bands.energies[a, b]):
                    rows.append((a / n_s, b / n_t, j, float(en)))
        write_csv(os.path.join(out, "bands.csv"),
                  ["s", "t", "band_index", "energy"], rows)
    return 0


def _bulk_gap_for(lattice: MagneticLattice, gauge_kind: str, bulk_cells: int):
    torus = MagneticLattice(lattice.k, lattice.q, bulk_cells, bulk_cells, "torus",
                            lattice.potential)
    report = bloch.torus_spectrum(torus, build_gauge(torus, gauge_kind))
    gaps = [g for g in report.gaps if g.width >= 0.2 * 8 * np.pi * max(lattice.k, 1)]
    if not gaps:
        return None, report
    g = max(gaps, key=lambda g: g.width)
    inset = 0.02 * g.width
    return spectral.certify_interval(report, g.lower + inset, g.upper - inset), report


def _strip_from_params(cfg, p):
    m = cfg["model"]
    shape = None
    if "shape" in p:
        desc = p["shape"]
        if desc["kind"] == "half_plane_with_balls":
            # strip decorations: one ball per cell along the strip length,
            # height relative to the top level
            centers = tuple((float(c), desc["ball_height"])
                            for c in range(p["length_cells"] + 1))
            shape = BallsShape(HalfPlaneShape(desc["level"]), desc["radius"],
                               centers)
        else:
            shape = _shape_from_descriptor(desc, _lattice(cfg))
    pot = m.get("potential")
    if pot is not None:
        pot = np.asarray(pot, float).reshape(m["q"], m["q"])
    return edge.make_strip(m["k"], m["q"], p["width_cells"], p["length_cells"],
                           shape, pot)


def _task_edge_fill(cfg, out):
    p = cfg.get("params", {})
    lattice = _lattice(cfg)
    gap, _ = _bulk_gap_for(lattice, cfg["model"]["gauge"], p.get("bulk_cells", 4))
    if gap is None:
        write_json(os.path.join(out, "edge_report.json"),
                   {"verdict": "no_bulk_gap", "all_pass": False})
        return 2
    strip = _strip_from_params(cfg, p)
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
        "localization": [{"energy": lp.energy,
                          "mass_within_1_5": lp.mass_within(1.5),
                          "decay_rate": lp.decay_rate} for lp in report.localization],
        "conventions": report.conventions,
    })
    return 0 if report.all_pass else 2


def _task_bands(cfg, out):
    p = cfg.get("params", {})
    strip = _strip_from_params(cfg, p)
    flow = edge.strip_bands(strip, p.get("n_kappa", 48), p.get("e_ref"),
                            p.get("designated_edge", "lower"))
    rows = []
    for i, kappa in enumerate(flow.kappas):
        wvals = flow.window_energies[i]
        wmass = flow.window_mass_lower[i]
        for b, en in enumerate(flow.dispersion[i]):
            mass = ""
            if len(wvals):
                j = int(np.argmin(np.abs(wvals - en)))
                if abs(wvals[j] - en) < 1e-9:
                    mass = float(wmass[j])
            rows.append((float(kappa), b, float(en), mass))
    write_csv(os.path.join(out, "dispersion.csv"),
              ["kappa", "band", "energy", "edge_mass_lower"], rows)
    write_json(os.path.join(out, "flow.json"), {
        "e_ref": flow.e_ref,
        "designated_edge": flow.designated_edge,
        "net_flow": flow.net_flow,
        "net_flow_upper": flow.net_flow_upper,
        "crossings": [{"kappa": c.kappa, "sign": c.sign, "edge": c.edge,
                       "mass_lower": c.mass_lower} for c in flow.crossings],
        "conventions": flow.conventions,
    })
    in_gap = np.abs(flow.dispersion - flow.e_ref) < flow.window_halfwidth * 1.5
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
    elif f["type"] == "gaussian":
        filt = spectral.gaussian_filter(f["center"], f["sigma"], encl, f["degree"])
    else:
        raise ConfigInvalid(f"unknown filter type {f['type']!r}")
    radii = p.get("radii", [0.5, 1.0, 2.0, 3.0])
    rep = coarse.affiliation_check(bulk, restricted, mask, filt, radii,
                                   verify_bitwise=p.get("verify_bitwise", True),
                                   seed=cfg.get("seed", 0))
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
    r = p.get("r", 1.0)
    if desc_cfg["kind"] in ("sites", "all"):
        mask = _mask(cfg, lattice)
        cert = coarse.wideness_check("explicit", r, lattice,
                                     y_diameter=p.get("y_diameter"),
                                     seed=cfg.get("seed", 0), mask=mask)
    else:
        shape = _shape_from_descriptor(desc_cfg, lattice)
        cert = coarse.wideness_check(shape, r, lattice,
                                     y_diameter=p.get("y_diameter"),
                                     seed=cfg.get("seed", 0))
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
    affiliation = None
    if os.path.exists(os.path.join(out, "affiliation.json")):
        affiliation = read("affiliation.json")

    obstruction = chern["chern"] != 0
    filled = bool(edge_rep.get("all_pass"))
    flow_matches = abs(flow["net_flow"]) == abs(chern["chern"])
    affiliation_ok = True
    if affiliation is not None and affiliation["deviations"]:
        affiliation_ok = affiliation["deviations"][-1] <= 1e-6

    if not obstruction:
        verdict = "no_obstruction"
        message = "no obstruction; gap filling not implied"
        status = 0
    elif filled and flow_matches and affiliation_ok:
        verdict = "PASS"
        message = (f"nonzero obstruction (c1={chern['chern']}), gap filled, "
                   f"|net_flow|=|c1|")
        status = 0
    else:
        verdict = "FAIL"
        message = (f"obstruction c1={chern['chern']} but gap_filled={filled}, "
                   f"flow_matches={flow_matches}, affiliation_ok={affiliation_ok}")
        status = 2

    doc = {
        "verdict": verdict,
        "message": message,
        "bulk_gaps": gaps["gaps"],
        "invariant_pair": {"dim": chern["dim"], "chern": chern["chern"]},
        "gap_filled": filled,
        "max_sample_distance": edge_rep.get("max_distance"),
        "net_flow": flow["net_flow"],
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
          f"- net spectral flow ({flow['designated_edge']} edge): {flow['net_flow']}"]
    if affiliation is not None:
        md.append(f"- affiliation final deviation: {doc['affiliation_final_deviation']}")
    from ._output import atomic_write
    atomic_write(os.path.join(out, "report.md"), "\n".join(md) + "\n")
    return status


_TASK_FNS = {
    "bulk-spectrum": _task_bulk_spectrum,
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
    except ConfigInvalid as exc:
        print(f"ConfigInvalid: {exc}", file=sys.stderr)
        return 1
    except MissingArtifacts as exc:
        print(f"MissingArtifacts: {exc}", file=sys.stderr)
        return 1
    except GapfillError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
