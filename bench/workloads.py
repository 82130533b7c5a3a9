"""The benchmark's workloads: which CLI tasks run, on which configs.

One operation is one CLI task invocation.  Operations of a workload run
in the order listed; operations that share an `out` key share an output
directory (the verdict chain needs that, because `report` reads what the
earlier tasks wrote).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

CHAIN_TASKS = ("gaps", "chern", "edge-fill", "bands", "affiliation", "wideness",
               "report")

# The shipped k1 chain takes about 95 s on two cores, almost all of it in
# the 48 dense width-16 blocks of edge-fill and the 48 momenta of bands.
# The host's speed swings by 10-30% from one task to the next, so a run
# must time every operation several times and report medians; the
# benchmark keeps every shipped setting except these sizes, which bring a
# round to about 10 s.  Width 4 is still 14 magnetic lengths (the solver
# asks for 8), and edge-fill keeps length_cells = 48: the delta = 0.5
# verdict needs that many momenta (at 16 the largest sample distance is
# 1.2).  Bands keeps (net_flow, net_flow_upper) = (1, -1) at width 6 and
# 24 momenta.
CHAIN_OVERRIDES = {
    "edge-fill": {"width_cells": 4},
    "bands": {"width_cells": 6, "n_kappa": 24},
}


@dataclass(frozen=True)
class Op:
    name: str   # unique within the workload; names the config file
    task: str
    cfg: dict
    out: str    # output subdirectory


def _torus(k: int, q: int, cells_x: int, cells_y: int) -> dict:
    return {"k": k, "q": q, "cells_x": cells_x, "cells_y": cells_y,
            "geometry": "torus", "gauge": "landau"}


def _masked(cells: int, mask: dict) -> dict:
    return {"k": 1, "q": 8, "cells_x": cells, "cells_y": cells,
            "geometry": "masked", "gauge": "landau", "mask_descriptor": mask}


def _chain_k1(root: str) -> list:
    ops = []
    for task in CHAIN_TASKS:
        with open(os.path.join(root, "configs", f"k1-{task}.json")) as fh:
            cfg = json.load(fh)
        cfg.pop("output_dir", None)
        cfg.setdefault("params", {}).update(CHAIN_OVERRIDES.get(task, {}))
        if not cfg["params"]:
            del cfg["params"]
        ops.append(Op(task, task, cfg, "chain"))
    return ops


def _bulk_q16(root: str) -> list:
    # 3x2 cells (dense n = 1536) and an 8x8 dual grid keep a round near
    # 7 s; both Chern pairs are already exact on that grid.
    gaps = {"model": _torus(1, 16, 3, 2), "task": "gaps", "params": {}}
    ops = [Op("gaps-q16", "gaps", gaps, "gaps-q16")]
    for k in (1, 2):
        cfg = {"model": _torus(k, 16, 2, 2), "task": "chern",
               "params": {"grid": [8, 8]}}
        ops.append(Op(f"chern-q16-k{k}", "chern", cfg, f"chern-q16-k{k}"))
    return ops


def _propagation(root: str) -> list:
    # Degree 200 (the shipped filter) rather than 400: the number of filter
    # applications a norm estimate takes depends on the seed, and a cheaper
    # application lets a run take its median over twice as many seeds.
    smooth = {"model": _masked(12, {"kind": "half_plane", "level": 8.5}),
              "task": "affiliation",
              "params": {"filter": {"type": "smoothed_indicator", "lo": 2.0,
                                    "hi": 23.132741228718345, "smoothing": 4.5,
                                    "degree": 200},
                         "radii": [1.0, 2.0, 3.0, 4.0], "verify_bitwise": False}}
    # (x/512)^8: exact, degree 8, of order one on the spectral enclosure
    bitwise = {"model": _masked(6, {"kind": "half_plane", "level": 4.5}),
               "task": "affiliation",
               "params": {"filter": {"type": "polynomial",
                                     "power_coefficients": [0.0] * 8 + [512.0 ** -8]},
                          "radii": [1.0, 2.0, 3.0], "verify_bitwise": True}}
    with open(os.path.join(root, "configs", "k1-wideness.json")) as fh:
        half_plane = json.load(fh)
    half_plane.pop("output_dir", None)
    regions = {
        "graph": {"kind": "graph",
                  "f_samples": [3.0, 3.25, 3.5, 3.25, 3.0, 2.75, 2.5, 2.75]},
        "balls": {"kind": "half_plane_with_balls", "level": 3.0,
                  "radius": 0.3333333333333333, "ball_height": 3.25},
        "disk": {"kind": "disk", "center": [3.0, 3.0], "radius": 2.0},
    }
    ops = [Op("affiliation-smooth", "affiliation", smooth, "affiliation-smooth"),
           Op("affiliation-bitwise", "affiliation", bitwise, "affiliation-bitwise"),
           Op("wideness-half-plane", "wideness", half_plane, "wideness-half-plane")]
    for name, mask in regions.items():
        cfg = {"model": _masked(6, mask), "task": "wideness", "params": {"r": 1.0}}
        ops.append(Op(f"wideness-{name}", "wideness", cfg, f"wideness-{name}"))
    return ops


WORKLOADS = {
    "chain-k1": _chain_k1,
    "bulk-q16": _bulk_q16,
    "propagation": _propagation,
}
