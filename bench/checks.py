"""Artifact checks for the benchmark workloads.

Every check compares a task's artifacts against a closed form or a
property the method must have; none compares against a stored copy of an
earlier run.  Each check returns a list of failure messages (empty when
the artifacts pass) so one operation can report every problem it has.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction

SUM_RTOL = 1e-10
SMOOTH_DEVIATION_MAX = 1e-6  # at R = 3, the bound `report` applies


def _load(out: str, name: str):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _torus_n(model: dict) -> int:
    return model["q"] ** 2 * model["cells_x"] * model["cells_y"]


def check_torus_spectrum(eigenvalues, model: dict) -> list:
    """Closed forms for the W = 0 torus: size, trace, trace of H^2, low count.

    Each site carries the diagonal d = 4q^2 - 4*pi*k and four hops of
    modulus q^2, so sum(lambda) = n*d and sum(lambda^2) = n*(d^2 + 4q^4);
    the lowest Landau group holds exactly 2k states per cell below 4*pi*k.
    """
    q, k = model["q"], model["k"]
    n = _torus_n(model)
    errs = []
    if len(eigenvalues) != n:
        return [f"spectrum has {len(eigenvalues)} eigenvalues, expected q^2*cells = {n}"]
    d = 4.0 * q * q - 4.0 * math.pi * k
    tr1 = n * d
    tr2 = n * (d * d + 4.0 * q ** 4)
    s1 = math.fsum(eigenvalues)
    s2 = math.fsum(v * v for v in eigenvalues)
    if abs(s1 - tr1) > SUM_RTOL * abs(tr1):
        errs.append(f"sum(lambda) = {s1!r}, closed form n(4q^2-4pi k) = {tr1!r}")
    if abs(s2 - tr2) > SUM_RTOL * tr2:
        errs.append(f"sum(lambda^2) = {s2!r}, closed form {tr2!r}")
    low = sum(1 for v in eigenvalues if v < 4.0 * math.pi * k)
    want = 2 * k * model["cells_x"] * model["cells_y"]
    if low != want:
        errs.append(f"{low} eigenvalues below 4*pi*k, expected 2k*cells = {want}")
    return errs


def read_spectrum(out: str) -> list:
    with open(os.path.join(out, "spectrum.csv")) as fh:
        return [float(row["eigenvalue"]) for row in csv.DictReader(fh)]


def check_gaps(out: str, cfg: dict) -> list:
    errs = check_torus_spectrum(read_spectrum(out), cfg["model"])
    if _load(out, "gaps.json")["n_eigenvalues"] != _torus_n(cfg["model"]):
        errs.append("gaps.json n_eigenvalues differs from q^2*cells")
    return errs


def check_chern(out: str, cfg: dict) -> list:
    """The lowest Landau group carries the invariant pair (2k, -1)."""
    doc = _load(out, "chern.json")
    k = cfg["model"]["k"]
    if (doc["dim"], doc["chern"]) != (2 * k, -1):
        return [f"(dim, c1) = ({doc['dim']}, {doc['chern']}), expected ({2 * k}, -1)"]
    return []


def flat_strip_sites(q: int, width_cells: int, length_cells: int) -> int:
    """Member sites of the flat strip: rows y in [1, 1 + width], all columns."""
    return (width_cells * q + 1) * (length_cells * q)


def check_edge_fill(out: str, cfg: dict) -> list:
    doc = _load(out, "edge_report.json")
    p = cfg["params"]
    errs = []
    want = flat_strip_sites(cfg["model"]["q"], p["width_cells"], p["length_cells"])
    if doc["n_strip_eigenvalues"] != want:
        errs.append(f"n_strip_eigenvalues {doc['n_strip_eigenvalues']} != "
                    f"member-site count {want}")
    delta = p["delta"]
    gap = doc["bulk_gap"]
    if len(doc["samples"]) != p["n_samples"]:
        errs.append(f"{len(doc['samples'])} gap samples, expected {p['n_samples']}")
    for s, dist in doc["samples"]:
        if not gap["lower"] < s < gap["upper"]:
            errs.append(f"sample {s} outside the bulk gap")
        if not dist <= delta:
            errs.append(f"sample {s} is {dist} from the strip spectrum, above delta {delta}")
    if not doc["all_pass"]:
        errs.append("edge_report all_pass is false")
    return errs


def check_bands(out: str, cfg: dict) -> list:
    doc = _load(out, "flow.json")
    if (doc["net_flow"], doc["net_flow_upper"]) != (1, -1):
        return [f"(net_flow, net_flow_upper) = ({doc['net_flow']}, "
                f"{doc['net_flow_upper']}), expected (1, -1)"]
    return []


def half_plane_far_counts(model: dict, radii) -> list:
    """Sites at boundary distance >= R in an open window cut at y <= level.

    Member rows are iy <= top with top/q <= level.  Row iy is top - iy + 1
    hops from the first complement row, so its boundary distance is
    (top - iy)/q, and it is far when that is >= R.
    """
    q = model["q"]
    n_x, n_y = q * model["cells_x"], q * model["cells_y"]
    level = Fraction(model["mask_descriptor"]["level"])
    top = min(math.floor(level * q), n_y - 1)
    counts = []
    for r in radii:
        rows = sum(1 for iy in range(top + 1) if Fraction(top - iy, q) >= Fraction(r))
        counts.append(rows * n_x)
    return counts


def check_affiliation(out: str, cfg: dict) -> list:
    doc = _load(out, "affiliation.json")
    p = cfg["params"]
    errs = []
    radii = sorted(p["radii"])
    want = half_plane_far_counts(cfg["model"], radii)
    if doc["far_counts"] != want:
        errs.append(f"far_counts {doc['far_counts']} != closed form {want}")
    dev = doc["deviations"]
    filt = p["filter"]
    if filt["type"] == "polynomial":
        degree = len(filt["power_coefficients"]) - 1
        cone = degree / cfg["model"]["q"]
        if doc["exact_zero_radius"] != cone:
            errs.append(f"exact_zero_radius {doc['exact_zero_radius']} != degree*h = {cone}")
        for r, d in zip(radii, dev):
            if r >= cone and d != 0.0:
                errs.append(f"polynomial deviation {d!r} at R={r} is not bitwise 0")
    else:
        for i in range(1, len(dev)):
            if dev[i] > dev[i - 1]:
                errs.append(f"deviation grows from R={radii[i - 1]} to R={radii[i]}")
        at3 = [d for r, d in zip(radii, dev) if r == 3.0]
        if not at3 or not at3[0] <= SMOOTH_DEVIATION_MAX:
            errs.append(f"deviation at R=3 is {at3}, above {SMOOTH_DEVIATION_MAX}")
    return errs


def expected_wideness(cfg: dict) -> str:
    """Bounded regions admit a counterexample; half-plane-like ones are wide."""
    kind = cfg["model"]["mask_descriptor"]["kind"]
    return "counterexample_found" if kind == "disk" else "wide_proved"


def check_wideness(out: str, cfg: dict) -> list:
    doc = _load(out, "wideness.json")
    want = expected_wideness(cfg)
    errs = []
    if doc["verdict"] != want:
        errs.append(f"wideness verdict {doc['verdict']!r}, expected {want!r}")
    passed, total = doc["spot_checks"]
    if want == "wide_proved" and (passed != total or total == 0):
        errs.append(f"spot checks {passed}/{total} on a wide region")
    return errs


def check_report(out: str, cfg: dict) -> list:
    doc = _load(out, "report.json")
    if doc["verdict"] != "PASS":
        return [f"report verdict {doc['verdict']!r}: {doc['message']}"]
    return []


CHECKS = {
    "gaps": check_gaps,
    "chern": check_chern,
    "edge-fill": check_edge_fill,
    "bands": check_bands,
    "affiliation": check_affiliation,
    "wideness": check_wideness,
    "report": check_report,
}


def expected_status(task: str, cfg: dict) -> int:
    if task == "wideness" and expected_wideness(cfg) == "counterexample_found":
        return 2
    return 0
