"""Dirichlet strips: gap filling, edge localization and spectral flow.

A strip is periodic in x and carved by a boundary shape in y, with one cell
of vacuum below and above the region so that both edges are genuine mask
boundaries.  For cell-periodic shapes the strip operator block-diagonalizes
exactly over the momenta kappa = 2*pi*m/length_cells (magnetic translation
by one cell), which is how gap filling checks and band structures stay
cheap.  The block at kappa is the window stencil of :mod:`gapfill.model` on
the one-cell-wide strip, whose x seam links carry the Landau translation
cocycle, twisted by e^{i*kappa} (:func:`gapfill.model.twist_seams`); the
unitary equivalence with the assembled strip matrix is exercised directly
by the test suite.

Sign conventions, recorded in every report: kappa increases along the
positive dual direction (the wrap phase is e^{+i*kappa}), a crossing counts
with the sign of dE/dkappa, and the lower edge is the designated edge by
default.  Under these conventions the k=1 magnetic Laplacian carries
net_flow = +1 on the lower edge at mid-gap, and |net_flow| = |c1|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (BandConnectionAmbiguous, EmptyRegion, MarginTooSmall,
                     StripTooNarrow, UnsupportedShape)
from .model import (GaugeField, HalfPlaneShape, GraphShape, BallsShape,
                    HermitianOperator, MagneticLattice, RegionMask, _assemble,
                    assemble_restricted, build_gauge, cell_gauge, cell_lift_phases,
                    mask_from_member, twist_seams)
from .spectral import SpectralInterval, eigensolve

FLOW_CONVENTIONS = {
    "kappa_wrap_phase": "exp(+i*kappa) per cell in +x",
    "crossing_sign": "sign of dE/dkappa at the crossing",
    "designated_edge_default": "lower",
    "edge_assignment": ">= 60% mass on the assigned half of the region",
}


@dataclass(frozen=True)
class StripSpec:
    """x-periodic strip of width_cells, shaped at the top, vacuum collars.

    The region occupies y in [1, 1 + width_cells] (bottom vacuum cell at
    y < 1); the shape descriptor carves the top edge relative to the level
    1 + width_cells.  shape is one of the model shape descriptors already
    shifted to absolute window coordinates.
    """

    width_cells: int
    length_cells: int
    shape: object
    lattice: MagneticLattice

    def __post_init__(self):
        if self.width_cells < 4:
            raise ValueError("width_cells must be >= 4")
        if self.length_cells < 1:
            raise ValueError("length_cells must be >= 1")
        if self.lattice.geometry != "strip":
            raise ValueError("strip lattice must have strip geometry")


def make_strip(k: int, q: int, width_cells: int, length_cells: int,
               shape: object | None = None, potential=None,
               headroom_cells: int = 1) -> StripSpec:
    """StripSpec with the window sized for the shape.

    shape=None gives the flat edge y <= 1 + width_cells.  Shapes are given
    relative to the top level: HalfPlaneShape(0.25) means the flat edge
    raised by 0.25, GraphShape samples are offsets of f around the top
    level, BallsShape decorates the shifted base shape (its centers are
    relative (x, dy) pairs with dy measured from the top level).
    """
    top = 1.0 + width_cells
    if shape is None:
        shape = HalfPlaneShape(0.0)
    extra = 0.0
    if isinstance(shape, HalfPlaneShape):
        abs_shape = HalfPlaneShape(top + shape.level)
        extra = max(extra, shape.level)
    elif isinstance(shape, GraphShape):
        abs_shape = GraphShape(tuple(top + f for f in shape.f_samples))
        extra = max(extra, max(shape.f_samples))
    elif isinstance(shape, BallsShape):
        base = HalfPlaneShape(top + shape.base.level)
        centers = tuple((cx, top + dy) for (cx, dy) in shape.centers)
        abs_shape = BallsShape(base, shape.radius, centers)
        extra = max(shape.base.level,
                    max(dy for (_, dy) in shape.centers) + shape.radius)
    else:
        raise UnsupportedShape(f"unsupported strip shape: {shape!r}")
    cells_y = width_cells + 2 + headroom_cells + int(np.ceil(max(extra, 0.0)))
    lattice = MagneticLattice(k, q, length_cells, cells_y, "strip", potential)
    return StripSpec(width_cells, length_cells, abs_shape, lattice)


def strip_mask(strip: StripSpec) -> RegionMask:
    """Region mask of the strip: shape membership above the bottom vacuum."""
    lat = strip.lattice
    ix, iy = np.meshgrid(np.arange(lat.n_x), np.arange(lat.n_y), indexing="ij")
    y = iy * lat.h
    x = ix * lat.h
    shape = strip.shape
    if isinstance(shape, HalfPlaneShape):
        member = y <= shape.level
    elif isinstance(shape, GraphShape):
        member = y <= shape.samples(lat.q)[ix % lat.q]
    elif isinstance(shape, BallsShape):
        member = y <= shape.base.level
        for (cx, cy) in shape.centers:
            # decoration repeats per cell along x
            dx = np.minimum(np.abs(x - cx) % lat.cells_x,
                            lat.cells_x - np.abs(x - cx) % lat.cells_x)
            member |= dx ** 2 + (y - cy) ** 2 <= shape.radius ** 2
    else:
        raise UnsupportedShape(f"unsupported strip shape: {shape!r}")
    member &= y >= 1.0
    if not member.any():
        raise EmptyRegion("strip mask selects no site")
    return mask_from_member(lat, member, ("strip", strip.shape))


def strip_operator(strip: StripSpec, gauge: GaugeField | None = None) -> HermitianOperator:
    """Assembled Dirichlet strip operator (x-periodic window)."""
    gauge = gauge or build_gauge(strip.lattice, "landau")
    return assemble_restricted(strip.lattice, gauge, strip_mask(strip))


def _mask_cell_periodic(mask: RegionMask) -> bool:
    q = mask.lattice.q
    m = mask.member
    return all(np.array_equal(m[:q], m[c * q:(c + 1) * q])
               for c in range(mask.lattice.cells_x))


def strip_block(strip: StripSpec, kappa: float, mask: RegionMask | None = None) -> HermitianOperator:
    """Momentum-kappa block of the strip: one cell column, wrap phase e^{i*kappa}.

    The window stencil on the one-cell-wide strip, whose x seam carries the
    Landau translation cocycle, twisted by e^{i*kappa}.  Valid for
    cell-periodic masks.  The block spectrum over kappa = 2*pi*m/length_cells
    reproduces the strip spectrum exactly.
    """
    lat = strip.lattice
    mask = mask or strip_mask(strip)
    if not _mask_cell_periodic(mask):
        raise ValueError("strip mask is not cell-periodic; no block reduction")
    cell = MagneticLattice(lat.k, lat.q, 1, lat.cells_y, "strip", lat.potential)
    prov = {"lattice": lat, "gauge_kind": "landau", "mask": mask.descriptor,
            "kappa": kappa, "shift": -4.0 * np.pi * lat.k}
    return _assemble(cell, _block_gauge(lat, kappa), mask.member[:lat.q], prov)


def _block_gauge(lat: MagneticLattice, kappa: float) -> GaugeField:
    """The one-cell-wide strip gauge with its x seam twisted by e^{i*kappa}."""
    return twist_seams(cell_gauge(lat.k, lat.q, "landau", "strip", lat.cells_y),
                       np.exp(1j * kappa), 1.0)


def lift_block_vector(strip: StripSpec, block: HermitianOperator, kappa: float,
                      vec: np.ndarray, mask: RegionMask,
                      gauge: GaugeField | None = None) -> np.ndarray:
    """Extend a block eigenvector to the strip: psi(x, y) = chi(x, y) vec(x mod q, y).

    chi is the ratio of block to strip link phases
    (:func:`gapfill.model.cell_lift_phases`); gauge is the strip's Landau
    gauge, the one :func:`strip_operator` assembles with by default.
    """
    lat = strip.lattice
    gauge = gauge or build_gauge(lat, "landau")
    chi = cell_lift_phases(gauge, _block_gauge(lat, kappa))
    ix, iy = np.nonzero(mask.member)
    out = chi[ix, iy] * np.asarray(vec)[block.ids[ix % lat.q, iy]]
    return out / np.linalg.norm(out)


# ---------------------------------------------------------------------------
# gap filling


@dataclass(frozen=True, eq=False)
class LocalizationProfile:
    """Cumulative boundary-mass curve of an eigenvector with a decay fit."""

    energy: float
    residual: float
    distances: np.ndarray
    cumulative_mass: np.ndarray
    decay_rate: float

    def mass_within(self, d: float) -> float:
        i = np.searchsorted(self.distances, d, side="right") - 1
        return float(self.cumulative_mass[i]) if i >= 0 else 0.0


@dataclass(frozen=True, eq=False)
class EdgeReport:
    """Gap-filling verdicts: per-sample nearest-eigenvalue distances."""

    samples: np.ndarray
    distances: np.ndarray
    pass_threshold: float
    verdicts: np.ndarray
    localization: tuple
    conventions: dict
    n_strip_eigenvalues: int

    @property
    def all_pass(self) -> bool:
        return bool(self.verdicts.all())

    @property
    def max_distance(self) -> float:
        return float(self.distances.max())


def localization_profile(op: HermitianOperator, eigenpair, mask: RegionMask) -> LocalizationProfile:
    """Mass-within-boundary-distance curve plus a least-squares decay rate.

    The rate is the negated slope of log(1 - cumulative mass) against
    distance over the first e-folding of the tail (tail in [0.35, 0.95]);
    for a magnetic edge state, whose profile is Gaussian on the magnetic
    length, this is where the instantaneous rate matches 1/magnetic_length.
    Deeper windows measure the super-exponential Gaussian falloff instead.
    """
    energy, vec = eigenpair
    vec = np.asarray(vec, complex)
    res = float(np.linalg.norm(op.matrix @ vec - energy * vec) / np.linalg.norm(vec))
    bd = mask.boundary_distance[mask.member]
    w = np.abs(vec) ** 2
    w = w / w.sum()
    order = np.argsort(bd, kind="stable")
    d_sorted = bd[order]
    mass = np.cumsum(w[order])
    dist = np.unique(d_sorted)
    # cumulative mass at each distinct distance value
    idx = np.searchsorted(d_sorted, dist, side="right") - 1
    cum = mass[idx]
    tail = 1.0 - cum
    fit = (tail >= 0.35) & (tail <= 0.95) & np.isfinite(dist)
    if fit.sum() < 2:  # very sharply localized state: take the first decade
        fit = (tail > 1e-3) & (cum > 0.0) & np.isfinite(dist)
    if fit.sum() >= 2:
        slope, _ = np.polyfit(dist[fit], np.log(tail[fit]), 1)
        rate = float(-slope)
    else:
        rate = np.inf
    return LocalizationProfile(float(energy), res, dist, cum, rate)


def gap_filling_check(strip: StripSpec, bulk_gap: SpectralInterval, n_samples: int,
                      delta: float, n_localization: int = 3) -> EdgeReport:
    """Are n_samples energies in the bulk-gap interior all within delta of strip spectrum?

    Samples are drawn from the gap inset by 5% of its width on both sides
    (the gap endpoints themselves may be spectrum).  For cell-periodic
    shapes the strip spectrum is assembled from the momentum blocks, each
    solved in turn by the dense eigensolve; other shapes solve the assembled
    strip.  An operator above the dense cap raises DenseCapExceeded.
    """
    if bulk_gap.margin <= 0:
        raise MarginTooSmall("bulk_gap must be certified (margin > 0)")
    lat = strip.lattice
    if strip.width_cells < 8 * lat.magnetic_length:
        raise StripTooNarrow(
            f"strip width {strip.width_cells} cells is below 8 magnetic lengths "
            f"(the magnetic length is {lat.magnetic_length:.3g} at k = {lat.k})")
    eps0 = 0.05 * bulk_gap.width
    samples = np.linspace(bulk_gap.lower + eps0, bulk_gap.upper - eps0, n_samples)

    mask = strip_mask(strip)
    eigenvalues = []
    mid = bulk_gap.midpoint
    best_states = []  # (|E - mid|, E, block vector, kappa, block op)
    if _mask_cell_periodic(mask):
        for m in range(strip.length_cells):
            kappa = 2.0 * np.pi * m / strip.length_cells
            block = strip_block(strip, kappa, mask)
            rep = eigensolve(block, keep_vectors=True)
            eigenvalues.append(rep.eigenvalues)
            j = int(np.argmin(np.abs(rep.eigenvalues - mid)))
            best_states.append((abs(rep.eigenvalues[j] - mid), float(rep.eigenvalues[j]),
                                rep.eigenvectors[:, j].copy(), kappa, block))
    else:
        op = strip_operator(strip)
        rep = eigensolve(op, keep_vectors=True)
        eigenvalues.append(rep.eigenvalues)
        for j in np.argsort(np.abs(rep.eigenvalues - mid))[:n_localization]:
            best_states.append((abs(rep.eigenvalues[j] - mid), float(rep.eigenvalues[j]),
                                rep.eigenvectors[:, j], None, op))
    spectrum = np.sort(np.concatenate(eigenvalues))
    distances = np.array([np.abs(spectrum - s).min() if len(spectrum) else np.inf
                          for s in samples])
    verdicts = distances <= delta

    best_states.sort(key=lambda t: t[0])
    profiles = []
    strip_op = None
    for (_, energy, vec, kappa, block) in best_states[:n_localization]:
        if kappa is None:
            profiles.append(localization_profile(block, (energy, vec), mask))
        else:
            if strip_op is None:
                gauge = build_gauge(lat, "landau")
                strip_op = strip_operator(strip, gauge)
            lifted = lift_block_vector(strip, block, kappa, vec, mask, gauge)
            profiles.append(localization_profile(strip_op, (energy, lifted), mask))
    return EdgeReport(samples, distances, delta, verdicts, tuple(profiles),
                      dict(FLOW_CONVENTIONS), int(len(spectrum)))


# ---------------------------------------------------------------------------
# spectral flow


@dataclass(frozen=True, eq=False)
class Crossing:
    """One signed crossing of the reference energy by a continued band."""

    kappa: float
    energy: float
    sign: int
    edge: str
    mass_lower: float
    overlap: float


@dataclass(frozen=True, eq=False)
class SpectralFlowReport:
    """Strip dispersion with signed edge-resolved crossings of E_ref.

    window_energies[i] / window_mass_lower[i] hold, per momentum, the
    energies and lower-half masses of the bands inside the analysis window
    |E - e_ref| <= window_halfwidth (eigenvectors are only computed there).
    """

    kappas: np.ndarray
    dispersion: np.ndarray
    e_ref: float
    crossings: tuple
    designated_edge: str
    net_flow: int
    net_flow_upper: int
    conventions: dict
    window_halfwidth: float
    window_energies: tuple
    window_mass_lower: tuple


def strip_bands(strip: StripSpec, n_kappa: int, e_ref: float | None = None,
                designated_edge: str = "lower",
                window_halfwidth: float | None = None) -> SpectralFlowReport:
    """Dispersion over kappa in [0, 2*pi) with edge-resolved crossing counts.

    Bands inside  |E - e_ref| <= window_halfwidth  are continued between
    consecutive momenta by maximal eigenvector overlap (optimal assignment);
    a crossing pair with overlap below 0.5 raises BandConnectionAmbiguous.
    Crossings are assigned to the lower/upper edge by >= 60% mass on the
    corresponding half of the region, signed by the slope, and summed for
    the designated edge.
    """
    lat = strip.lattice
    k = lat.k
    if e_ref is None:
        e_ref = 4.0 * np.pi * max(k, 1)
    if window_halfwidth is None:
        window_halfwidth = 0.35 * 8.0 * np.pi * max(k, 1)
    mask = strip_mask(strip)
    if not _mask_cell_periodic(mask):
        raise ValueError("strip_bands needs a cell-periodic (flat or graph-periodic) shape")

    kappas = 2.0 * np.pi * np.arange(n_kappa) / n_kappa
    lo, hi = e_ref - window_halfwidth, e_ref + window_halfwidth
    region_mid = 1.0 + strip.width_cells / 2.0

    energies_all = []
    win_vals, win_vecs, win_mass = [], [], []
    for kappa in kappas:
        block = strip_block(strip, kappa, mask)
        dense = block.matrix.toarray()
        energies_all.append(np.linalg.eigvalsh(dense))
        w, v = scipy.linalg.eigh(dense, subset_by_value=(lo, hi))
        lower_rows = block.sites[:, 1] * lat.h < region_mid
        mass = (np.abs(v[lower_rows]) ** 2).sum(axis=0)
        win_vals.append(w)
        win_vecs.append(v)
        win_mass.append(mass)
    dispersion = np.array(energies_all)

    crossings = []
    for m in range(n_kappa):
        m2 = (m + 1) % n_kappa
        w0, w1 = win_vals[m], win_vals[m2]
        if len(w0) == 0 or len(w1) == 0:
            continue
        overlap = np.abs(win_vecs[m].conj().T @ win_vecs[m2])
        ri, ci = scipy.optimize.linear_sum_assignment(-overlap ** 2)
        for i, j in zip(ri, ci):
            e0, e1 = w0[i], w1[j]
            if (e0 - e_ref) * (e1 - e_ref) < 0.0:
                if overlap[i, j] < 0.5:
                    raise BandConnectionAmbiguous(
                        f"crossing overlap {overlap[i, j]:.3f} < 0.5 at kappa index {m}; "
                        "refine n_kappa")
                sign = 1 if e1 > e0 else -1
                mass_lower = 0.5 * (win_mass[m][i] + win_mass[m2][j])
                if mass_lower >= 0.6:
                    edge = "lower"
                elif mass_lower <= 0.4:
                    edge = "upper"
                else:
                    edge = "unassigned"
                frac = (e_ref - e0) / (e1 - e0)
                crossings.append(Crossing(float(kappas[m] + frac * 2 * np.pi / n_kappa),
                                          float(e_ref), sign, edge, float(mass_lower),
                                          float(overlap[i, j])))
    net_lower = sum(c.sign for c in crossings if c.edge == "lower")
    net_upper = sum(c.sign for c in crossings if c.edge == "upper")
    net = net_lower if designated_edge == "lower" else net_upper
    return SpectralFlowReport(kappas, dispersion, float(e_ref), tuple(crossings),
                              designated_edge, int(net), int(net_upper),
                              dict(FLOW_CONVENTIONS), float(window_halfwidth),
                              tuple(win_vals), tuple(win_mass))
