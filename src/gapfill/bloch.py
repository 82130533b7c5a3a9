"""Magnetic Bloch-Floquet reduction and the invariant pair (dim, c1).

The flux through one continuum unit cell is the integer 2k, so the q x q
site cell is a magnetic unit cell: the bulk operator commutes with magnetic
translations by one cell, and the torus operator decomposes exactly into
q^2-dimensional fibers over the dual torus.  The fiber at (s, t) is the
window stencil of :mod:`gapfill.model` on the one-cell torus, with its seam
links twisted by e^{2*pi*i*s} / e^{2*pi*i*t}
(:func:`gapfill.model.twist_seams`).  The Wilson-pinned seam links of that
cell already carry the translation cocycle of the gauge, without which the
fiber family would violate the plaquette flux at the cell boundary.  An
unmasked torus of cells_x x cells_y cells is solved on its fibers at
(a/cells_x, b/cells_y) (:func:`torus_spectrum`), with every lifted pair
certified on the assembled torus operator.

The first Chern number of a band group is computed by plaquette Berry
fluxes on the dual-torus grid (overlap-determinant link variables, principal
argument per plaquette, rounded total), on grids that keep every plaquette
flux below pi/2.  Plaquette circulation is fixed so
that the generator dual to ds^dt evaluates to +1; under this declared
orientation the lowest Landau group of the magnetic Laplacian carries
(dim, c1) = (2k, -1), and an independent Wilson-loop winding oracle in the
test suite confirms the sign on the flux-1/3 hopping model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FluxNotAdmissible, GaugeNotCellPeriodic, LiftNotCertified,
                     NonConstantRank, NonTorusGeometry, NoUniformGap, SingularOverlap)
from .model import (GaugeField, MagneticLattice, _assemble, assemble_bulk, cell_gauge,
                    cell_lift_phases, twist_seams)
from .spectral import (SpectralInterval, SpectrumReport, residual_tolerance,
                       spectrum_report)

ORIENTATION = "ds_wedge_dt_positive"
OVERLAP_SINGULAR_TOL = 1e-8
FIBER_RESIDUAL_FACTOR = 1e-10
FLUX_ADMISSIBLE = np.pi / 2


@dataclass(frozen=True)
class BlochGrid:
    """Uniform grid (a/n_s, b/n_t) on the dual torus."""

    n_s: int
    n_t: int

    def __post_init__(self):
        if self.n_s < 4 or self.n_t < 4:
            raise ValueError("grid needs n_s, n_t >= 4")

    def points(self):
        for a in range(self.n_s):
            for b in range(self.n_t):
                yield a, b, a / self.n_s, b / self.n_t


@dataclass(frozen=True, eq=False)
class BandData:
    """Eigendecompositions of a fiber family with certified band groups.

    energies: (n_s, n_t, m) ascending per fiber; frames: (n_s, n_t, m, m)
    orthonormal columns.  band_groups are (start, stop) index ranges whose
    bounding inter-band gaps are fiber-uniformly >= group_threshold;
    uniform_gaps[b] = min over the grid of energies[..., b+1] - energies[..., b].
    """

    lattice: MagneticLattice
    construction_gauge: str
    grid: BlochGrid
    energies: np.ndarray
    frames: np.ndarray
    uniform_gaps: np.ndarray
    group_threshold: float
    band_groups: tuple
    max_residual: float

    def group_boundaries(self) -> set:
        bounds = {0, self.energies.shape[2]}
        for (a, b) in self.band_groups:
            bounds.add(a)
            bounds.add(b)
        return bounds


@dataclass(frozen=True, eq=False)
class ChernResult:
    """Integer invariant of a band group from plaquette Berry fluxes."""

    band_group: tuple
    plaquette_flux: np.ndarray
    chern: int
    dim: int
    max_flux: float
    total_over_2pi: float
    grid: BlochGrid
    orientation: str = ORIENTATION


# ---------------------------------------------------------------------------
# fibers


def _check_gauge(lattice: MagneticLattice, gauge: GaugeField) -> None:
    """The fiber construction trusts the named gauge formulas on the base cell."""
    if gauge.gauge_kind not in ("landau", "symmetric"):
        raise GaugeNotCellPeriodic(
            f"no cell-periodic reduction for gauge kind {gauge.gauge_kind!r}")
    q, k = lattice.q, lattice.k
    ni, nj = min(q, lattice.n_x - 1), min(q, lattice.n_y - 1)
    i, j = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
    # exponents in units of 1/q^2: Landau (0, -Phi*i), symmetric (Phi*j/2, -Phi*i/2)
    if gauge.gauge_kind == "landau":
        num_x, num_y = 0 * j, -2 * k * i
    else:
        num_x, num_y = k * j, -k * i
    q2 = q * q
    dev = max(np.abs(gauge.phase_x[:ni, :nj]
                     - np.exp(2j * np.pi * (num_x % q2 / q2))).max(initial=0.0),
              np.abs(gauge.phase_y[:ni, :nj]
                     - np.exp(2j * np.pi * (num_y % q2 / q2))).max(initial=0.0))
    if dev > 1e-12:
        raise GaugeNotCellPeriodic(
            "stored link phases deviate from the cell-periodic gauge formula")


def _fiber_gauge(lattice: MagneticLattice, gauge_kind: str, s: float, t: float) -> GaugeField:
    """The one-cell torus gauge with its seams twisted by e^{2*pi*i*s}, e^{2*pi*i*t}."""
    return twist_seams(cell_gauge(lattice.k, lattice.q, gauge_kind),
                       np.exp(2j * np.pi * s), np.exp(2j * np.pi * t))


def fiber_hamiltonian(lattice: MagneticLattice, gauge: GaugeField,
                      point: tuple[float, float]) -> np.ndarray:
    """q^2 x q^2 Bloch fiber of the bulk stencil at dual-torus point (s, t).

    The stencil on the one-cell torus, whose seam links carry the magnetic
    translation cocycle of the gauge, twisted by e^{2*pi*i*s} (x seam) and
    e^{2*pi*i*t} (y seam).
    """
    _check_gauge(lattice, gauge)
    s, t = point
    cell = MagneticLattice(lattice.k, lattice.q, 1, 1, "torus", lattice.potential)
    return _assemble(cell, _fiber_gauge(lattice, gauge.gauge_kind, s, t),
                     None, {}).matrix.toarray()


def torus_spectrum(lattice: MagneticLattice, gauge: GaugeField, *,
                   cluster_tol: float | None = None,
                   keep_vectors: bool = False) -> SpectrumReport:
    """Complete certified torus spectrum from its cells_x * cells_y Bloch fibers.

    The fiber at (a/cells_x, b/cells_y) is diagonalized densely and each
    eigenvector phi is lifted to psi = chi * phi / sqrt(cells) on the torus,
    with chi the ratio of fiber to torus link phases
    (:func:`gapfill.model.cell_lift_phases`).  Every lifted pair is certified
    on the assembled torus operator, ||H psi - lambda psi|| <= 1e-9 ||H||
    (LiftNotCertified otherwise).  The cells_x * cells_y fibers give q^2
    pairs each, n in all, and lifts of distinct fibers carry distinct Bloch
    characters and are orthogonal, so the certified pairs are the whole
    spectrum.  One fiber block of n x q^2 is held at a
    time; the n x n eigenvector matrix is built only for keep_vectors.
    """
    if lattice.geometry != "torus":
        raise NonTorusGeometry(f"torus_spectrum needs torus geometry, got {lattice.geometry}")
    op = assemble_bulk(lattice, gauge)
    q, cx, cy = lattice.q, lattice.cells_x, lattice.cells_y
    cell_rows = (op.sites[:, 0] % q) * q + op.sites[:, 1] % q
    values, residuals, blocks = [], [], []
    for a in range(cx):
        for b in range(cy):
            s, t = a / cx, b / cy
            w, v = np.linalg.eigh(fiber_hamiltonian(lattice, gauge, (s, t)))
            chi = cell_lift_phases(gauge, _fiber_gauge(lattice, gauge.gauge_kind, s, t))
            psi = (chi.ravel() / np.sqrt(cx * cy))[:, None] * v[cell_rows]
            values.append(w)
            residuals.append(np.linalg.norm(op.matrix @ psi - psi * w, axis=0))
            if keep_vectors:
                blocks.append(psi)
    w = np.concatenate(values)
    res = np.concatenate(residuals)
    order = np.argsort(w, kind="stable")
    report = spectrum_report(w[order], res[order],
                             np.hstack(blocks)[:, order] if keep_vectors else None,
                             cluster_tol=cluster_tol)
    tol = residual_tolerance(report.norm_bound)
    if res.max() > tol:
        raise LiftNotCertified(
            f"lifted fiber residual {res.max():.3e} above {tol:.3e} "
            "(torus gauge and fibers disagree on a Wilson loop or plaquette flux)")
    return report


# ---------------------------------------------------------------------------
# band structure


def band_structure(lattice: MagneticLattice, gauge: GaugeField, grid: BlochGrid,
                   group_threshold: float | None = None) -> BandData:
    """Dense eigendecomposition per fiber with fiber-uniform band grouping.

    group_threshold defaults to 1e-3 times the Gershgorin enclosure width of
    the fibers.  Groups are maximal index ranges separated by uniform gaps
    >= threshold; if the spectrum admits no internal split the single group
    spanning all bands is returned (chern_fhs then raises NoUniformGap for
    any proper subrange).
    """
    m = lattice.q ** 2
    energies = np.empty((grid.n_s, grid.n_t, m))
    frames = np.empty((grid.n_s, grid.n_t, m, m), complex)
    max_res = 0.0
    for a, b, s, t in grid.points():
        fiber = fiber_hamiltonian(lattice, gauge, (s, t))
        w, v = np.linalg.eigh(fiber)
        energies[a, b] = w
        frames[a, b] = v
        res = np.linalg.norm(fiber @ v - v * w, axis=0).max()
        max_res = max(max_res, float(res))
    fiber_norm = float(np.abs(energies).max())
    if max_res > FIBER_RESIDUAL_FACTOR * max(fiber_norm, 1.0):
        raise RuntimeError(f"fiber residual {max_res:.3e} above certificate")

    # enclosure width from the Gershgorin bound of the stencil
    hi2 = float(lattice.q) ** 2
    width = 16.0 * hi2 + 2.0 * lattice.w_norm
    threshold = group_threshold if group_threshold is not None else 1e-3 * width
    if m > 1:
        uniform = (energies[:, :, 1:] - energies[:, :, :-1]).min(axis=(0, 1))
    else:
        uniform = np.zeros(0)
    bounds = [0] + [b + 1 for b in range(m - 1) if uniform[b] >= threshold] + [m]
    groups = tuple((bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1))
    return BandData(lattice, gauge.gauge_kind, grid, energies, frames,
                    uniform, threshold, groups, max_res)


# ---------------------------------------------------------------------------
# chern numbers


def _fhs_flux(frames: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Plaquette Berry fluxes of the frame columns [lo, hi) over the grid.

    Circulation follows the declared ds^dt-positive orientation: the loop
    runs p -> p+t -> p+s+t -> p+s -> p.  Each link variable is the
    determinant of the overlap matrix of the group frames (LU pivoting via
    numpy.linalg.det); SingularOverlap below 1e-8 modulus.
    """
    n_s, n_t = frames.shape[0], frames.shape[1]
    flux = np.empty((n_s, n_t))
    sub = frames[:, :, :, lo:hi]

    def link(fa, fb):
        d = np.linalg.det(fa.conj().T @ fb)
        if abs(d) < OVERLAP_SINGULAR_TOL:
            raise SingularOverlap(f"overlap determinant modulus {abs(d):.2e} < 1e-8")
        return d / abs(d)

    for a in range(n_s):
        for b in range(n_t):
            f00 = sub[a, b]
            f01 = sub[a, (b + 1) % n_t]
            f11 = sub[(a + 1) % n_s, (b + 1) % n_t]
            f10 = sub[(a + 1) % n_s, b]
            u1 = link(f00, f01)
            u2 = link(f01, f11)
            u3 = link(f11, f10)
            u4 = link(f10, f00)
            flux[a, b] = np.angle(u1 * u2 * u3 * u4)
    return flux


def plaquette_berry_flux(frames: np.ndarray) -> np.ndarray:
    """Plaquette Berry fluxes of an explicit frame family (n_s, n_t, m, d).

    Exposed for cross-checking external families (e.g. hopping-model
    oracles) under the same declared orientation.
    """
    return _fhs_flux(frames, 0, frames.shape[3])


def chern_fhs(bands: BandData, group: tuple[int, int]) -> ChernResult:
    """Integer Chern number of a certified band group by plaquette flux summation."""
    lo, hi = group
    bounds = bands.group_boundaries()
    if lo not in bounds or hi not in bounds or not lo < hi:
        raise NoUniformGap(f"band range [{lo}, {hi}) is not bounded by certified uniform gaps")
    return _chern_result(_fhs_flux(bands.frames, lo, hi), (lo, hi), bands.grid)


def _chern_result(flux: np.ndarray, group: tuple, grid: BlochGrid) -> ChernResult:
    """Certify a plaquette-flux field and round its total to the Chern number.

    Every |flux| must stay below pi/2 (Luscher's admissibility bound: then
    the principal arguments sum to the bundle's winding).  The total of
    principal arguments is 2*pi times an integer for any frame family, so
    the integrality check only catches rounding.
    """
    max_flux = float(np.abs(flux).max())
    if max_flux >= FLUX_ADMISSIBLE:
        raise FluxNotAdmissible(
            f"max plaquette flux {max_flux:.4f} reaches pi/2 (margin "
            f"{FLUX_ADMISSIBLE - max_flux:.3e}); refine the grid")
    total = float(flux.sum() / (2.0 * np.pi))
    chern = int(np.rint(total))
    if abs(total - chern) > 1e-6:
        raise SingularOverlap(
            f"plaquette flux total {total:.8f} is not integral to 1e-6 (grid too coarse)")
    return ChernResult(group, flux, chern, group[1] - group[0], max_flux, total, grid)


def invariant_pair(lattice: MagneticLattice, gauge: GaugeField,
                   interval: SpectralInterval,
                   grid: BlochGrid = BlochGrid(16, 16)) -> tuple[int, int]:
    """(dim, c1) of the spectral projection onto a fiber-uniform interval."""
    res = invariant_pair_result(lattice, gauge, interval, grid)
    return res.dim, res.chern


def invariant_pair_result(lattice: MagneticLattice, gauge: GaugeField,
                          interval: SpectralInterval,
                          grid: BlochGrid = BlochGrid(16, 16)) -> ChernResult:
    """Full ChernResult for the fiber-uniform interval (see invariant_pair).

    dim is the in-interval fiber eigenvalue count, which must be constant
    over the grid along with the count below the interval (NonConstantRank
    otherwise); chern is the plaquette-flux sum of the corresponding frame
    columns under the declared orientation.  Only the in-interval frame
    columns are kept, so large fibers stay within desk memory.
    """
    _check_gauge(lattice, gauge)
    m = lattice.q ** 2
    counts_in = np.empty((grid.n_s, grid.n_t), int)
    counts_below = np.empty((grid.n_s, grid.n_t), int)
    sub = {}
    edge_dist = np.inf
    w_norm = 0.0
    for a, b, s, t in grid.points():
        w, v = np.linalg.eigh(fiber_hamiltonian(lattice, gauge, (s, t)))
        below = int((w < interval.lower).sum())
        inside = int(((w > interval.lower) & (w < interval.upper)).sum())
        counts_below[a, b] = below
        counts_in[a, b] = inside
        sub[(a, b)] = v[:, below:below + inside].copy()
        edge_dist = min(edge_dist,
                        float(np.abs(w - interval.lower).min()),
                        float(np.abs(w - interval.upper).min()))
        w_norm = max(w_norm, float(np.abs(w).max()))

    endpoint_tol = FIBER_RESIDUAL_FACTOR * max(w_norm, 1.0)
    if edge_dist <= endpoint_tol:
        raise NonConstantRank(
            f"a fiber eigenvalue is {edge_dist:.3e} from an interval endpoint "
            f"(within the fiber residual tolerance {endpoint_tol:.3e})")
    if counts_in.min() != counts_in.max():
        raise NonConstantRank(
            f"in-interval count varies over the grid ({counts_in.min()}..{counts_in.max()})")
    if counts_below.min() != counts_below.max():
        raise NonConstantRank(
            f"count below the interval varies over the grid "
            f"({counts_below.min()}..{counts_below.max()})")
    dim = int(counts_in[0, 0])
    below = int(counts_below[0, 0])
    if dim == 0:
        return ChernResult((below, below), np.zeros((grid.n_s, grid.n_t)), 0, 0,
                           0.0, 0.0, grid)
    frames = np.empty((grid.n_s, grid.n_t, m, dim), complex)
    for (a, b), v in sub.items():
        frames[a, b] = v
    return _chern_result(_fhs_flux(frames, 0, dim), (below, below + dim), grid)
