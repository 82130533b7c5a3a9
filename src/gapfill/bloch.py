"""Magnetic Bloch-Floquet reduction and the invariant pair (dim, c1).

The flux through one continuum unit cell is the integer 2k, so the q x q
site cell is a magnetic unit cell: the bulk operator commutes with magnetic
translations by one cell, and the torus operator decomposes exactly into
q^2-dimensional fibers over the dual torus.  The fiber at (s, t) is the
window stencil of :mod:`gapfill.model` on the one-cell torus, with its seam
links twisted by e^{2*pi*i*s} / e^{2*pi*i*t}
(:func:`gapfill.model.twist_seams`).  The Wilson-pinned seam links of that
cell already carry the translation cocycle of the gauge, without which the
fiber family would violate the plaquette flux at the cell boundary.

The first Chern number of a band group is computed by plaquette Berry
fluxes on the dual-torus grid (overlap-determinant link variables, principal
argument per plaquette, rounded total).  Plaquette circulation is fixed so
that the generator dual to ds^dt evaluates to +1; under this declared
orientation the lowest Landau group of the magnetic Laplacian carries
(dim, c1) = (2k, -1), and an independent Wilson-loop winding oracle in the
test suite confirms the sign on the flux-1/3 hopping model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (GaugeNotCellPeriodic, NonConstantRank, NoUniformGap,
                     SingularOverlap)
from .model import (GaugeField, MagneticLattice, _assemble, _phase, build_gauge,
                    twist_seams)
from .spectral import SpectralInterval

ORIENTATION = "ds_wedge_dt_positive"
OVERLAP_SINGULAR_TOL = 1e-8
FIBER_RESIDUAL_FACTOR = 1e-10


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
class FiberFamily:
    """Dense Hermitian fibers over the dual-torus grid.

    fibers has shape (n_s, n_t, q^2, q^2); lipschitz is the measured bound
    ||H(p) - H(p')|| / dist(p, p') over adjacent grid points.
    """

    lattice: MagneticLattice
    construction_gauge: str
    grid: BlochGrid
    fibers: np.ndarray
    lipschitz: float


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
    lipschitz: float

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
    q = lattice.q
    phi = lattice.flux_per_plaquette
    for i in range(min(q, lattice.n_x - 1)):
        for j in range(min(q, lattice.n_y - 1)):
            if gauge.gauge_kind == "landau":
                ref_x, ref_y = Fraction(0), -phi * i
            else:
                ref_x, ref_y = phi * j / 2, -phi * i / 2
            if abs(gauge.phase_x[i, j] - _phase(ref_x)) > 1e-12 or \
               abs(gauge.phase_y[i, j] - _phase(ref_y)) > 1e-12:
                raise GaugeNotCellPeriodic(
                    "stored link phases deviate from the cell-periodic gauge formula")


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
    twisted = twist_seams(build_gauge(cell, gauge.gauge_kind),
                          np.exp(2j * np.pi * s), np.exp(2j * np.pi * t))
    return _assemble(cell, twisted, None, {}).matrix.toarray()


def fiber_family(lattice: MagneticLattice, gauge: GaugeField, grid: BlochGrid,
                 workers: int = 1) -> FiberFamily:
    """All fibers over the grid, with the measured Lipschitz bound."""
    q2 = lattice.q ** 2
    fibers = np.empty((grid.n_s, grid.n_t, q2, q2), complex)
    points = [(a, b, s, t) for (a, b, s, t) in grid.points()]

    def build(p):
        a, b, s, t = p
        return a, b, fiber_hamiltonian(lattice, gauge, (s, t))

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as ex:
            for a, b, m in ex.map(build, points):
                fibers[a, b] = m
    else:
        for p in points:
            a, b, m = build(p)
            fibers[a, b] = m
    lip = 0.0
    for a in range(grid.n_s):
        for b in range(grid.n_t):
            da = np.linalg.norm(fibers[(a + 1) % grid.n_s, b] - fibers[a, b], 2)
            db = np.linalg.norm(fibers[a, (b + 1) % grid.n_t] - fibers[a, b], 2)
            lip = max(lip, da * grid.n_s, db * grid.n_t)
    return FiberFamily(lattice, gauge.gauge_kind, grid, fibers, lip)


# ---------------------------------------------------------------------------
# band structure


def band_structure(lattice: MagneticLattice, gauge: GaugeField, grid: BlochGrid,
                   group_threshold: float | None = None, workers: int = 1) -> BandData:
    """Dense eigendecomposition per fiber with fiber-uniform band grouping.

    group_threshold defaults to 1e-3 times the Gershgorin enclosure width of
    the fibers.  Groups are maximal index ranges separated by uniform gaps
    >= threshold; if the spectrum admits no internal split the single group
    spanning all bands is returned (chern_fhs then raises NoUniformGap for
    any proper subrange).
    """
    family = fiber_family(lattice, gauge, grid, workers=workers)
    m = lattice.q ** 2
    energies = np.empty((grid.n_s, grid.n_t, m))
    frames = np.empty((grid.n_s, grid.n_t, m, m), complex)
    max_res = 0.0
    for a in range(grid.n_s):
        for b in range(grid.n_t):
            w, v = np.linalg.eigh(family.fibers[a, b])
            energies[a, b] = w
            frames[a, b] = v
            res = np.linalg.norm(family.fibers[a, b] @ v - v * w, axis=0).max()
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
                    uniform, threshold, groups, max_res, family.lipschitz)


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
    flux = _fhs_flux(bands.frames, lo, hi)
    total = float(flux.sum() / (2.0 * np.pi))
    chern = int(np.rint(total))
    if abs(total - chern) > 1e-6:
        raise SingularOverlap(
            f"plaquette flux total {total:.8f} is not integral to 1e-6 (grid too coarse)")
    return ChernResult(group, flux, chern, hi - lo, float(np.abs(flux).max()),
                       total, bands.grid)


def invariant_pair(lattice: MagneticLattice, gauge: GaugeField,
                   interval: SpectralInterval, grid: BlochGrid = BlochGrid(16, 16),
                   workers: int = 1) -> tuple[int, int]:
    """(dim, c1) of the spectral projection onto a fiber-uniform interval."""
    res = invariant_pair_result(lattice, gauge, interval, grid, workers)
    return res.dim, res.chern


def invariant_pair_result(lattice: MagneticLattice, gauge: GaugeField,
                          interval: SpectralInterval,
                          grid: BlochGrid = BlochGrid(16, 16),
                          workers: int = 1) -> ChernResult:
    """Full ChernResult for the fiber-uniform interval (see invariant_pair).

    dim is the in-interval fiber eigenvalue count, which must be constant
    over the grid along with the count below the interval (NonConstantRank
    otherwise); chern is the plaquette-flux sum of the corresponding frame
    columns under the declared orientation.  Only the in-interval frame
    columns are kept, so large fibers stay within desk memory.
    """
    _check_gauge(lattice, gauge)
    m = lattice.q ** 2
    points = [(a, b, s, t) for (a, b, s, t) in grid.points()]

    def solve(p):
        a, b, s, t = p
        w, v = np.linalg.eigh(fiber_hamiltonian(lattice, gauge, (s, t)))
        return a, b, w, v

    counts_in = np.empty((grid.n_s, grid.n_t), int)
    counts_below = np.empty((grid.n_s, grid.n_t), int)
    sub = {}
    edge_dist = np.inf

    def ingest(a, b, w, v):
        nonlocal edge_dist
        below = int((w < interval.lower).sum())
        inside = int(((w > interval.lower) & (w < interval.upper)).sum())
        counts_below[a, b] = below
        counts_in[a, b] = inside
        sub[(a, b)] = v[:, below:below + inside].copy()
        edge_dist = min(edge_dist,
                        float(np.abs(w - interval.lower).min()),
                        float(np.abs(w - interval.upper).min()))

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as ex:
            for a, b, w, v in ex.map(solve, points):
                ingest(a, b, w, v)
    else:
        for p in points:
            a, b, w, v = solve(p)
            ingest(a, b, w, v)

    if edge_dist == 0.0:
        raise NonConstantRank("a fiber eigenvalue sits exactly on an interval endpoint")
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
    flux = _fhs_flux(frames, 0, dim)
    total = float(flux.sum() / (2.0 * np.pi))
    chern = int(np.rint(total))
    if abs(total - chern) > 1e-6:
        raise SingularOverlap(
            f"plaquette flux total {total:.8f} is not integral to 1e-6 (grid too coarse)")
    return ChernResult((below, below + dim), flux, chern, dim,
                       float(np.abs(flux).max()), total, grid)
