"""Dirichlet strips: gap filling, edge localization and spectral flow.

A strip is periodic in x and carved by a boundary shape in y, with one cell
of vacuum below and above the region so that both edges are genuine mask
boundaries.  The strip mask has an x-period of P cells, the fewest cells
whose x-shift leaves it unchanged (W is cell-periodic, so the mask alone
decides P, and P divides length_cells).  The strip operator
block-diagonalizes exactly over the momenta kappa = 2*pi*m/(length_cells/P)
(magnetic translation by P cells), which is how gap filling checks and
band structures stay cheap.  The block at kappa is the window stencil of
:mod:`gapfill.model` on the P-cell-wide strip, whose x seam links carry the
Landau translation cocycle, twisted by e^{i*kappa}
(:func:`gapfill.model.twist_seams`); the unitary equivalence with the
assembled strip matrix is exercised directly by the test suite.  A flat or
graph edge has P = 1; a strip whose decorations repeat only once along its
length has P = length_cells and one block at kappa = 0, the strip operator
itself.  All momenta of a strip are formed in one pass: the stencil
pattern of one x-period once, the twisted gauges of every momentum as one
batch and every block's entries from one call, each block bit for bit the
block of its momentum alone (:func:`_momentum_blocks`).  Each block gives
all its eigenvalues without vectors, eigenvectors only where a verdict or
a band continuation needs one, residual certificates on those vectors and
inertia counts on every eigenvalue count a verdict rests on.

When the mask and W do not change under a one-site x-shift (a flat edge
with W = 0 or W depending on iy only; then P = 1), that shift is a
magnetic translation T of every block, and its q eigenspaces split the
block into q tridiagonal Harper chains, solved by the chain route of
:mod:`gapfill.spectral`; every momentum is split at once, as arrays
(:func:`_harper_chains`; :func:`strip_chains` splits one).  Three
certificates carry that route: the split itself (the largest row sum of
|TH - HT|, and no block entry joining y-lines more than one apart,
LiftNotCertified), the Sturm counts checked against the eigenvalues
(CountNotCertified) and the residual of every lifted vector on the
assembled block (ResidualNotCertified).
Every other block (balls, graph edges, P > 1, a W that varies along x)
is solved on the banded route: a LAPACK band, inverse iteration and
block LDL^H inertia counts.

The spectral flow follows bands on the route of its blocks.  On Harper
chains a band is its chain and its index in the chain: chains are
continued between momenta by their T eigenvalues, crossings of e_ref
read from per-chain Sturm counts, and a step is bisected until the Weyl
bound on dE/dkappa rules out a second crossing of every other band
(:func:`_chain_flow`); only the crossing states get eigenvectors.  Other
blocks give vectors to a window of bands around e_ref and pair them by
eigenvector overlap (:func:`_overlap_flow`), the only use of
scipy.optimize.

Sign conventions, recorded in every report: kappa increases along the
positive dual direction (the wrap phase is e^{+i*kappa}) and a crossing
counts with the sign of dE/dkappa.  Every flow reports both edges:
net_flow on the lower edge and net_flow_upper on the upper edge.  Under
these conventions the k=1 magnetic Laplacian carries net_flow = +1 and
net_flow_upper = -1 at mid-gap: the lower edge carries -c1 and the upper
edge +c1, for the Chern number c1 of the bands below (orientation of
:mod:`gapfill.bloch`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (BandConnectionAmbiguous, CountNotCertified, EmptyRegion,
                     LiftNotCertified, MarginTooSmall, StripTooNarrow)
from .model import (GaugeField, HalfPlaneShape, HermitianOperator, MagneticLattice,
                    RegionMask, StencilPattern, _stencil_pattern, cell_gauge,
                    cell_lift_phases, mask_from_member, twist_seams, window_member)
from .spectral import (ChainOperator, SpectralInterval, _certified, _cluster, banded,
                       certify_counts, residual_tolerance, sturm_counts)

FLOW_CONVENTIONS = {
    "kappa_wrap_phase": "exp(+i*kappa) per x-period of solver.period_cells cells in +x",
    "crossing_sign": "sign of dE/dkappa at the crossing",
    "edge_assignment": ">= 60% mass on the assigned half of the region",
    "band_continuation": "harper_chains: by chain (T eigenvalue) and index in the chain, "
                         "each step bisected until every band that does not cross keeps "
                         "|E_a - e_ref| + |E_b - e_ref| > L * dkappa (Weyl, L = 2q/P); "
                         "banded: by eigenvector overlap",
    "edge_mass_lower": "filled only for the states that got vectors: the crossing states "
                       "(harper_chains) or the window bands (banded)",
}
HEADROOM_CELLS = 1  # vacuum cells above the highest point of the shape
GAP_SAMPLE_INSET = 0.05  # gap samples stay this fraction of the gap width inside it
FLOW_WINDOW = 0.35  # flow window half-width, in Landau-level spacings 8*pi*max(k, 1)
BISECTION_DEPTH = 12  # times a grid step of the chain flow is halved, at most


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
               shape: object | None = None, potential=None) -> StripSpec:
    """StripSpec with the window sized for the shape.

    shape=None gives the flat edge y <= 1 + width_cells.  Shapes are given
    relative to the top level: HalfPlaneShape(0.25) means the flat edge
    raised by 0.25, GraphShape samples are offsets of f around the top
    level, BallsShape decorates its base (shifted the same way) and its
    centers are relative (x, dy) pairs with dy measured from the top level.
    A disk, alone or as a base, bounds no strip: UnsupportedShape.
    """
    abs_shape, extra = (shape or HalfPlaneShape(0.0)).raised(1.0 + width_cells)
    cells_y = width_cells + 2 + HEADROOM_CELLS + int(np.ceil(max(extra, 0.0)))
    lattice = MagneticLattice(k, q, length_cells, cells_y, "strip", potential)
    return StripSpec(width_cells, length_cells, abs_shape, lattice)


def strip_mask(strip: StripSpec) -> RegionMask:
    """Region mask of the strip: the shape's window members above the bottom vacuum."""
    lat = strip.lattice
    member = window_member(lat, strip.shape) & (np.arange(lat.n_y) * lat.h >= 1.0)
    if not member.any():
        raise EmptyRegion("strip mask selects no site")
    return mask_from_member(lat, member)


def _period_lattice(mask: RegionMask) -> MagneticLattice:
    """The strip lattice cut to one x-period P of its mask.

    P is the fewest cells whose x-shift leaves the mask unchanged.  It
    divides the strip length, since the shifts that fix the mask form a
    subgroup of the cyclic group of cell shifts.
    """
    lat = mask.lattice
    period = next(p for p in range(1, lat.cells_x + 1)
                  if np.array_equal(np.roll(mask.member, p * lat.q, axis=0), mask.member))
    return MagneticLattice(lat.k, lat.q, period, lat.cells_y, "strip", lat.potential)


def strip_block(strip: StripSpec, kappa: float, mask: RegionMask | None = None) -> HermitianOperator:
    """Momentum-kappa block of the strip: one x-period, wrap phase e^{i*kappa}.

    The window stencil on the strip one x-period P wide (:func:`_period_lattice`),
    whose x seam carries the Landau translation cocycle, twisted by
    e^{i*kappa}.  The block spectrum over kappa = 2*pi*m/(length_cells/P)
    reproduces the strip spectrum exactly.  It is the one-momentum case of
    :func:`_momentum_blocks`.
    """
    pattern, _, data = _momentum_blocks(mask or strip_mask(strip), [kappa])
    return pattern.operator(data[0])


def _block_gauge(cells: MagneticLattice, kappas) -> GaugeField:
    """The gauges of the block lattice cells with their x seam twisted by e^{i*kappa}.

    kappas is a sequence of momenta, whose axis the phase arrays then lead
    with (:func:`gapfill.model.twist_seams`), or one momentum.
    """
    return twist_seams(cell_gauge(cells.k, cells.q, "landau", "strip", cells.cells_y,
                                  cells.cells_x),
                       np.exp(1j * np.asarray(kappas, float)), 1.0)


def _momentum_blocks(mask: RegionMask, kappas) -> tuple[StencilPattern, GaugeField, np.ndarray]:
    """The momentum blocks at kappas: their stencil pattern, gauges and CSR data.

    The period lattice and the stencil pattern of one x-period are formed
    once, the twisted gauges of all momenta are one batch, and one
    :meth:`StencilPattern.data` call gives every block's data: row m of the
    data is the block at kappas[m], bit for bit the block of that momentum
    alone.
    """
    cells = _period_lattice(mask)
    pattern = _stencil_pattern(cells, mask.member[:cells.n_x])
    gauge = _block_gauge(cells, kappas)
    return pattern, gauge, pattern.data(gauge.phase_x, gauge.phase_y)


def strip_chains(strip: StripSpec, kappa: float, mask: RegionMask) -> ChainOperator:
    """The momentum-kappa block split into q Harper chains by the one-site x-shift.

    The one-momentum case of :func:`_harper_chains`, for a strip whose mask
    and W do not change under a one-site x-shift (:func:`_chain_route`).
    """
    return _harper_chains(*_momentum_blocks(mask, [kappa]), [kappa])[0]


def _harper_chains(pattern: StencilPattern, gauge: GaugeField, data: np.ndarray,
                   kappas) -> list:
    """The momentum blocks (row m of data at kappas[m]) split into q Harper chains.

    The one-site x-shift is a magnetic translation T of the one-cell block:
    (T v)(x) = chi(x) v(x - 1), with chi the lift phases
    (:func:`gapfill.model.cell_lift_phases`) of the shifted block gauge
    against the block gauge.  On every y-row T^q is the phase lambda, and
    T's eigenvectors B_m[(j, r), r] = mu_m^{-j} c_j(r) / sqrt(q), c_j the
    product of chi along the row up to j and mu_m^q = lambda, split the
    block into the q tridiagonal chains C_m = B_m^H H B_m (Harper chains),
    built from the entries of H for all m at once; chain m carries the T
    eigenvalue e^{i*theta_m}, theta_m = (arg lambda + 2*pi*m) / q
    (ChainOperator.theta).  The split is certified by the largest row sum
    of |TH - HT| plus ||H|| times the spread of lambda over the rows:
    LiftNotCertified, naming the first failing momentum, if their sum
    exceeds residual_tolerance(||H||), ||H|| bounded by the largest
    absolute row sum.  Row sums bound the norm Weyl's inequality needs,
    since T H T^H - H (whose norm is that of TH - HT) is Hermitian.  C_m is
    tridiagonal only if no entry of H joins y-rows more than one line
    apart; a pattern with such an entry is refused (LiftNotCertified), as
    is a mask that the shift changes, before any phase is formed.

    Every momentum is split at once, as arrays over the momenta.  The
    chain entries are accumulated pass by pass in the CSR order of the
    block entries, as one momentum's entries would be added one by one, so
    each momentum's chains are bit for bit those of that momentum alone.
    """
    cells = pattern.lattice
    q, n = cells.q, len(pattern.sites)
    ix, iy = pattern.sites[:, 0], pattern.sites[:, 1]
    # T[i, src[i]] = chi_i: row i of T v reads the site one step back in x
    src = np.roll(pattern.ids, 1, axis=0)[ix, iy]
    if (src < 0).any():
        raise LiftNotCertified(
            f"the one-site x-shift moves the strip mask: {int((src < 0).sum())} of the "
            f"{n} block sites come from outside it")
    rows, cols = pattern.rows, pattern.indices
    lines, line = np.unique(iy, return_inverse=True)
    keys, at, counts = np.unique(line[rows] * len(lines) + line[cols],
                                 return_inverse=True, return_counts=True)
    r, s = np.divmod(keys, len(lines))
    far = np.flatnonzero(np.abs(r - s) > 1)
    if len(far):
        raise LiftNotCertified(
            f"block entries join y-lines {int(r[far[0]])} and {int(s[far[0]])}, more than "
            f"one apart: the chains would not be tridiagonal")
    chi = cell_lift_phases(gauge, GaugeField(cells, gauge.gauge_kind,
                                             np.roll(gauge.phase_x, 1, axis=-2),
                                             np.roll(gauge.phase_y, 1, axis=-2)))
    t = chi[:, ix, iy]
    # (TH - HT)[i, src[j]] = t_i H[src[i], src[j]] - H[i, j] t_j over the
    # entries (i, j) of H: a mask the shift keeps has a pattern it keeps
    moved = np.searchsorted(rows * n + cols, src[rows] * n + src[cols])
    # up to unit phases the entries of T H T^H - H, Hermitian: row sums bound its norm
    defect = np.add.reduceat(np.abs(t[:, rows] * data[:, moved] - data * t[:, cols]),
                             pattern.indptr[:-1], axis=1).max(axis=1)
    c = np.cumprod(np.concatenate([np.ones_like(chi[:, :1]), chi[:, 1:]], axis=1), axis=1)
    lam = (c[:, -1] * chi[:, 0])[:, lines]
    theta = (np.angle(lam[:, :1]) + 2.0 * np.pi * np.arange(q)) / q
    # basis[i, m, k] = B_m[i, line[i]] at kappas[k]: with the momentum axis
    # last, each product below runs over all momenta of an (entry, chain)
    basis = np.exp(-1j * (np.arange(cells.n_x)[:, None, None] * theta.T))[ix]
    basis *= (c[:, ix, iy] / np.sqrt(q)).T[:, None, :]
    # C_m[r, s] accumulates conj(B_m[i, r]) H[i, j] B_m[j, s] over the entries
    # in CSR order, pass k adding the k-th entry of every (r, s).  The (r, s)
    # are held most entries first, so those that pass k reaches lead.
    order = np.argsort(at, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(len(at)) - np.searchsorted(at[order], at[order])
    held = np.empty_like(order, shape=len(keys))
    held[np.argsort(-counts, kind="stable")] = np.arange(len(keys))
    entries = np.zeros((len(keys), q, len(data)), complex)
    for k in range(counts.max()):
        e = np.flatnonzero(slot == k)
        e = e[np.argsort(held[at[e]])]
        x = basis[rows[e]]
        np.conjugate(x, out=x)
        x *= data[:, e].T[:, None, :]
        x *= basis[cols[e]]
        entries[:len(e)] += x
    chains = entries[held].transpose(2, 1, 0)
    diagonal = np.zeros((len(data), q, len(lines)))
    diagonal[:, :, r[r == s]] = chains[:, :, r == s].real
    coupling = np.zeros((len(data), q, len(lines) - 1), complex)
    coupling[:, :, s[r == s + 1]] = chains[:, :, r == s + 1]
    norm = np.add.reduceat(np.abs(data), pattern.indptr[:-1], axis=1).max(axis=1)  # >= ||H||
    spread = norm * np.abs(lam - lam[:, :1]).max(axis=1)
    total = defect + spread
    tol = np.array([residual_tolerance(float(x)) for x in norm])
    failing = np.flatnonzero(total > tol)
    if len(failing):
        m = failing[0]
        raise LiftNotCertified(
            f"at kappa {kappas[m]:.6g}: one-site translation defect {defect[m]:.3e} + "
            f"lambda spread {spread[m]:.3e} exceeds {tol[m]:.3e} by {total[m] - tol[m]:.3e}")
    return [ChainOperator(pattern.operator(data[m]), diagonal[m], coupling[m], basis[:, :, m],
                          line, theta[m]) for m in range(len(data))]


def _chain_route(mask: RegionMask) -> bool:
    """Is the one-site x-shift a symmetry of the strip: its mask and its W unchanged?"""
    w = mask.lattice.potential
    return (np.array_equal(np.roll(mask.member, 1, axis=0), mask.member)
            and np.array_equal(np.roll(w, 1, axis=0), w))


def _strip_blocks(strip: StripSpec, mask: RegionMask, kappas) -> list:
    """The solves of the momentum blocks at kappas, in order: Harper chains
    when the one-site x-shift is a symmetry of the strip, banded blocks
    otherwise, all formed from one stencil pattern and one batch of gauges
    (:func:`_momentum_blocks`)."""
    pattern, gauge, data = _momentum_blocks(mask, kappas)
    if _chain_route(mask):
        return _harper_chains(pattern, gauge, data, kappas)
    return [banded(pattern.operator(d)) for d in data]


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
    """Gap-filling verdicts: per-sample nearest-eigenvalue distances.

    solver is the record of the momentum blocks' own solve (Harper chains
    or banded, with their sizes) plus the block count and x-period.
    """

    samples: np.ndarray
    distances: np.ndarray
    pass_threshold: float
    verdicts: np.ndarray
    localization: tuple
    conventions: dict
    n_strip_eigenvalues: int
    solver: dict

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
    (the gap endpoints themselves may be spectrum).  The strip spectrum is
    the union of the momentum-block spectra, each from one values-only
    solve of its Harper chains or of its band; all blocks are formed and
    split in one pass (:func:`_strip_blocks`).
    A sample passes when |s - lambda| + r <= delta for its nearest
    eigenvalue lambda, with r the residual of lambda's inverse-iteration
    eigenvector, which bounds the distance from s to the spectrum.  A
    failing sample is certified by the block counts: no eigenvalue
    lies in [s - delta, s + delta) (CountNotCertified otherwise).  The
    n_localization states nearest mid-gap (the nearest in each block, best
    first, then the second nearest in each block, and so on) are the only
    other vectors computed, and their localization profiles are measured on
    the block against the mask of one x-period, whose boundary distances
    are those of every period of the strip.
    """
    if bulk_gap.margin <= 0:
        raise MarginTooSmall("bulk_gap must be certified (margin > 0)")
    lat = strip.lattice
    if strip.width_cells < 8 * lat.magnetic_length:
        raise StripTooNarrow(
            f"strip width {strip.width_cells} cells is below 8 magnetic lengths "
            f"(the magnetic length is {lat.magnetic_length:.3g} at k = {lat.k})")
    eps0 = GAP_SAMPLE_INSET * bulk_gap.width
    samples = np.linspace(bulk_gap.lower + eps0, bulk_gap.upper - eps0, n_samples)

    mask = strip_mask(strip)
    mid = bulk_gap.midpoint
    cells = _period_lattice(mask)
    n_blocks = strip.length_cells // cells.cells_x
    kappas = 2.0 * np.pi * np.arange(n_blocks) / n_blocks
    blocks = _strip_blocks(strip, mask, kappas)
    values = [b.eigenvalues for b in blocks]
    distances, verdicts = _verdicts(blocks, samples, delta)
    # by rank within the block, then by distance: the nearest state of every
    # block comes before the second nearest of any
    nearest = sorted((rank, abs(w[j] - mid), m, j) for m, w in enumerate(values)
                     for rank, j in enumerate(np.argsort(np.abs(w - mid), kind="stable")
                                              [:n_localization]))
    profile_mask = mask_from_member(cells, mask.member[:cells.n_x])
    profiles = []
    for (_, _, m, j) in nearest[:n_localization]:
        vec = blocks[m].vectors([j])[0][:, 0]
        profiles.append(localization_profile(blocks[m].op, (float(values[m][j]), vec),
                                             profile_mask))
    return EdgeReport(samples, distances, delta, verdicts, tuple(profiles),
                      dict(FLOW_CONVENTIONS), sum(len(w) for w in values),
                      dict(blocks[0].record, blocks=len(blocks), period_cells=cells.cells_x))


def _verdicts(blocks: list, samples: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-eigenvalue distances of the samples and their certified verdicts."""
    values = [b.eigenvalues for b in blocks]
    block_of = np.repeat(np.arange(len(values)), [len(w) for w in values])
    index_of = np.concatenate([np.arange(len(w)) for w in values])
    d = np.abs(np.concatenate(values)[None, :] - samples[:, None])
    nearest = d.argmin(axis=1)
    dist = d[np.arange(len(samples)), nearest]
    near = dist <= delta
    bound = dist.copy()
    for m in np.unique(block_of[nearest[near]]):
        pick = near & (block_of[nearest] == m)
        idx, inverse = np.unique(index_of[nearest[pick]], return_inverse=True)
        bound[pick] += blocks[m].vectors(idx)[1][inverse]
    verdicts = near & (bound <= delta)
    failing = samples[~verdicts]
    if len(failing):
        shifts = np.concatenate([failing - delta, failing + delta])
        nu = sum(b.counts(shifts) for b in blocks)
        inside = nu[len(failing):] - nu[:len(failing)]
        if inside.any():
            i = int(np.flatnonzero(inside)[0])
            raise CountNotCertified(
                f"sample {failing[i]:.12g} has no eigenpair certified within {delta}, "
                f"but the inertia count finds {int(inside[i])} eigenvalues there")
    return dist, verdicts


def _mass_basis(b, window: np.ndarray, v: np.ndarray, lower_rows: np.ndarray) -> np.ndarray:
    """The window vectors v of block b, every cluster of its window eigenvalues
    closer than tol = residual_tolerance(||H||) turned into the eigenbasis
    of its compressed lower-half mass V^H chi_lower V.

    The residual certificate does not fix a basis of such a cluster; this
    one does, so the lower-half mass of each vector and the band
    continuation do not depend on the basis the solve returned.  Turning
    mixes eigenvalues, adding up to the cluster's spread to each residual,
    so a run of spacings <= tol wider than tol / 2 is left as solved.  The
    turned vectors are certified by their residuals at their eigenvalues
    (ResidualNotCertified).
    """
    w = b.eigenvalues
    norm = float(np.abs(w).max())
    tol = residual_tolerance(norm)
    v = v.copy()
    for a, z in _cluster(w[window], tol):
        if z - a > 1 and w[window[z - 1]] - w[window[a]] <= tol / 2:
            low = v[lower_rows, a:z]
            v[:, a:z] = v[:, a:z] @ np.linalg.eigh(low.conj().T @ low)[1]
            _certified(b.op, v[:, a:z], w[window[a:z]], norm)
    return v


# ---------------------------------------------------------------------------
# spectral flow


@dataclass(frozen=True, eq=False)
class Crossing:
    """One signed crossing of the reference energy by a continued band."""

    kappa: float
    sign: int
    edge: str
    mass_lower: float


@dataclass(frozen=True, eq=False)
class SpectralFlowReport:
    """Strip dispersion with signed edge-resolved crossings of E_ref.

    window_bands[i] / window_energies[i] / window_mass_lower[i] hold, per
    grid momentum, the dispersion indices, energies and lower-half masses
    of the states that got eigenvectors: the crossing states (and the
    eigenvalues within the residual tolerance of them) on Harper chains,
    the bands inside the window |E - e_ref| <= window_halfwidth otherwise;
    solver is the record of the momentum blocks' own solve (Harper chains
    or banded, with their sizes) plus the block count and x-period, and
    on Harper chains the bisection momenta and the smallest Weyl margin.
    """

    kappas: np.ndarray
    dispersion: np.ndarray
    e_ref: float
    crossings: tuple
    net_flow: int
    net_flow_upper: int
    conventions: dict
    window_halfwidth: float
    window_bands: tuple
    window_energies: tuple
    window_mass_lower: tuple
    solver: dict


def strip_bands(strip: StripSpec, n_kappa: int, e_ref: float | None = None) -> SpectralFlowReport:
    """Dispersion over kappa in [0, 2*pi) with edge-resolved crossing counts.

    kappa is the momentum of a translation by one x-period of the strip
    (:func:`strip_block`).  All momentum blocks are formed and split in one
    pass (:func:`_strip_blocks`), and each takes one values-only solve of
    its Harper chains or of its band for its whole dispersion row.  Bands
    are continued from one momentum to the next on the route of the blocks:

    - Harper chains (:func:`_chain_flow`): each band is followed by its
      chain and its index in the chain; Sturm counts at e_ref give the
      crossings, and each grid step is bisected until the Weyl bound rules
      out a second crossing.  Only the crossing states get eigenvectors.
    - Any other block (:func:`_overlap_flow`): the window bands
      |E - e_ref| <= FLOW_WINDOW * 8*pi*max(k, 1) get eigenvectors and are
      paired by maximal eigenvector overlap (optimal assignment).

    Crossings are assigned to the lower/upper edge by >= 60% mass on the
    corresponding half of the region, averaged over the vectors of the
    crossing band at the two ends of its grid step, and each crossing state
    in a cluster of eigenvalues closer than the residual tolerance has its
    cluster turned into the lower-half mass basis first (:func:`_mass_basis`).
    The crossing kappa interpolates the band's energies at those ends
    linearly.  Crossings are signed by the slope and summed per edge:
    net_flow on the lower edge, net_flow_upper on the upper edge.
    window_bands, window_energies and window_mass_lower hold the states of
    each grid momentum that got vectors.
    """
    lat = strip.lattice
    k = lat.k
    if e_ref is None:
        e_ref = 4.0 * np.pi * max(k, 1)
    window_halfwidth = FLOW_WINDOW * 8.0 * np.pi * max(k, 1)
    mask = strip_mask(strip)
    cells = _period_lattice(mask)
    kappas = 2.0 * np.pi * np.arange(n_kappa) / n_kappa
    blocks = _strip_blocks(strip, mask, kappas)
    lower_rows = blocks[0].op.sites[:, 1] * lat.h < 1.0 + strip.width_cells / 2.0
    solver = dict(blocks[0].record, blocks=n_kappa, period_cells=cells.cells_x)
    if all(isinstance(b, ChainOperator) for b in blocks):
        crossings, window, route = _chain_flow(strip, mask, blocks, kappas, float(e_ref),
                                               lower_rows)
        solver.update(route)
    else:
        crossings, window = _overlap_flow(blocks, kappas, float(e_ref), window_halfwidth,
                                          lower_rows)
    net_lower = sum(c.sign for c in crossings if c.edge == "lower")
    net_upper = sum(c.sign for c in crossings if c.edge == "upper")
    return SpectralFlowReport(kappas, np.array([b.eigenvalues for b in blocks]),
                              float(e_ref), tuple(crossings), int(net_lower), int(net_upper),
                              dict(FLOW_CONVENTIONS), float(window_halfwidth),
                              *(tuple(x) for x in window), solver)


def _crossing(kappa: float, sign: int, mass_lower: float) -> Crossing:
    """A crossing on the edge that carries >= 60% of its mass, else unassigned."""
    if mass_lower >= 0.6:
        edge = "lower"
    elif mass_lower <= 0.4:
        edge = "upper"
    else:
        edge = "unassigned"
    return Crossing(float(kappa), sign, edge, float(mass_lower))


def _overlap_flow(blocks: list, kappas: np.ndarray, e_ref: float, halfwidth: float,
                  lower_rows: np.ndarray) -> tuple[list, tuple]:
    """Crossings of bands continued by eigenvector overlap, and the window states.

    The window count of every block is certified by its counts at the
    window ends (CountNotCertified otherwise), and only the window bands
    get eigenvectors, by inverse iteration, turned into their mass basis
    (:func:`_mass_basis`).  Window bands at consecutive momenta are paired
    by optimal assignment on their squared overlaps; a crossing pair with
    overlap below 0.5 raises BandConnectionAmbiguous.
    """
    from scipy.optimize import linear_sum_assignment
    n_kappa = len(kappas)
    lo, hi = e_ref - halfwidth, e_ref + halfwidth
    win_bands, win_vals, win_vecs, win_mass = [], [], [], []
    for b in blocks:
        w = b.eigenvalues
        certify_counts(b, (lo, hi))
        window = np.flatnonzero((w > lo) & (w <= hi))
        v = _mass_basis(b, window, b.vectors(window)[0], lower_rows)
        win_bands.append(window)
        win_vals.append(w[window])
        win_vecs.append(v)
        win_mass.append((np.abs(v[lower_rows]) ** 2).sum(axis=0))

    crossings = []
    for m in range(n_kappa):
        m2 = (m + 1) % n_kappa
        w0, w1 = win_vals[m], win_vals[m2]
        if len(w0) == 0 or len(w1) == 0:
            continue
        overlap = np.abs(win_vecs[m].conj().T @ win_vecs[m2])
        ri, ci = linear_sum_assignment(-overlap ** 2)
        for i, j in zip(ri, ci):
            e0, e1 = w0[i], w1[j]
            if (e0 - e_ref) * (e1 - e_ref) < 0.0:
                if overlap[i, j] < 0.5:
                    raise BandConnectionAmbiguous(
                        f"crossing overlap {overlap[i, j]:.3f} < 0.5 at kappa index {m}; "
                        "refine n_kappa")
                frac = (e_ref - e0) / (e1 - e0)
                crossings.append(_crossing(kappas[m] + frac * 2 * np.pi / n_kappa,
                                           1 if e1 > e0 else -1,
                                           0.5 * (win_mass[m][i] + win_mass[m2][j])))
    return crossings, (win_bands, win_vals, win_mass)


@dataclass(frozen=True, eq=False)
class _Node:
    """One momentum of the chain flow: its block, and for the chains the flow
    follows there (every chain at a grid momentum) their eigenvalues,
    ascending (values[m]), and their certified Sturm counts below e_ref
    (below[m])."""

    kappa: float
    block: ChainOperator
    values: object
    below: object


def _certify_chain_counts(kappa: float, chains, values, below, e_ref: float,
                          tol: float) -> None:
    """Each chain's Sturm count below e_ref must lie between the number of its
    values below e_ref - tol and below e_ref + tol (CountNotCertified)."""
    for m, w, nu in zip(chains, values, below):
        low, high = np.searchsorted(w, [e_ref - tol, e_ref + tol])
        if not low <= nu <= high:
            raise CountNotCertified(
                f"at kappa {kappa:.6g} the inertia counts {int(nu)} eigenvalues of chain "
                f"{int(m)} below {e_ref:.12g}, its chain solve {int(low)} "
                f"(within {tol:.1e}: {int(high)})")


def _grid_nodes(blocks: list, kappas, e_ref: float) -> tuple[list, np.ndarray]:
    """The nodes of the grid momenta, every chain followed, and the index of
    each chain eigenvalue (index[g, m, j]) in the block's eigenvalues.

    A block's chain values are its eigenvalues grouped by the chain that gave
    each, and every chain must give as many as it has sites
    (CountNotCertified otherwise).  The Sturm counts of every chain of
    every block are run at once (:func:`gapfill.spectral.sturm_counts`) and
    certified against those values.
    """
    below = sturm_counts(np.concatenate([b.diagonal for b in blocks]),
                         np.concatenate([b.coupling for b in blocks]), [e_ref])
    below = below.reshape(len(blocks), -1)
    nodes, index = [], []
    for b, kappa, nu in zip(blocks, kappas, below):
        w = b.eigenvalues
        if len(w) != b.diagonal.size:
            raise CountNotCertified(
                f"at kappa {kappa:.6g} the chain solves give {len(w)} eigenvalues for "
                f"{b.diagonal.size} chain sites")
        index.append(np.argsort(b.chains, kind="stable").reshape(b.diagonal.shape))
        values = w[index[-1]]
        _certify_chain_counts(kappa, range(len(nu)), values, nu, e_ref,
                              residual_tolerance(float(np.abs(w).max())))
        nodes.append(_Node(float(kappa), b, values, nu))
    return nodes, np.array(index)


def _kappa_lipschitz(cells: MagneticLattice) -> float:
    """L with every chain eigenvalue, followed in kappa, moving by at most L |dkappa|.

    A diagonal gauge spreads the seam twist e^{i*kappa} over the q*P
    x-links of every y-row, each then twisted by e^{i*kappa/(q*P)}.  In that
    gauge the one-site x-shift does not depend on kappa, so each chain is
    the compression of H(kappa) to a fixed subspace, and only the x-links
    depend on kappa: each of modulus h^-2 = q^2, two on every row.  So
    ||dH/dkappa|| <= 2 q^2 / (q*P), and Weyl's inequality gives L = 2q/P.
    """
    return 2.0 * cells.q / cells.cells_x


def _theta_rate(cells: MagneticLattice) -> float:
    """d theta_m / d kappa of the T eigenvalues of a block's Harper chains.

    The lift phases of T (:func:`_harper_chains`) take the seam twist
    e^{i*kappa} on the n_x - 1 sites of a row past the seam, so T^q =
    lambda carries e^{i*(n_x - 1)*kappa} and each theta_m = (arg lambda +
    2*pi*m) / q turns at (n_x - 1) / q.
    """
    return (cells.n_x - 1) / cells.q


def _continuation(a: _Node, b: _Node, rate: float) -> np.ndarray:
    """perm[m]: the chain at b whose T eigenvalue continues chain m's at a.

    The T eigenvalue of a chain turns by e^{i*rate*(b.kappa - a.kappa)}
    from a to b (:func:`_theta_rate`); the continuation is the chain at b
    within pi/q of it (BandConnectionAmbiguous if there is none).
    """
    q = len(a.block.theta)
    turn = np.angle(np.exp(1j * (b.block.theta[None, :] - a.block.theta[:, None]
                                 - rate * (b.kappa - a.kappa))))
    perm = np.abs(turn).argmin(axis=1)
    miss = float(np.abs(turn[np.arange(q), perm]).max())
    if miss >= np.pi / q or len(np.unique(perm)) < q:
        raise BandConnectionAmbiguous(
            f"no chain continuation from kappa {a.kappa:.9g} to {b.kappa:.9g}: a T "
            f"eigenvalue is {miss:.3g} from its match, pi/q = {np.pi / q:.3g}; refine n_kappa")
    return perm


def _crossing_bands(va, vb, na, nb, e_ref: float, step: float,
                    lipschitz: float) -> tuple[np.ndarray, np.ndarray]:
    """The bands of chains crossing e_ref over a step, and each chain's Weyl margin.

    va, vb are the chains' values (chains by bands) and na, nb their Sturm
    counts below e_ref at the two ends.  crossing[m, j] marks band j of
    chain m when it lies between the counts.  Every other band must keep
    |E_a - e_ref| + |E_b - e_ref| > L * step, so that it cannot reach e_ref
    in between: margin[m] is the smallest excess over the chain's other
    bands, and a chain whose margin is not positive must be bisected.
    """
    j = np.arange(va.shape[-1])
    crossing = ((j >= np.minimum(na, nb)[..., None]) & (j < np.maximum(na, nb)[..., None]))
    slack = np.where(crossing, np.inf, np.abs(va - e_ref) + np.abs(vb - e_ref))
    return crossing, slack.min(axis=-1) - lipschitz * step


def _chain_flow(strip: StripSpec, mask: RegionMask, blocks: list, kappas: np.ndarray,
                e_ref: float, lower_rows: np.ndarray) -> tuple[list, tuple, dict]:
    """Crossings of bands followed by (chain, index), the vector states and the route record.

    Chains are continued from each grid momentum to the next by their T
    eigenvalues (:func:`_continuation`) and crossings read from per-chain
    Sturm counts at e_ref (:func:`_crossing_bands`).  A chain over a grid
    step whose other bands might reach e_ref under the Weyl bound L
    (:func:`_kappa_lipschitz`) is bisected: the midpoints of one level are
    formed in one :func:`_strip_blocks` pass, only the followed chains are
    solved and counted there, and a grid step is halved at most
    BISECTION_DEPTH times (BandConnectionAmbiguous beyond that).
    Eigenvectors are computed only for the crossing states at the two ends
    of their grid step, with the eigenvalues within the residual tolerance
    of them, each such cluster turned into its mass basis; a crossing state
    in a turned cluster takes the cluster's vector with the largest overlap
    with its band's vector at the other end.  The record holds the
    bisection momenta and the smallest Weyl margin.
    """
    n_kappa = len(kappas)
    step = 2.0 * np.pi / n_kappa
    cells = _period_lattice(mask)
    lipschitz, rate = _kappa_lipschitz(cells), _theta_rate(cells)
    grid, index = _grid_nodes(blocks, kappas, e_ref)
    ends = grid[1:] + [replace(grid[0], kappa=2.0 * np.pi)]
    perm = np.array([_continuation(a, b, rate) for a, b in zip(grid, ends)])
    values = np.array([node.values for node in grid])
    below = np.array([node.below for node in grid])
    end = np.roll(np.arange(n_kappa), -1)[:, None], perm
    crossing, margin = _crossing_bands(values, values[end], below, below[end], e_ref, step,
                                       lipschitz)
    # a segment is chain m0 of grid step i, followed from node a (chain ma)
    # to node b (chain mb); those with a positive margin are final
    segments = [(i, m0, grid[i], m0, ends[i], perm[i, m0], crossing[i, m0], margin[i, m0])
                for i, m0 in zip(*np.nonzero(margin > 0))]
    pending = [(i, m0, grid[i], m0, ends[i], perm[i, m0])
               for i, m0 in zip(*np.nonzero(margin <= 0))]
    bisected = []
    for depth in range(BISECTION_DEPTH + 1):
        if not pending:
            break
        if depth == BISECTION_DEPTH:
            i, _, a, _, b, _ = pending[0]
            raise BandConnectionAmbiguous(
                f"after {BISECTION_DEPTH} bisections of the step from kappa {kappas[i]:.6g}, "
                f"a chain eigenvalue may still cross {e_ref:.12g} twice between kappa "
                f"{a.kappa:.9g} and {b.kappa:.9g}; refine n_kappa")
        pending, level = _bisect(strip, mask, pending, e_ref, lipschitz, rate)
        bisected += level
        segments += [s for s in pending if s[-1] > 0]
        pending = [s[:-2] for s in pending if s[-1] <= 0]

    # the crossing bands, with their indices at the two grid ends
    found, needed = [], [set() for _ in grid]
    for i, m0, a, ma, b, mb, cross, _ in segments:
        g1 = (i + 1) % n_kappa
        for j in np.flatnonzero(cross):
            k0, k1 = index[i, m0, j], index[g1, perm[i, m0], j]
            needed[i].add(k0)
            needed[g1].add(k1)
            found.append((i, k0, k1, a, ma, b, mb, j))

    vectors = []
    for node, want in zip(grid, needed):
        w = node.block.eigenvalues
        group = np.cumsum(np.r_[0, np.diff(w) > residual_tolerance(float(np.abs(w).max()))])
        select = np.flatnonzero(np.isin(group, group[sorted(want)]))
        v = _mass_basis(node.block, select, node.block.vectors(select)[0], lower_rows)
        vectors.append((select, group[select], v, (np.abs(v[lower_rows]) ** 2).sum(axis=0)))

    def column(g: int, k: int, other: np.ndarray) -> int:
        """The column of state k among grid momentum g's vectors; in a turned
        cluster, the cluster's column with the largest overlap with other."""
        select, group, v, _ = vectors[g]
        p = int(np.searchsorted(select, k))
        same = np.flatnonzero(group == group[p])
        if len(same) > 1:
            p = int(same[np.argmax(np.abs(v[:, same].conj().T @ other))])
        return p

    crossings, flipped = [], []
    for i, k0, k1, a, ma, b, mb, j in sorted(found, key=lambda f: (f[0], f[1], f[3].kappa)):
        g1 = (i + 1) % n_kappa
        v0 = vectors[i][2][:, np.searchsorted(vectors[i][0], k0)]
        v1 = vectors[g1][2][:, np.searchsorted(vectors[g1][0], k1)]
        masses = vectors[i][3][column(i, k0, v1)], vectors[g1][3][column(g1, k1, v0)]
        e0, e1 = grid[i].block.eigenvalues[k0], grid[g1].block.eigenvalues[k1]
        ea, eb = a.values[ma][j], b.values[mb][j]
        if max(masses) >= 0.6 and min(masses) <= 0.4:
            # the band changes edge within its grid step: it takes the edge of
            # its own state at the crossing, within the step it crosses in
            kappa = a.kappa + (e_ref - ea) / (eb - ea) * (b.kappa - a.kappa)
            flipped.append((len(crossings), kappa, a, ma, j))
        elif (e0 - e_ref) * (e1 - e_ref) < 0.0:
            kappa = kappas[i] + (e_ref - e0) / (e1 - e0) * 2 * np.pi / n_kappa
        else:  # the band crosses more than once in its grid step
            kappa = a.kappa + (e_ref - ea) / (eb - ea) * (b.kappa - a.kappa)
        sign = 1 if a.below[ma] > b.below[mb] else -1  # the count below e_ref falls
        crossings.append(_crossing(kappa, sign, 0.5 * sum(masses)))
    if flipped:
        at = [kappa for _, kappa, *_ in flipped]
        for (c, kappa, a, ma, j), block in zip(flipped, _strip_blocks(strip, mask, at)):
            m = _continuation(a, _Node(kappa, block, None, None), rate)[ma]
            v = block.vectors(np.flatnonzero(block.chains == m)[j:j + 1])[0]
            crossings[c] = _crossing(kappa, crossings[c].sign, (np.abs(v[lower_rows]) ** 2).sum())
    window = ([s for s, *_ in vectors],
              [node.block.eigenvalues[s] for node, (s, *_) in zip(grid, vectors)],
              [mass for *_, mass in vectors])
    return crossings, window, {"bisection_kappas": [float(x) for x in sorted(bisected)],
                               "weyl_margin": float(min(s[-1] for s in segments))}


def _bisect(strip: StripSpec, mask: RegionMask, pending: list, e_ref: float,
            lipschitz: float, rate: float) -> tuple[list, list]:
    """One bisection level: the halves of the pending segments, each with its
    crossing bands and margin, and the midpoint momenta.

    Every midpoint is formed in one :func:`_strip_blocks` pass; at each, only
    the chains that continue a pending segment's are solved, and their
    Sturm counts are run at once and certified against their values.
    """
    spans = list({(id(a), id(b)): (a, b) for _, _, a, _, b, _ in pending}.values())
    half = [0.5 * (a.kappa + b.kappa) for a, b in spans]
    mids = {}
    for (a, b), kappa, block in zip(spans, half, _strip_blocks(strip, mask, half)):
        mids[id(a), id(b)] = _Node(kappa, block, {}, {})
    follow = []
    for i, m0, a, ma, b, mb in pending:
        mid = mids[id(a), id(b)]
        mm = int(_continuation(a, mid, rate)[ma])
        if _continuation(mid, b, rate)[mm] != mb:
            raise BandConnectionAmbiguous(
                f"the chain continuation from kappa {a.kappa:.9g} to {b.kappa:.9g} does "
                f"not pass through its midpoint; refine n_kappa")
        follow.append(mm)
        mid.values[mm] = mid.block.chain_values(mm)
    keys = [(mid, m) for mid in mids.values() for m in mid.values]
    counts = sturm_counts(np.array([mid.block.diagonal[m] for mid, m in keys]),
                          np.array([mid.block.coupling[m] for mid, m in keys]), [e_ref])[:, 0]
    for (mid, m), nu in zip(keys, counts):
        mid.below[m] = nu
    for mid in mids.values():
        w = np.concatenate(list(mid.values.values()))
        _certify_chain_counts(mid.kappa, list(mid.values), list(mid.values.values()),
                              list(mid.below.values()), e_ref,
                              residual_tolerance(float(np.abs(w).max())))
    halves = []
    for (i, m0, a, ma, b, mb), mm in zip(pending, follow):
        mid = mids[id(a), id(b)]
        for (x, mx), (y, my) in (((a, ma), (mid, mm)), ((mid, mm), (b, mb))):
            cross, margin = _crossing_bands(x.values[mx], y.values[my], x.below[mx],
                                            y.below[my], e_ref, y.kappa - x.kappa, lipschitz)
            halves.append((i, m0, x, mx, y, my, cross, float(margin)))
    return halves, half
