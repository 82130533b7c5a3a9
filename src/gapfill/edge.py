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
|TH - HT| and of the chain entries off the tridiagonal band,
LiftNotCertified), the Sturm counts checked against the eigenvalues
(CountNotCertified) and the residual of every lifted vector on the
assembled block (ResidualNotCertified).
Every other block (balls, graph edges, P > 1, a W that varies along x)
is solved on the banded route: a LAPACK band, inverse iteration and
block LDL^H inertia counts.

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

from dataclasses import dataclass

import numpy as np

from .errors import (BandConnectionAmbiguous, CountNotCertified, EmptyRegion,
                     LiftNotCertified, MarginTooSmall, StripTooNarrow)
from .model import (GaugeField, HalfPlaneShape, HermitianOperator, MagneticLattice,
                    RegionMask, StencilPattern, _stencil_pattern, cell_gauge,
                    cell_lift_phases, mask_from_member, twist_seams, window_member)
from .spectral import (ChainOperator, SpectralInterval, _certified, _cluster, banded,
                       certify_counts, residual_tolerance)

FLOW_CONVENTIONS = {
    "kappa_wrap_phase": "exp(+i*kappa) per x-period of solver.period_cells cells in +x",
    "crossing_sign": "sign of dE/dkappa at the crossing",
    "edge_assignment": ">= 60% mass on the assigned half of the region",
}
HEADROOM_CELLS = 1  # vacuum cells above the highest point of the shape
GAP_SAMPLE_INSET = 0.05  # gap samples stay this fraction of the gap width inside it
FLOW_WINDOW = 0.35  # flow window half-width, in Landau-level spacings 8*pi*max(k, 1)


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
    built from the entries of H for all m at once.  The split is certified
    by the largest row sum of |TH - HT|, plus ||H|| times the spread of
    lambda over the rows, plus the largest row sum of the entries of any
    C_m off its tridiagonal band: LiftNotCertified, naming the first
    failing momentum, if their sum exceeds residual_tolerance(||H||), ||H||
    bounded by the largest absolute row sum.  Row sums bound the norms
    Weyl's inequality needs, since T H T^H - H (whose norm is that of
    TH - HT) and the off-band part of C_m are Hermitian.  A mask that the
    shift changes is refused (LiftNotCertified) before any of these is
    formed.

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
    chi = cell_lift_phases(gauge, GaugeField(cells, gauge.gauge_kind,
                                             np.roll(gauge.phase_x, 1, axis=-2),
                                             np.roll(gauge.phase_y, 1, axis=-2)))
    t = chi[:, ix, iy]
    # (TH - HT)[i, src[j]] = t_i H[src[i], src[j]] - H[i, j] t_j over the
    # entries (i, j) of H: a mask the shift keeps has a pattern it keeps
    rows, cols = pattern.rows, pattern.indices
    moved = np.searchsorted(rows * n + cols, src[rows] * n + src[cols])
    # up to unit phases the entries of T H T^H - H, Hermitian: row sums bound its norm
    defect = np.add.reduceat(np.abs(t[:, rows] * data[:, moved] - data * t[:, cols]),
                             pattern.indptr[:-1], axis=1).max(axis=1)
    c = np.cumprod(np.concatenate([np.ones_like(chi[:, :1]), chi[:, 1:]], axis=1), axis=1)
    lines, line = np.unique(iy, return_inverse=True)
    lam = (c[:, -1] * chi[:, 0])[:, lines]
    theta = (np.angle(lam[:, :1]) + 2.0 * np.pi * np.arange(q)) / q
    # basis[i, m, k] = B_m[i, line[i]] at kappas[k]: with the momentum axis
    # last, each product below runs over all momenta of an (entry, chain)
    basis = np.exp(-1j * (np.arange(cells.n_x)[:, None, None] * theta.T))[ix]
    basis *= (c[:, ix, iy] / np.sqrt(q)).T[:, None, :]
    # C_m[r, s] accumulates conj(B_m[i, r]) H[i, j] B_m[j, s] over the entries
    # in CSR order, pass k adding the k-th entry of every (r, s).  The (r, s)
    # are held most entries first, so those that pass k reaches lead.
    keys, at, counts = np.unique(line[rows] * len(lines) + line[cols],
                                 return_inverse=True, return_counts=True)
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
    r, s = np.divmod(keys, len(lines))
    diagonal = np.zeros((len(data), q, len(lines)))
    diagonal[:, :, r[r == s]] = chains[:, :, r == s].real
    coupling = np.zeros((len(data), q, len(lines) - 1), complex)
    coupling[:, :, s[r == s + 1]] = chains[:, :, r == s + 1]
    far = np.abs(r - s) > 1  # C_m is Hermitian: off-band row sums bound that part's norm
    off_band = (np.abs(chains[:, :, far]) @ (r[far, None] == np.arange(len(lines)))
                ).max(axis=(1, 2), initial=0.0)
    norm = np.add.reduceat(np.abs(data), pattern.indptr[:-1], axis=1).max(axis=1)  # >= ||H||
    spread = norm * np.abs(lam - lam[:, :1]).max(axis=1)
    total = defect + spread + off_band
    tol = np.array([residual_tolerance(float(x)) for x in norm])
    failing = np.flatnonzero(total > tol)
    if len(failing):
        m = failing[0]
        raise LiftNotCertified(
            f"at kappa {kappas[m]:.6g}: one-site translation defect {defect[m]:.3e} + "
            f"lambda spread {spread[m]:.3e} + off-band chain entry {off_band[m]:.3e} "
            f"exceeds {tol[m]:.3e} by {total[m] - tol[m]:.3e}")
    return [ChainOperator(pattern.operator(data[m]), diagonal[m], coupling[m], basis[:, :, m],
                          line) for m in range(len(data))]


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
    momentum, the dispersion indices, energies and lower-half masses of the
    bands inside the analysis window |E - e_ref| <= window_halfwidth
    (eigenvectors are only computed there);
    solver is the record of the momentum blocks' own solve (Harper chains
    or banded, with their sizes) plus the block count and x-period.
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
    its Harper chains or of its band for its whole dispersion row; the
    window count is certified by the counts at the window ends
    (CountNotCertified otherwise), and only the window
    bands get eigenvectors, by inverse iteration, each cluster of them
    closer than the residual tolerance turned into its lower-half mass
    basis (:func:`_mass_basis`).  Window energies are the block eigenvalues
    themselves.  Bands inside the window
    |E - e_ref| <= FLOW_WINDOW * 8*pi*max(k, 1) are continued between
    consecutive momenta by maximal eigenvector overlap (optimal assignment);
    a crossing pair with overlap below 0.5 raises BandConnectionAmbiguous.
    Crossings are assigned to the lower/upper edge by >= 60% mass on the
    corresponding half of the region, signed by the slope, and summed per
    edge: net_flow on the lower edge, net_flow_upper on the upper edge.
    """
    from scipy.optimize import linear_sum_assignment
    lat = strip.lattice
    k = lat.k
    if e_ref is None:
        e_ref = 4.0 * np.pi * max(k, 1)
    window_halfwidth = FLOW_WINDOW * 8.0 * np.pi * max(k, 1)
    mask = strip_mask(strip)
    cells = _period_lattice(mask)
    kappas = 2.0 * np.pi * np.arange(n_kappa) / n_kappa
    lo, hi = e_ref - window_halfwidth, e_ref + window_halfwidth
    region_mid = 1.0 + strip.width_cells / 2.0

    energies_all = []
    win_bands, win_vals, win_vecs, win_mass = [], [], [], []
    for b in _strip_blocks(strip, mask, kappas):
        w = b.eigenvalues
        certify_counts(b, (lo, hi))
        window = np.flatnonzero((w > lo) & (w <= hi))
        lower_rows = b.op.sites[:, 1] * lat.h < region_mid
        v = _mass_basis(b, window, b.vectors(window)[0], lower_rows)
        energies_all.append(w)
        win_bands.append(window)
        win_vals.append(w[window])
        win_vecs.append(v)
        win_mass.append((np.abs(v[lower_rows]) ** 2).sum(axis=0))
    dispersion = np.array(energies_all)

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
                                          sign, edge, float(mass_lower)))
    net_lower = sum(c.sign for c in crossings if c.edge == "lower")
    net_upper = sum(c.sign for c in crossings if c.edge == "upper")
    return SpectralFlowReport(kappas, dispersion, float(e_ref), tuple(crossings),
                              int(net_lower), int(net_upper),
                              dict(FLOW_CONVENTIONS), float(window_halfwidth),
                              tuple(win_bands), tuple(win_vals), tuple(win_mass),
                              dict(b.record, blocks=n_kappa, period_cells=cells.cells_x))
