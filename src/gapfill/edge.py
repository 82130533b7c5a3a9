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

One spectral flow serves both routes (:func:`_chain_flow`).  A band is
a chain and its index in the chain, a banded block being a single
chain: Harper chains are continued between momenta by their T
eigenvalues, crossings of e_ref are read from the counts of every chain
(Sturm counts on Harper chains, the inertia count of a band), and a step
is bisected until the Weyl bound on dE/dkappa rules out a second
crossing of every other band.  Only crossing states get eigenvectors.

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
from .spectral import (ChainOperator, SpectralInterval, banded, chain_counts,
                       residual_tolerance)

FLOW_CONVENTIONS = {
    "kappa_wrap_phase": "exp(+i*kappa) per x-period of solver.period_cells cells in +x",
    "crossing_sign": "sign of dE/dkappa at the crossing",
    "edge_assignment": ">= 60% of the mass of the crossing's own state at its crossing kappa "
                       "on the assigned half of the region (StripTooNarrow if neither half "
                       "holds 60%)",
    "band_continuation": "by chain and index in the chain (harper_chains: chains continued "
                         "by their T eigenvalue; banded: the block is one chain), each step "
                         "bisected until every band that does not cross keeps "
                         "|E_a - e_ref| + |E_b - e_ref| > L * dkappa (Weyl, L = 2q/P)",
}
HEADROOM_CELLS = 1  # vacuum cells above the highest point of the shape
GAP_SAMPLE_INSET = 0.05  # gap samples stay this fraction of the gap width inside it
BISECTION_DEPTH = 12  # times a grid step of the flow is halved, at most


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

    Each crossing holds the lower-half mass of its own state at its
    crossing kappa; no grid state gets a vector.  solver is the record of
    the momentum blocks' own solve (Harper chains or banded, with their
    sizes) plus the block count, the x-period, the bisection momenta and
    the smallest Weyl margin.
    """

    kappas: np.ndarray
    dispersion: np.ndarray
    e_ref: float
    crossings: tuple
    net_flow: int
    net_flow_upper: int
    conventions: dict
    solver: dict
    window_energies: tuple = ()  # always empty, no grid state gets a vector; bench reads it


def strip_bands(strip: StripSpec, n_kappa: int, e_ref: float | None = None) -> SpectralFlowReport:
    """Dispersion over kappa in [0, 2*pi) with edge-resolved crossing counts.

    kappa is the momentum of a translation by one x-period of the strip
    (:func:`strip_block`).  All momentum blocks are formed and split in one
    pass (:func:`_strip_blocks`), and each takes one values-only solve of
    its Harper chains or of its band for its whole dispersion row.  One
    flow follows the bands of either kind of block (:func:`_chain_flow`):
    a band is its chain and its index in the chain, a banded block being a
    single chain; the counts below e_ref of every chain give the crossings,
    each grid step is bisected until the Weyl bound rules out a second
    crossing, and only crossing states get eigenvectors.  Every crossing,
    on either kind of block, is assigned to the lower/upper edge by >= 60%
    of the mass of its own state at its crossing kappa on the corresponding
    half of the region; a state with between 40% and 60% on the lower half
    is refused (StripTooNarrow).  Crossings are signed by the slope and
    summed per edge: net_flow on the lower edge, net_flow_upper on the
    upper edge.
    """
    lat = strip.lattice
    if e_ref is None:
        e_ref = 4.0 * np.pi * max(lat.k, 1)
    mask = strip_mask(strip)
    cells = _period_lattice(mask)
    kappas = 2.0 * np.pi * np.arange(n_kappa) / n_kappa
    blocks = _strip_blocks(strip, mask, kappas)
    lower_rows = blocks[0].op.sites[:, 1] * lat.h < 1.0 + strip.width_cells / 2.0
    crossings, route = _chain_flow(strip, mask, blocks, kappas, float(e_ref), lower_rows)
    net_lower = sum(c.sign for c in crossings if c.edge == "lower")
    net_upper = sum(c.sign for c in crossings if c.edge == "upper")
    return SpectralFlowReport(kappas, np.array([b.eigenvalues for b in blocks]),
                              float(e_ref), tuple(crossings), int(net_lower), int(net_upper),
                              dict(FLOW_CONVENTIONS),
                              dict(blocks[0].record, blocks=n_kappa, period_cells=cells.cells_x,
                                   **route))


def _crossing(kappa: float, sign: int, m: int, j: int, mass_lower: float) -> Crossing:
    """The crossing of band j of chain m on the edge that carries >= 60% of
    its state's mass (StripTooNarrow if neither does)."""
    if 0.4 < mass_lower < 0.6:
        raise StripTooNarrow(
            f"at the crossing kappa {kappa:.9g} band {j} of chain {m} has {mass_lower:.3g} of "
            f"its mass on the lower half of the strip: its state lies on neither edge")
    return Crossing(float(kappa), sign, "lower" if mass_lower >= 0.6 else "upper",
                    float(mass_lower))


@dataclass(frozen=True, eq=False)
class _Node:
    """One momentum of the flow: its block, and for the chains the flow
    follows there (every chain at a grid momentum) their eigenvalues,
    ascending (values[m]), and their certified counts below e_ref
    (below[m])."""

    kappa: float
    block: object
    values: object
    below: object


def _certify_chain_counts(kappa: float, chains, values, below, e_ref: float,
                          tol: float) -> None:
    """Each chain's count below e_ref must lie between the number of its
    values below e_ref - tol and below e_ref + tol (CountNotCertified)."""
    for m, w, nu in zip(chains, values, below):
        low, high = np.searchsorted(w, [e_ref - tol, e_ref + tol])
        if not low <= nu <= high:
            raise CountNotCertified(
                f"at kappa {kappa:.6g} the inertia counts {int(nu)} eigenvalues of chain "
                f"{int(m)} below {e_ref:.12g}, its chain solve {int(low)} "
                f"(within {tol:.1e}: {int(high)})")


def _grid_nodes(blocks: list, kappas, e_ref: float) -> list:
    """The nodes of the grid momenta, every chain followed.

    A block's chain values are its eigenvalues grouped by the chain that
    gave each.  The counts of every chain of every block are run at once
    (:func:`gapfill.spectral.chain_counts`) and certified against those
    values, and the chains must give as many values as the block has rows
    (CountNotCertified otherwise).
    """
    n = int(blocks[0].chains.max()) + 1
    below = chain_counts([b for b in blocks for _ in range(n)], np.tile(np.arange(n), len(blocks)),
                         e_ref).reshape(len(blocks), n)
    nodes = []
    for b, kappa, nu in zip(blocks, kappas, below):
        w = b.eigenvalues
        _certify_chain_counts(kappa, range(n), [w[b.chains == m] for m in range(n)], nu, e_ref,
                              residual_tolerance(float(np.abs(w).max())))
        if len(w) != b.op.dimension:
            raise CountNotCertified(
                f"at kappa {kappa:.6g} the chain solves give {len(w)} eigenvalues for a "
                f"block of {b.op.dimension} rows")
        chain_values = w[np.argsort(b.chains, kind="stable").reshape(n, -1)]
        nodes.append(_Node(float(kappa), b, chain_values, nu))
    return nodes


def _kappa_lipschitz(cells: MagneticLattice) -> float:
    """L with every chain eigenvalue, followed in kappa, moving by at most L |dkappa|.

    A diagonal gauge spreads the seam twist e^{i*kappa} over the q*P
    x-links of every y-row, each then twisted by e^{i*kappa/(q*P)}.  Only
    x-links carry kappa, each of modulus h^-2 = q^2, at most two at a site
    whatever the strip mask: ||dH/dkappa|| <= 2 q^2 / (q*P) by row sums,
    and Weyl's inequality gives L = 2q/P for a band's sorted eigenvalues.
    In that gauge the one-site x-shift of a flat strip does not depend on
    kappa, so each Harper chain is the compression of H(kappa) to a fixed
    subspace, and L holds for it too.
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
    within pi/q of it (BandConnectionAmbiguous if there is none).  A block
    without a splitting symmetry (theta None) is one chain, continued by
    itself.
    """
    if a.block.theta is None:
        return np.zeros(1, int)
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

    va, vb are the chains' values (chains by bands) and na, nb their counts
    below e_ref at the two ends.  crossing[m, j] marks band j of chain m
    when it lies between the counts.  Every other band must keep
    |E_a - e_ref| + |E_b - e_ref| > L * step, so that it cannot reach e_ref
    in between: margin[m] is the smallest excess over the chain's other
    bands, and a chain whose margin is not positive must be bisected.
    """
    j = np.arange(va.shape[-1])
    crossing = ((j >= np.minimum(na, nb)[..., None]) & (j < np.maximum(na, nb)[..., None]))
    slack = np.where(crossing, np.inf, np.abs(va - e_ref) + np.abs(vb - e_ref))
    return crossing, slack.min(axis=-1) - lipschitz * step


def _crossing_state(block, m: int, j: int, kappa: float, e_ref: float) -> int:
    """The index among block's eigenvalues of band j of chain m, read at its crossing kappa.

    The state read must be the crossing one: band j must be its chain's
    value nearest e_ref, every other one farther from e_ref by more than
    tol = residual_tolerance(||H||), which also keeps its vector one state
    (BandConnectionAmbiguous otherwise).
    """
    distance = np.abs(block.chain_values(m) - e_ref)
    others = np.delete(distance, j)
    if len(others) and others.min() <= distance[j] + residual_tolerance(
            float(np.abs(block.eigenvalues).max())):
        raise BandConnectionAmbiguous(
            f"at the crossing kappa {kappa:.9g} band {j} of chain {m} lies {distance[j]:.3g} "
            f"from {e_ref:.12g}, another of its chain {others.min():.3g}: the state of the "
            f"crossing is not certified; refine n_kappa")
    return int(np.flatnonzero(block.chains == m)[j])


def _chain_flow(strip: StripSpec, mask: RegionMask, blocks: list, kappas: np.ndarray,
                e_ref: float, lower_rows: np.ndarray) -> tuple[list, dict]:
    """Crossings of bands followed by (chain, index) and the route record.

    A banded block is one chain, and Harper chains are continued from each
    grid momentum to the next by their T eigenvalues (:func:`_continuation`).
    Crossings are read from per-chain counts at e_ref (:func:`_crossing_bands`).
    A chain over a grid step whose other bands might reach e_ref under the
    Weyl bound L (:func:`_kappa_lipschitz`) is bisected: the midpoints of
    one level are formed in one :func:`_strip_blocks` pass, only the
    followed chains are solved and counted there, and a grid step is
    halved at most BISECTION_DEPTH times (BandConnectionAmbiguous beyond
    that).  Every crossing, on either kind of block, is read at the kappa
    interpolated in the last bisected step it crosses in: all those momenta
    are formed in one :func:`_strip_blocks` pass, and each crossing takes
    the edge of its own state there (:func:`_crossing_state`,
    :func:`_crossing`), the only eigenvector the flow computes.  The record
    holds the bisection momenta and the smallest Weyl margin.
    """
    n_kappa = len(kappas)
    step = 2.0 * np.pi / n_kappa
    cells = _period_lattice(mask)
    lipschitz, rate = _kappa_lipschitz(cells), _theta_rate(cells)
    grid = _grid_nodes(blocks, kappas, e_ref)
    ends = grid[1:] + [replace(grid[0], kappa=2.0 * np.pi)]
    perm = np.array([_continuation(a, b, rate) for a, b in zip(grid, ends)])
    values = np.array([node.values for node in grid])
    below = np.array([node.below for node in grid])
    end = np.roll(np.arange(n_kappa), -1)[:, None], perm
    crossing, margin = _crossing_bands(values, values[end], below, below[end], e_ref, step,
                                       lipschitz)
    # a segment of grid step i follows a chain from node a (chain ma) to
    # node b (chain mb); those with a positive margin are final
    segments = [(i, grid[i], m, ends[i], perm[i, m], crossing[i, m], margin[i, m])
                for i, m in zip(*np.nonzero(margin > 0))]
    pending = [(i, grid[i], m, ends[i], perm[i, m]) for i, m in zip(*np.nonzero(margin <= 0))]
    bisected = []
    for depth in range(BISECTION_DEPTH + 1):
        if not pending:
            break
        if depth == BISECTION_DEPTH:
            i, a, _, b, _ = pending[0]
            raise BandConnectionAmbiguous(
                f"after {BISECTION_DEPTH} bisections of the step from kappa {kappas[i]:.6g}, "
                f"a chain eigenvalue may still cross {e_ref:.12g} twice between kappa "
                f"{a.kappa:.9g} and {b.kappa:.9g}: refine n_kappa, unless e_ref lies on "
                f"a band or in a closed gap, where no grid resolves the crossings")
        pending, level = _bisect(strip, mask, pending, e_ref, lipschitz, rate)
        bisected += level
        segments += [s for s in pending if s[-1] > 0]
        pending = [s[:-2] for s in pending if s[-1] <= 0]

    # each crossing at the kappa interpolated in the last bisected step it
    # crosses in, in the order of those momenta
    found = []
    for _, a, ma, b, mb, cross, _ in segments:
        for j in np.flatnonzero(cross):
            ea, eb = a.values[ma][j], b.values[mb][j]
            found.append((a.kappa + (e_ref - ea) / (eb - ea) * (b.kappa - a.kappa),
                          a, ma, b, mb, j))
    found.sort(key=lambda f: f[0])
    at = [f[0] for f in found]
    crossings = []
    for (kappa, a, ma, b, mb, j), block in zip(found, _strip_blocks(strip, mask, at)
                                               if at else []):
        m = int(_continuation(a, _Node(kappa, block, None, None), rate)[ma])
        v = block.vectors([_crossing_state(block, m, j, kappa, e_ref)])[0]
        sign = 1 if a.below[ma] > b.below[mb] else -1  # the count below e_ref falls
        crossings.append(_crossing(kappa, sign, m, j, float((np.abs(v[lower_rows]) ** 2).sum())))
    return crossings, {"bisection_kappas": [float(x) for x in sorted(bisected)],
                       "weyl_margin": float(min(s[-1] for s in segments))}


def _bisect(strip: StripSpec, mask: RegionMask, pending: list, e_ref: float,
            lipschitz: float, rate: float) -> tuple[list, list]:
    """One bisection level: the halves of the pending segments, each with its
    crossing bands and margin, and the midpoint momenta.

    Every midpoint is formed in one :func:`_strip_blocks` pass; at each, only
    the chains that continue a pending segment's are solved, and their
    counts are run at once (:func:`gapfill.spectral.chain_counts`) and
    certified against their values.
    """
    spans = list({(id(a), id(b)): (a, b) for _, a, _, b, _ in pending}.values())
    half = [0.5 * (a.kappa + b.kappa) for a, b in spans]
    mids = {}
    for (a, b), kappa, block in zip(spans, half, _strip_blocks(strip, mask, half)):
        mids[id(a), id(b)] = _Node(kappa, block, {}, {})
    follow = []
    for _, a, ma, b, mb in pending:
        mid = mids[id(a), id(b)]
        mm = int(_continuation(a, mid, rate)[ma])
        if _continuation(mid, b, rate)[mm] != mb:
            raise BandConnectionAmbiguous(
                f"the chain continuation from kappa {a.kappa:.9g} to {b.kappa:.9g} does "
                f"not pass through its midpoint; refine n_kappa")
        follow.append(mm)
        mid.values[mm] = mid.block.chain_values(mm)
    keys = [(mid, m) for mid in mids.values() for m in mid.values]
    counts = chain_counts([mid.block for mid, _ in keys], [m for _, m in keys], e_ref)
    for (mid, m), nu in zip(keys, counts):
        mid.below[m] = nu
    for mid in mids.values():
        w = np.concatenate(list(mid.values.values()))
        _certify_chain_counts(mid.kappa, list(mid.values), list(mid.values.values()),
                              list(mid.below.values()), e_ref,
                              residual_tolerance(float(np.abs(w).max())))
    halves = []
    for (i, a, ma, b, mb), mm in zip(pending, follow):
        mid = mids[id(a), id(b)]
        for (x, mx), (y, my) in (((a, ma), (mid, mm)), ((mid, mm), (b, mb))):
            cross, margin = _crossing_bands(x.values[mx], y.values[my], x.below[mx],
                                            y.below[my], e_ref, y.kappa - x.kappa, lipschitz)
            halves.append((i, x, mx, y, my, cross, float(margin)))
    return halves, half
