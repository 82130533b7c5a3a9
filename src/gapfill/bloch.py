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

Every fiber loop (:func:`torus_spectrum`, :func:`band_energies`,
:func:`invariant_pair_result`) solves one fiber per orbit of the magnetic
translations (Zak, Phys. Rev. 134, A1602, 1964).  A
one-site shift by (dx, dy) that leaves the potential unchanged, i.e. an
element of the stabilizer {(dx, dy) : np.roll(W, (dx, dy)) == W exactly},
carries fiber (s, t) onto fiber (s - 2k*dy/q, t + 2k*dx/q): the x Wilson
loop of cell row iy is e^{2*pi*i*2k*iy/q}, so a shift by dy rows moves it
by 2k*dy/q.  Grid points joined by such shifts form an orbit; only its
representative is diagonalized, and every other member takes the
representative's pairs transported as v' = chi * v[perm], with perm the
site permutation of the shift and chi the cumulative product of link-phase
ratios along the spanning tree of :func:`gapfill.model.cell_lift_phases`.
W = 0 has all of Z_q^2 as stabilizer; a generic W has only (0, 0), and then
every orbit is one fiber.  Each transport is certified: its defect
eps >= max row sum of |D P H_rep P^T D^H - H'| (D = diag chi, P the
permutation), an upper bound on the 2-norm, computed elementwise link by
link, must not exceed the fiber tolerance FIBER_RESIDUAL_FACTOR * max(bound,
1) (LiftNotCertified otherwise).  By Weyl's inequality a member's
eigenvalues lie within eps of the representative's, so counts read from the
representative hold on the member when every endpoint distance exceeds the
fiber tolerance plus eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import (FluxNotAdmissible, GaugeNotCellPeriodic, LiftNotCertified,
                     NonConstantRank, NonTorusGeometry, ResidualNotCertified,
                     SingularOverlap)
from .model import (GaugeField, MagneticLattice, _assemble, assemble_bulk, cell_gauge,
                    cell_lift_phases, twist_seams)
from .spectral import (SpectralInterval, SpectrumReport, residual_tolerance,
                       spectrum_report)

ORIENTATION = "ds_wedge_dt_positive"
OVERLAP_SINGULAR_TOL = 1e-8
FIBER_RESIDUAL_FACTOR = 1e-10
FLUX_ADMISSIBLE = np.pi / 2
LIFT_CHUNK = 64


@dataclass(frozen=True)
class BlochGrid:
    """Uniform grid (a/n_s, b/n_t) on the dual torus."""

    n_s: int
    n_t: int

    def __post_init__(self):
        if self.n_s < 4 or self.n_t < 4:
            raise ValueError("grid needs n_s, n_t >= 4")


@dataclass(frozen=True, eq=False)
class ChernResult:
    """Integer invariant of a band group from plaquette Berry fluxes.

    solved counts the fibers diagonalized (one per magnetic-translation
    orbit) and max_transport_defect is the largest certified transport
    defect.
    """

    band_group: tuple
    plaquette_flux: np.ndarray
    chern: int
    dim: int
    max_flux: float
    total_over_2pi: float
    grid: BlochGrid
    solved: int
    max_transport_defect: float
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
    return _fiber(lattice, _fiber_gauge(lattice, gauge.gauge_kind, s, t))


def _fiber(lattice: MagneticLattice, fiber_gauge: GaugeField) -> np.ndarray:
    """Dense stencil of the one-cell torus under a fiber gauge (no gauge check)."""
    cell = MagneticLattice(lattice.k, lattice.q, 1, 1, "torus", lattice.potential)
    return _assemble(cell, fiber_gauge, None, {}).matrix.toarray()


# ---------------------------------------------------------------------------
# magnetic-translation orbits


def _momentum_shift(k: int, q: int, dx: int, dy: int) -> tuple[Fraction, Fraction]:
    """Dual-torus displacement (ds, dt) of fibers under a one-site shift by (dx, dy)."""
    return Fraction(-2 * k * dy, q), Fraction(2 * k * dx, q)


def _fiber_orbits(lattice: MagneticLattice, n_s: int, n_t: int) -> list:
    """Orbits of the grid points (a/n_s, b/n_t) under the stabilizer shifts of W.

    The shifts are every (dx, dy) with np.roll(W, (dx, dy)) == W exactly whose
    momentum displacement lands on the grid.  Returns a list of
    ((a, b), [((a', b'), (dx, dy)), ...]): each representative, in grid order,
    with every other member of its orbit and the first shift (row-major in
    (dx, dy)) that carries the representative's fiber onto it.
    """
    q, w = lattice.q, lattice.potential
    shifts = []
    for dx in range(q):
        for dy in range(q):
            ds, dt = _momentum_shift(lattice.k, q, dx, dy)
            da, db = ds * n_s, dt * n_t
            if (da.denominator == 1 and db.denominator == 1
                    and np.array_equal(np.roll(w, (dx, dy), axis=(0, 1)), w)):
                shifts.append((int(da), int(db), (dx, dy)))
    seen = set()
    orbits = []
    for a in range(n_s):
        for b in range(n_t):
            if (a, b) in seen:
                continue
            seen.add((a, b))
            members = []
            for da, db, shift in shifts:
                point = ((a + da) % n_s, (b + db) % n_t)
                if point not in seen:
                    seen.add(point)
                    members.append((point, shift))
            orbits.append(((a, b), members))
    return orbits


def _transport(lattice: MagneticLattice, rep: GaugeField, member: GaugeField,
               shift: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, float]:
    """Permutation, phases and defect carrying a representative's pairs to a member.

    rep and member are fiber gauges.  A pair (w, v) of the representative
    becomes (w, chi * v[perm]): perm[x] is the site x - shift (cell row
    order ix*q + iy), and chi solves U'(x -> y) chi(y) = chi(x) U(x - shift ->
    y - shift) along the spanning tree of cell_lift_phases (column 0 in y,
    then every row in x).  The defect bounds the max row sum of
    |D P H P^T D^H - H'| link by link: q^2 |chi(x) U conj(chi(y)) - U'(x -> y)|
    on each of the four links of a site plus |W(x) - W(x - shift)| on its
    diagonal.  It is computed elementwise, so it does not depend on BLAS.
    """
    q = lattice.q
    i, j = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    pi, pj = (i - shift[0]) % q, (j - shift[1]) % q
    ux, uy = rep.phase_x[pi, pj], rep.phase_y[pi, pj]
    chi = np.empty((q, q), complex)
    chi[0] = np.concatenate([[1.0], np.cumprod(uy[0, :-1] * member.phase_y[0, :-1].conj())])
    chi[1:] = chi[0] * np.cumprod(ux[:-1] * member.phase_x[:-1].conj(), axis=0)
    hop = float(q) ** 2
    ex = hop * np.abs(chi * ux * np.roll(chi, -1, axis=0).conj() - member.phase_x)
    ey = hop * np.abs(chi * uy * np.roll(chi, -1, axis=1).conj() - member.phase_y)
    w = lattice.potential
    rows = (np.abs(w - w[pi, pj]) + ex + np.roll(ex, 1, axis=0)
            + ey + np.roll(ey, 1, axis=1))
    return (pi * q + pj).ravel(), chi.ravel(), float(rows.max())


def _fiber_family(lattice: MagneticLattice, gauge_kind: str, n_s: int, n_t: int, solve):
    """Every fiber (a/n_s, b/n_t) with its pairs, one solve per orbit.

    Yields (a, b, fiber_gauge, w, v, defect) orbit by orbit: the
    representative with (w, v) = solve(its dense fiber) and defect None,
    then each other member with the representative's values w and its
    vectors transported (v may be None, or hold only some columns).  No
    member fiber is formed here; a caller that checks residuals builds it
    from fiber_gauge.  A transport whose defect exceeds
    FIBER_RESIDUAL_FACTOR * max(bound, 1), bound the representative's
    largest absolute row sum (equal on every fiber of the family), raises
    LiftNotCertified.
    """
    for (a, b), members in _fiber_orbits(lattice, n_s, n_t):
        rep = _fiber_gauge(lattice, gauge_kind, a / n_s, b / n_t)
        fiber = _fiber(lattice, rep)
        tol = FIBER_RESIDUAL_FACTOR * max(float(np.abs(fiber).sum(axis=1).max()), 1.0)
        w, v = solve(fiber)
        del fiber  # not held while the members are transported
        yield a, b, rep, w, v, None
        for (a2, b2), shift in members:
            member = _fiber_gauge(lattice, gauge_kind, a2 / n_s, b2 / n_t)
            perm, chi, defect = _transport(lattice, rep, member, shift)
            if defect > tol:
                raise LiftNotCertified(
                    f"orbit transport from fiber ({a}/{n_s}, {b}/{n_t}) to "
                    f"({a2}/{n_s}, {b2}/{n_t}) by the shift {shift}: defect "
                    f"{defect:.3e} above the fiber tolerance {tol:.3e}")
            yield a2, b2, member, w, None if v is None else chi[:, None] * v[perm], defect


def torus_spectrum(lattice: MagneticLattice, gauge: GaugeField, *,
                   cluster_tol: float | None = None,
                   keep_vectors: bool = False) -> SpectrumReport:
    """Complete certified torus spectrum from its cells_x * cells_y Bloch fibers.

    The fibers at (a/cells_x, b/cells_y) are solved densely, one per
    magnetic-translation orbit (the rest transported, see the module
    docstring; report.solved_blocks counts the solves), and each
    eigenvector phi is lifted to psi = chi * phi / sqrt(cells) on the torus,
    with chi the ratio of fiber to torus link phases
    (:func:`gapfill.model.cell_lift_phases`).  Every lifted pair is certified
    on the assembled torus operator, ||H psi - lambda psi|| <= 1e-9 ||H||
    (LiftNotCertified otherwise).  The cells_x * cells_y fibers give q^2
    pairs each, n in all, and lifts of distinct fibers carry distinct Bloch
    characters and are orthogonal, so the certified pairs are the whole
    spectrum.  The lift and its residual run in column chunks of LIFT_CHUNK,
    so one n x LIFT_CHUNK block is held at a time (each residual column is
    computed exactly as on the whole n x q^2 block); the n x n eigenvector
    matrix is built only for keep_vectors.
    """
    if lattice.geometry != "torus":
        raise NonTorusGeometry(f"torus_spectrum needs torus geometry, got {lattice.geometry}")
    _check_gauge(lattice, gauge)
    op = assemble_bulk(lattice, gauge)
    q, cx, cy = lattice.q, lattice.cells_x, lattice.cells_y
    cell_rows = (op.sites[:, 0] % q) * q + op.sites[:, 1] % q
    values, residuals, blocks = [], [], []
    solved = 0
    for _, _, fiber_gauge, w, v, defect in _fiber_family(lattice, gauge.gauge_kind,
                                                         cx, cy, np.linalg.eigh):
        solved += defect is None
        chi = cell_lift_phases(gauge, fiber_gauge)
        scale = (chi.ravel() / np.sqrt(cx * cy))[:, None]
        for c in range(0, w.size, LIFT_CHUNK):
            cols = slice(c, c + LIFT_CHUNK)
            psi = scale * v[cell_rows, cols]
            residuals.append(np.linalg.norm(op.matrix @ psi - psi * w[cols], axis=0))
            if keep_vectors:
                blocks.append(psi)
        values.append(w)
    w = np.concatenate(values)
    res = np.concatenate(residuals)
    order = np.argsort(w, kind="stable")
    report = spectrum_report(w[order], res[order],
                             np.hstack(blocks)[:, order] if keep_vectors else None,
                             cluster_tol=cluster_tol, solved_blocks=solved)
    tol = residual_tolerance(report.norm_bound)
    if res.max() > tol:
        raise LiftNotCertified(
            f"lifted fiber residual {res.max():.3e} above {tol:.3e} "
            "(torus gauge and fibers disagree on a Wilson loop or plaquette flux)")
    return report


def band_energies(lattice: MagneticLattice, gauge: GaugeField, grid: BlochGrid) -> np.ndarray:
    """Fiber eigenvalues (n_s, n_t, q^2) on the grid, ascending, without vectors.

    One values-only eigvalsh per magnetic-translation orbit, copied to its
    members under the transport certificate; no frame is formed, so the
    memory is that of the energies.
    """
    _check_gauge(lattice, gauge)
    energies = np.empty((grid.n_s, grid.n_t, lattice.q ** 2))
    for a, b, _, w, _, _ in _fiber_family(lattice, gauge.gauge_kind, grid.n_s, grid.n_t,
                                          lambda fiber: (np.linalg.eigvalsh(fiber), None)):
        energies[a, b] = w
    return energies


# ---------------------------------------------------------------------------
# chern numbers


def plaquette_berry_flux(frames: np.ndarray) -> np.ndarray:
    """Plaquette Berry fluxes of a frame family (n_s, n_t, m, d) over the grid.

    Circulation follows the declared ds^dt-positive orientation: the loop
    runs p -> p+t -> p+s+t -> p+s -> p.  Each link variable is the
    determinant of the overlap matrix of the frames (LU pivoting via
    numpy.linalg.det), formed once per link: the s-links p -> p+s and the
    t-links p -> p+t in one batch each, a reverse link being the conjugate
    of its forward link.  SingularOverlap when any link determinant has
    modulus below 1e-8.  Exposed for cross-checking external families
    (e.g. hopping-model oracles) under the same declared orientation.
    """
    s_link = _link_phases(frames, np.roll(frames, -1, axis=0))
    t_link = _link_phases(frames, np.roll(frames, -1, axis=1))
    loop = (t_link * np.roll(s_link, -1, axis=1)
            * np.roll(t_link, -1, axis=0).conj() * s_link.conj())
    return np.angle(loop)


def _link_phases(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Unit link variables det(fa^H fb) / |det(fa^H fb)| per grid point."""
    d = np.linalg.det(fa.conj().swapaxes(-1, -2) @ fb)
    mod = np.abs(d)
    if mod.min() < OVERLAP_SINGULAR_TOL:
        raise SingularOverlap(f"overlap determinant modulus {mod.min():.2e} < 1e-8")
    return d / mod


def _chern_result(flux: np.ndarray, group: tuple, grid: BlochGrid,
                  solved: int, max_defect: float) -> ChernResult:
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
    return ChernResult(group, flux, chern, group[1] - group[0], max_flux, total, grid,
                       solved, max_defect)


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
    columns under the declared orientation.

    Only the pairs the counts and frames need are solved, on one fiber per
    magnetic-translation orbit (see the module docstring); every other
    fiber takes its orbit representative's values and transported frame
    columns.  The first representative, the first grid point, is
    diagonalized in full; N is its eigenvalue count below interval.upper.
    Every other representative asks for its lowest N+1 pairs
    (scipy.linalg.eigh with subset_by_index).  If the returned w[N] lies
    above interval.upper, no later eigenvalue lies in the interval or
    nearer to either endpoint, so the counts and the endpoint distance are
    exact from those N+1 values; otherwise, or when LAPACK fails on the
    subset (it does where the subset boundary splits an exactly degenerate
    pair), the fiber is diagonalized again in full.  The endpoint tolerance
    scales with the largest Gershgorin bound of the fibers (largest
    absolute row sum), an upper bound on every |eigenvalue|, and the
    endpoint distance must exceed it plus the largest transport defect.
    Each kept frame column, solved or transported, is certified by its
    residual on its own fiber,
    ||H v - v w|| <= FIBER_RESIDUAL_FACTOR * max(bound, 1)
    (ResidualNotCertified otherwise), and only those columns are kept.
    """
    _check_gauge(lattice, gauge)
    m = lattice.q ** 2
    counts_in = np.empty((grid.n_s, grid.n_t), int)
    counts_below = np.empty((grid.n_s, grid.n_t), int)
    sub = {}
    edge_dist = np.inf
    bound = 0.0
    max_res = 0.0
    solved, max_defect = 0, 0.0
    last = None

    def solve(fiber):
        nonlocal last
        if last is None:
            w, v = np.linalg.eigh(fiber)
            last = min(int((w < interval.upper).sum()), m - 1)
            return w, v[:, :last + 1].copy()  # frees the full frame
        try:
            w, v = scipy.linalg.eigh(fiber, subset_by_index=[0, last])
        except np.linalg.LinAlgError:
            return np.linalg.eigh(fiber)
        if w.size < m and w[-1] <= interval.upper:
            return np.linalg.eigh(fiber)
        return w, v

    for a, b, fiber_gauge, w, v, defect in _fiber_family(lattice, gauge.gauge_kind,
                                                         grid.n_s, grid.n_t, solve):
        fiber = _fiber(lattice, fiber_gauge)
        solved += defect is None
        max_defect = max(max_defect, defect or 0.0)
        below = int((w < interval.lower).sum())
        inside = int(((w > interval.lower) & (w < interval.upper)).sum())
        counts_below[a, b] = below
        counts_in[a, b] = inside
        kept = v[:, below:below + inside].copy()
        sub[(a, b)] = kept
        res = np.linalg.norm(fiber @ kept - kept * w[below:below + inside], axis=0)
        max_res = max(max_res, float(res.max(initial=0.0)))
        edge_dist = min(edge_dist,
                        float(np.abs(w - interval.lower).min()),
                        float(np.abs(w - interval.upper).min()))
        bound = max(bound, float(np.abs(fiber).sum(axis=1).max()))

    tol = FIBER_RESIDUAL_FACTOR * max(bound, 1.0)
    if max_res > tol:
        raise ResidualNotCertified(
            f"fiber residual {max_res:.3e} on the in-interval columns above {tol:.3e}")
    if edge_dist <= tol + max_defect:
        raise NonConstantRank(
            f"a fiber eigenvalue is {edge_dist:.3e} from an interval endpoint "
            f"(within the fiber residual tolerance {tol:.3e} plus the transport "
            f"defect {max_defect:.3e})")
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
                           0.0, 0.0, grid, solved, max_defect)
    frames = np.empty((grid.n_s, grid.n_t, m, dim), complex)
    for (a, b), v in sub.items():
        frames[a, b] = v
    return _chern_result(plaquette_berry_flux(frames), (below, below + dim), grid,
                         solved, max_defect)
