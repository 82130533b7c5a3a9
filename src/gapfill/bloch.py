"""Magnetic Bloch-Floquet reduction and the invariant pair (dim, c1).

The flux through one continuum unit cell is the integer 2k, so the q x q
site cell is a magnetic unit cell: the bulk operator commutes with magnetic
translations by one cell, and the torus operator decomposes exactly into
q^2-dimensional fibers over the dual torus.  The fiber at (s, t) is the
window stencil of :mod:`gapfill.model` on the one-cell torus, with its seam
links twisted by e^{2*pi*i*s} / e^{2*pi*i*t}
(:func:`gapfill.model.twist_seams`).  The Wilson-pinned seam links of that
cell already carry the translation cocycle of the gauge, without which the
fiber family would violate the plaquette flux at the cell boundary.  A
fiber family is fixed by its gauge kind alone, so :func:`band_energies`
and :func:`invariant_pair_result` take the kind ("landau" or
"symmetric"), not a gauge field.  An unmasked torus of
cells_x x cells_y cells is solved on its fibers at (a/cells_x, b/cells_y)
(:func:`torus_spectrum`), with every lifted pair certified on the torus
operator assembled from the caller's gauge.  That certificate is the one
gauge check: it accepts any torus gauge with the fibers' plaquette fluxes
and Wilson loops, gauge-transformed ones included, and refuses any other.

The first Chern number of a band group is computed by plaquette Berry
fluxes on the dual-torus grid (overlap-determinant link variables, principal
argument per plaquette, rounded total), on grids that keep every plaquette
flux below pi/2.  Plaquette circulation is fixed so
that the generator dual to ds^dt evaluates to +1; under this declared
orientation the lowest Landau group of the magnetic Laplacian carries
(dim, c1) = (2k, -1), and an independent Wilson-loop winding oracle in the
test suite confirms the sign on the flux-1/3 hopping model.

Every fiber loop (:func:`torus_spectrum`, :func:`band_energies`,
:func:`invariant_pair_result`) walks the grid one orbit of the magnetic
translations at a time (Zak, Phys. Rev. 134, A1602, 1964).  A one-site
shift by (dx, dy) in the stabilizer {(dx, dy) : np.roll(W, (dx, dy)) == W
exactly} of the potential carries fiber (s, t) onto fiber
(s - 2k*dy/q, t + 2k*dx/q): the x Wilson loop of cell row iy is
e^{2*pi*i*2k*iy/q}.  Each loop solves an orbit's representative as it needs
(in full, values only, or its lowest pairs); every other member takes its
values and its vectors transported as v' = chi * v[perm], with perm the
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

An orbit is walked as arrays, not member by member.  The stabilizer is
found by one gather of W over all q^2 shifts.  The members' fiber gauges
come from one batched seam twist, and their perms, chis and defects from
one transport pass (:func:`_transport`) whose cumulative products run over
a leading member axis; each member's values are bitwise those it would get
on its own.  The walk forms the one-cell stencil pattern once
(:class:`gapfill.model.StencilPattern`: CSR indptr, indices and the COO to
CSR order of :func:`gapfill.model._assemble`).  A representative's dense
fiber is its gauge's data on that pattern; a member's residual certificate
applies the member's own sparse fiber, its gauge's data on the same
pattern, with no dense member fiber and no dense product: the members of an
orbit are applied together as one block-diagonal operator
(:func:`_member_operator`).  The pattern lives for one walk; nothing is
cached between walks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import (FluxNotAdmissible, LiftNotCertified, NonConstantRank,
                     ResidualNotCertified, SingularOverlap)
from .model import (GaugeField, MagneticLattice, StencilPattern, _stencil_pattern,
                    assemble_bulk, cell_gauge, cell_lift_phases, twist_seams)
from .spectral import (SpectralInterval, SpectrumReport, residual_tolerance,
                       spectrum_report)

ORIENTATION = "ds_wedge_dt_positive"
OVERLAP_SINGULAR_TOL = 1e-8
FIBER_RESIDUAL_FACTOR = 1e-10
FLUX_ADMISSIBLE = np.pi / 2
FHS_INTEGRALITY_TOL = 1e-6
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

    solver is the route record of the solve: the grid's fiber count, the
    fibers diagonalized (one per magnetic-translation orbit) and the
    largest certified transport defect.
    """

    band_group: tuple
    chern: int
    dim: int
    max_flux: float
    total_over_2pi: float
    solver: dict
    orientation: str = ORIENTATION


# ---------------------------------------------------------------------------
# fibers


def _fiber_gauge(lattice: MagneticLattice, gauge_kind: str, s, t) -> GaugeField:
    """The one-cell torus gauge with its seams twisted by e^{2*pi*i*s}, e^{2*pi*i*t}.

    Arrays s, t of one shape give a batch of fiber gauges (twist_seams).
    """
    return twist_seams(cell_gauge(lattice.k, lattice.q, gauge_kind),
                       np.exp(2j * np.pi * s), np.exp(2j * np.pi * t))


def _cell_pattern(lattice: MagneticLattice) -> StencilPattern:
    """The stencil pattern of the one-cell torus, shared by every fiber of a family."""
    return _stencil_pattern(MagneticLattice(lattice.k, lattice.q, 1, 1, "torus",
                                            lattice.potential), None)


def _fiber(pattern: StencilPattern, fiber_gauge: GaugeField) -> np.ndarray:
    """Dense stencil of the one-cell torus under a fiber gauge."""
    return pattern.dense(pattern.data(fiber_gauge.phase_x, fiber_gauge.phase_y))


# ---------------------------------------------------------------------------
# magnetic-translation orbits


def _momentum_shift(k: int, q: int, dx, dy):
    """q times the dual-torus displacement (ds, dt) of fibers under a shift by (dx, dy)."""
    return -2 * k * dy, 2 * k * dx


def _fiber_orbits(lattice: MagneticLattice, n_s: int, n_t: int) -> list:
    """Orbits of the grid points (a/n_s, b/n_t) under the stabilizer shifts of W.

    The shifts are every (dx, dy) with np.roll(W, (dx, dy)) == W exactly whose
    momentum displacement lands on the grid; all q^2 rolls are tested in one
    gather of W (q^4 entries).  Returns a list of ((a, b), points, shifts):
    each representative, in grid order, with every other member of its
    orbit ((M, 2) grid points) and the first shift (row-major in (dx, dy))
    that carries the representative's fiber onto it ((M, 2)).  The shifts
    form a group, so the orbits are its cosets and a representative is the
    first grid point of its orbit.
    """
    q, w = lattice.q, lattice.potential
    dx, dy = (a.ravel() for a in np.meshgrid(np.arange(q), np.arange(q), indexing="ij"))
    i = np.arange(q)
    rolled = w[(i[None, :, None] - dx[:, None, None]) % q,
               (i[None, None, :] - dy[:, None, None]) % q]
    ds, dt = _momentum_shift(lattice.k, q, dx, dy)
    keep = ((ds * n_s % q == 0) & (dt * n_t % q == 0)
            & (rolled == w).all(axis=(1, 2)))
    da, db = ds[keep] * n_s // q, dt[keep] * n_t // q
    shifts = np.column_stack([dx[keep], dy[keep]])
    a, b = np.divmod(np.arange(n_s * n_t), n_t)
    images = ((a[:, None] + da) % n_s) * n_t + (b[:, None] + db) % n_t
    orbits = []
    for rep in np.flatnonzero(images.min(axis=1) == np.arange(n_s * n_t)):
        row = images[rep]
        first = np.unique(row, return_index=True)[1]
        first = np.sort(first[row[first] != rep])
        orbits.append(((int(a[rep]), int(b[rep])),
                       np.column_stack(np.divmod(row[first], n_t)), shifts[first]))
    return orbits


def _transport(lattice: MagneticLattice, rep: GaugeField, members: GaugeField,
               shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Permutations, phases and defects carrying a representative's pairs to its members.

    rep is a fiber gauge, members a batch of M fiber gauges (phase arrays
    (M, q, q)) and shifts (M, 2); the whole orbit is one array pass.  A pair
    (w, v) of the representative becomes (w, chi[i] * v[perm[i]]) on member
    i: perm[i, x] is the site x - shift (cell row order ix*q + iy), and
    chi[i] is cell_lift_phases of the member against the representative's
    phases shifted by its shift: it solves U'(x -> y) chi(y) = chi(x)
    U(x - shift -> y - shift) along that function's spanning tree (column 0
    in y, then every row in x).  defect[i] bounds the max row sum of |D P H
    P^T D^H - H'| link by link: q^2 |chi(x) U conj(chi(y)) - U'(x -> y)| on
    each of the four links of a site plus |W(x) - W(x - shift)| on its
    diagonal.  It is computed elementwise, so it does not depend on BLAS,
    and each member's values are bitwise those of a one-member batch.
    """
    q = lattice.q
    i = np.arange(q)
    pi = (i[None, :, None] - shifts[:, 0, None, None]) % q
    pj = (i[None, None, :] - shifts[:, 1, None, None]) % q
    pi, pj = np.broadcast_arrays(pi, pj)
    ux, uy = rep.phase_x[pi, pj], rep.phase_y[pi, pj]
    chi = cell_lift_phases(members, GaugeField(rep.lattice, rep.gauge_kind, ux, uy))
    hop = float(q) ** 2
    ex = hop * np.abs(chi * ux * np.roll(chi, -1, axis=-2).conj() - members.phase_x)
    ey = hop * np.abs(chi * uy * np.roll(chi, -1, axis=-1).conj() - members.phase_y)
    w = lattice.potential
    rows = (np.abs(w - w[pi, pj]) + ex + np.roll(ex, 1, axis=-2)
            + ey + np.roll(ey, 1, axis=-1))
    shape = (len(shifts), q * q)
    return ((pi * q + pj).reshape(shape), chi.reshape(shape),
            rows.reshape(shape).max(axis=1, initial=0.0))


@dataclass(frozen=True, eq=False)
class _Orbit:
    """One magnetic-translation orbit of a fiber family, its members as arrays.

    point, gauge and fiber are the representative's grid point, fiber gauge
    and dense fiber; tol is the fiber tolerance.  The M other members have
    grid points points (M, 2), fiber gauges members (phase arrays (M, q, q))
    and certified transports perm (M, q^2), chi (M, q^2) and defect (M,).
    pattern is the one-cell stencil pattern shared by the family walk.
    """

    point: tuple
    gauge: GaugeField
    fiber: np.ndarray
    tol: float
    points: np.ndarray
    members: GaugeField
    perm: np.ndarray
    chi: np.ndarray
    defect: np.ndarray
    pattern: StencilPattern

    def member(self, i: int) -> GaugeField:
        """The fiber gauge of member i."""
        g = self.members
        return GaugeField(g.lattice, g.gauge_kind, g.phase_x[i], g.phase_y[i])

    def moved(self, v: np.ndarray) -> np.ndarray:
        """The representative's columns v (q^2, c) carried to every member, (M, q^2, c)."""
        return self.chi[:, :, None] * v[self.perm]


def _fiber_family(lattice: MagneticLattice, gauge_kind: str, n_s: int, n_t: int):
    """The grid fibers (a/n_s, b/n_t), one _Orbit per magnetic-translation orbit.

    The stencil pattern of the one-cell torus is formed once per walk; each
    representative's dense fiber is its data under the representative's
    gauge, and its tolerance FIBER_RESIDUAL_FACTOR * max(bound, 1) (bound
    the largest absolute row sum, equal on every fiber of the family).  The
    members of an orbit are handled together: their fiber gauges in one
    batched seam twist and their transports in one _transport pass, which
    takes a representative's pair (w, v) as (w, chi[i, :, None] *
    v[perm[i]]).  The caller solves the representative; no member fiber is
    formed here.  A defect above tol raises LiftNotCertified, naming the
    first such member in orbit order.
    """
    pattern = _cell_pattern(lattice)
    for (a, b), points, shifts in _fiber_orbits(lattice, n_s, n_t):
        rep = _fiber_gauge(lattice, gauge_kind, a / n_s, b / n_t)
        fiber = _fiber(pattern, rep)
        tol = FIBER_RESIDUAL_FACTOR * max(float(np.abs(fiber).sum(axis=1).max()), 1.0)
        members = _fiber_gauge(lattice, gauge_kind, points[:, 0] / n_s, points[:, 1] / n_t)
        perm, chi, defect = _transport(lattice, rep, members, shifts)
        bad = np.flatnonzero(defect > tol)
        if bad.size:
            (a2, b2), shift, d = points[bad[0]], tuple(shifts[bad[0]].tolist()), defect[bad[0]]
            raise LiftNotCertified(
                f"orbit transport from fiber ({a}/{n_s}, {b}/{n_t}) to "
                f"({a2}/{n_s}, {b2}/{n_t}) by the shift {shift}: defect "
                f"{d:.3e} above the fiber tolerance {tol:.3e}")
        yield _Orbit((a, b), rep, fiber, tol, points, members, perm, chi, defect, pattern)


def torus_spectrum(lattice: MagneticLattice, gauge: GaugeField) -> SpectrumReport:
    """Complete certified torus spectrum from its cells_x * cells_y Bloch fibers.

    The fibers at (a/cells_x, b/cells_y) are solved densely, one per
    magnetic-translation orbit (the rest transported, see the module
    docstring; report.solver records the fibers, their size and the solves),
    and each eigenvector phi is lifted to psi = chi * phi / sqrt(cells) on
    the torus, with chi the ratio of fiber to torus link phases
    (:func:`gapfill.model.cell_lift_phases`).  The fibers are those of
    gauge.gauge_kind; every lifted pair is certified on the torus operator
    assembled from gauge, ||H psi - lambda psi|| <= 1e-9 ||H||
    (LiftNotCertified otherwise), so a gauge that differs from the kind's
    formula by site phases is solved and one with another plaquette flux or
    Wilson loop is refused.  The cells_x * cells_y fibers give q^2
    pairs each, n in all, and lifts of distinct fibers carry distinct Bloch
    characters and are orthogonal, so the certified pairs are the whole
    spectrum.  The lift and its residual run in column chunks of LIFT_CHUNK,
    so one n x LIFT_CHUNK block is held at a time (each residual column is
    computed exactly as on the whole n x q^2 block).
    """
    op = assemble_bulk(lattice, gauge)
    q, cx, cy = lattice.q, lattice.cells_x, lattice.cells_y
    cell_rows = (op.sites[:, 0] % q) * q + op.sites[:, 1] % q
    values, residuals = [], []

    def lift(fiber_gauge, w, v):
        chi = cell_lift_phases(gauge, fiber_gauge)
        scale = (chi.ravel() / np.sqrt(cx * cy))[:, None]
        for c in range(0, w.size, LIFT_CHUNK):
            cols = slice(c, c + LIFT_CHUNK)
            psi = scale * v[cell_rows, cols]
            residuals.append(np.linalg.norm(op.matrix @ psi - psi * w[cols], axis=0))
        values.append(w)

    solved = 0
    for orbit in _fiber_family(lattice, gauge.gauge_kind, cx, cy):
        w, v = np.linalg.eigh(orbit.fiber)
        solved += 1
        lift(orbit.gauge, w, v)
        for i in range(len(orbit.points)):
            lift(orbit.member(i), w, orbit.chi[i, :, None] * v[orbit.perm[i]])
    w = np.concatenate(values)
    res = np.concatenate(residuals)
    order = np.argsort(w, kind="stable")
    report = spectrum_report(w[order], res[order],
                             {"route": "bloch_fibers", "blocks": cx * cy, "block_dim": q * q,
                              "solved_blocks": solved})
    tol = residual_tolerance(report.norm_bound)
    if res.max() > tol:
        raise LiftNotCertified(
            f"lifted fiber residual {res.max():.3e} above {tol:.3e} "
            "(torus gauge and fibers disagree on a Wilson loop or plaquette flux)")
    return report


def band_energies(lattice: MagneticLattice, gauge_kind: str, grid: BlochGrid) -> np.ndarray:
    """Fiber eigenvalues (n_s, n_t, q^2) on the grid, ascending, without vectors.

    One values-only eigvalsh per magnetic-translation orbit, copied to its
    members under the transport certificate; no frame is formed, so the
    memory is that of the energies.
    """
    energies = np.empty((grid.n_s, grid.n_t, lattice.q ** 2))
    for orbit in _fiber_family(lattice, gauge_kind, grid.n_s, grid.n_t):
        w = np.linalg.eigvalsh(orbit.fiber)
        energies[orbit.point] = w
        energies[orbit.points[:, 0], orbit.points[:, 1]] = w
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
    s_link = _link_variables(frames, np.roll(frames, -1, axis=0))
    t_link = _link_variables(frames, np.roll(frames, -1, axis=1))
    loop = (t_link * np.roll(s_link, -1, axis=1)
            * np.roll(t_link, -1, axis=0).conj() * s_link.conj())
    return np.angle(loop)


def _link_variables(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Unit link variables det(fa^H fb) / |det(fa^H fb)| per grid point."""
    d = np.linalg.det(fa.conj().swapaxes(-1, -2) @ fb)
    mod = np.abs(d)
    if mod.min() < OVERLAP_SINGULAR_TOL:
        raise SingularOverlap(f"overlap determinant modulus {mod.min():.2e} < 1e-8")
    return d / mod


def _chern_result(flux: np.ndarray, group: tuple, solver: dict) -> ChernResult:
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
    if abs(total - chern) > FHS_INTEGRALITY_TOL:
        raise SingularOverlap(
            f"plaquette flux total {total:.8f} is not integral to "
            f"{FHS_INTEGRALITY_TOL:g} (grid too coarse)")
    return ChernResult(group, chern, group[1] - group[0], max_flux, total, solver)


def _lowest_pairs(fiber: np.ndarray, last: int, upper: float):
    """Pairs 0..last of a fiber (subset_by_index), or all of them where needed.

    The subset suffices when its top value lies above upper.  Otherwise, or
    when LAPACK fails on the subset (it does where the subset boundary
    splits an exactly degenerate pair), the fiber is diagonalized in full.
    """
    try:
        w, v = scipy.linalg.eigh(fiber, subset_by_index=[0, last])
    except np.linalg.LinAlgError:
        return np.linalg.eigh(fiber)
    if w.size < fiber.shape[0] and w[-1] <= upper:
        return np.linalg.eigh(fiber)
    return w, v


def _max_residual(fiber: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    return float(np.linalg.norm(fiber @ v - v * w, axis=0).max(initial=0.0))


def _member_operator(orbit: _Orbit) -> sp.csr_matrix:
    """The members' own fibers as one block-diagonal sparse matrix, (M q^2) x (M q^2).

    Block i is the stencil data of member i's fiber gauge on the family's
    pattern; no dense member fiber is formed.
    """
    pattern, (count, m) = orbit.pattern, orbit.perm.shape
    data = pattern.data(orbit.members.phase_x, orbit.members.phase_y)
    offset = np.arange(count)[:, None]
    indices = (pattern.indices + m * offset).ravel()
    indptr = np.append((pattern.indptr[:-1] + data.shape[1] * offset).ravel(), data.size)
    return sp.csr_matrix((data.ravel(), indices, indptr), shape=(count * m, count * m))


def _member_residual(orbit: _Orbit, moved: np.ndarray, w: np.ndarray) -> float:
    """Largest residual ||H_i v - v w|| of the moved columns (M, q^2, c) on each member's fiber."""
    count, m, c = moved.shape
    if count == 0 or c == 0:
        return 0.0
    applied = (_member_operator(orbit) @ moved.reshape(count * m, c)).reshape(moved.shape)
    return float(np.linalg.norm(applied - moved * w, axis=1).max())


def invariant_pair_result(lattice: MagneticLattice, gauge_kind: str,
                          interval: SpectralInterval,
                          grid: BlochGrid = BlochGrid(16, 16)) -> ChernResult:
    """(dim, c1) of the spectral projection onto a fiber-uniform interval.

    dim is the in-interval fiber eigenvalue count, which must be constant
    over the grid along with the count below the interval (NonConstantRank
    otherwise); chern is the plaquette-flux sum of the corresponding frame
    columns under the declared orientation.

    The grid is walked one magnetic-translation orbit at a time (module
    docstring).  Each representative is solved for the pairs the counts and
    frames need: the first (grid point (0, 0)) in full, N its count below
    interval.upper, every other for its lowest N+1 pairs (_lowest_pairs).
    Counts and endpoint distance are read once per orbit, since every member
    has the representative's values; the kept frame columns are carried to
    every member of the orbit in one gather.  The endpoint distance must
    exceed the family's fiber tolerance (it scales with the Gershgorin
    bound, the largest absolute row sum) plus the largest transport defect.
    Each kept column, solved or transported, is certified by its residual
    on its own fiber, ||H v - v w|| <= FIBER_RESIDUAL_FACTOR * max(bound, 1)
    (ResidualNotCertified otherwise): the representative's on its dense
    fiber, the members' on their own sparse fibers, built from each
    member's gauge on the family's stencil pattern and applied as one
    block-diagonal operator per orbit (_member_operator).
    """
    m = lattice.q ** 2
    counts = []
    frames_at = []
    edge_dist, tol, max_res, max_defect = np.inf, 0.0, 0.0, 0.0
    last = None
    for orbit in _fiber_family(lattice, gauge_kind, grid.n_s, grid.n_t):
        if last is None:
            w, v = np.linalg.eigh(orbit.fiber)
            last = min(int((w < interval.upper).sum()), m - 1)
        else:
            w, v = _lowest_pairs(orbit.fiber, last, interval.upper)
        below = int((w < interval.lower).sum())
        inside = int(((w > interval.lower) & (w < interval.upper)).sum())
        counts.append((below, inside))
        edge_dist = min(edge_dist,
                        float(np.abs(w - interval.lower).min()),
                        float(np.abs(w - interval.upper).min()))
        tol = max(tol, orbit.tol)
        w_in = w[below:below + inside]
        kept = v[:, below:below + inside].copy()
        moved = orbit.moved(kept)
        frames_at.append((orbit.point, kept, orbit.points, moved))
        max_res = max(max_res, _max_residual(orbit.fiber, kept, w_in),
                      _member_residual(orbit, moved, w_in))
        max_defect = max(max_defect, float(orbit.defect.max(initial=0.0)))

    if max_res > tol:
        raise ResidualNotCertified(
            f"fiber residual {max_res:.3e} on the in-interval columns above {tol:.3e}")
    if edge_dist <= tol + max_defect:
        raise NonConstantRank(
            f"a fiber eigenvalue is {edge_dist:.3e} from an interval endpoint "
            f"(within the fiber residual tolerance {tol:.3e} plus the transport "
            f"defect {max_defect:.3e})")
    n_below, n_in = np.array(counts).T
    if n_in.min() != n_in.max():
        raise NonConstantRank(
            f"in-interval count varies over the grid ({n_in.min()}..{n_in.max()})")
    if n_below.min() != n_below.max():
        raise NonConstantRank(
            f"count below the interval varies over the grid "
            f"({n_below.min()}..{n_below.max()})")
    dim, below = int(n_in[0]), int(n_below[0])
    solver = {"route": "fiber_orbits", "fibers": grid.n_s * grid.n_t, "solved": len(counts),
              "max_transport_defect": max_defect}
    if dim == 0:
        return ChernResult((below, below), 0, 0, 0.0, 0.0, solver)
    frames = np.empty((grid.n_s, grid.n_t, m, dim), complex)
    for point, kept, points, moved in frames_at:
        frames[point] = kept
        frames[points[:, 0], points[:, 1]] = moved
    return _chern_result(plaquette_berry_flux(frames), (below, below + dim), solver)
