"""Discretized magnetic Laplacians on square-lattice windows.

The continuum operator has a constant magnetic field of 2k flux quanta per
unit cell, a -4*pi*k spectral shift and a cell-periodic potential W.  On a
lattice with spacing h = 1/q the field enters through Peierls link phases
with flux Phi = 2k*h^2 quanta per plaquette; the quadratic vector-potential
term is absorbed entirely into the link phases, so the matrix model stays
bounded and translation covariant.  Covariant 5-point stencil, hop range 1.

Link-phase exponents are exact integers, numerators over q^2 reduced mod
q^2, and the seam closures are integer sums; only the final lookup in a
table of the q^2 complex exponentials rounds, so plaquette fluxes and seam
closures are exact to rounding.  Torus and strip closures pin the Wilson
loops to the values of the cell-periodic gauge, which makes the bulk torus
spectrum agree exactly with the Bloch fiber decomposition (see
:mod:`gapfill.bloch`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import (EmptyRegion, MaskMismatch, MissingPhase, NonTorusGeometry,
                     UnknownGaugeKind, UnsupportedShape)

GEOMETRIES = ("torus", "strip", "masked")
GAUGE_KINDS = ("symmetric", "landau")


# ---------------------------------------------------------------------------
# lattice description


@dataclass(frozen=True, eq=False)
class MagneticLattice:
    """Discretization window for the magnetic Laplacian.

    Parameters
    ----------
    k : int
        Flux strength; 2k flux quanta thread each continuum unit cell.
        k = 0 gives the free lattice Laplacian.
    q : int
        Sites per continuum unit length; the spacing is h = 1/q exactly.
    cells_x, cells_y : int
        Window size in continuum unit cells.
    geometry : {"torus", "strip", "masked"}
        Closure: torus is periodic in both directions, strip is periodic
        in x and open in y, masked is open in both.
    potential : (q, q) array, optional
        Real samples of W on one unit cell, indexed [ix, iy]; extended
        periodically.  Defaults to zero.
    """

    k: int
    q: int
    cells_x: int
    cells_y: int
    geometry: str = "torus"
    potential: np.ndarray | None = None

    def __post_init__(self):
        if self.k < 0 or int(self.k) != self.k:
            raise ValueError(f"k must be a nonnegative integer, got {self.k}")
        if self.q < 1:
            raise ValueError(f"q must be an integer >= 1, got {self.q}")
        if self.cells_x < 1 or self.cells_y < 1:
            raise ValueError("cells_x and cells_y must be positive")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"geometry must be one of {GEOMETRIES}")
        if self.potential is None:
            w = np.zeros((self.q, self.q))
        else:
            w = np.asarray(self.potential, dtype=float)
            if w.shape != (self.q, self.q):
                raise ValueError(f"potential must have shape ({self.q}, {self.q})")
        w.setflags(write=False)
        object.__setattr__(self, "potential", w)

    @property
    def h(self) -> float:
        return 1.0 / self.q

    @property
    def n_x(self) -> int:
        return self.q * self.cells_x

    @property
    def n_y(self) -> int:
        return self.q * self.cells_y

    @property
    def flux_per_plaquette(self) -> Fraction:
        """Flux quanta per lattice plaquette, Phi = 2k*h^2, exact."""
        return Fraction(2 * self.k, self.q * self.q)

    @property
    def magnetic_length(self) -> float:
        """1/sqrt(4*pi*k); localization scale of edge states (inf if k=0)."""
        return np.inf if self.k == 0 else 1.0 / np.sqrt(4.0 * np.pi * self.k)

    @property
    def periodic_x(self) -> bool:
        return self.geometry in ("torus", "strip")

    @property
    def periodic_y(self) -> bool:
        return self.geometry == "torus"

    @property
    def period_x(self) -> float | None:
        """x period of the closure in continuum units (None when open in x)."""
        return float(self.cells_x) if self.periodic_x else None


# ---------------------------------------------------------------------------
# gauge field


@dataclass(frozen=True, eq=False)
class GaugeField:
    """U(1) phases on directed lattice edges.

    phase_x[ix, iy] is the phase on the link (ix, iy) -> (ix+1, iy) (wrapped
    when periodic); phase_y likewise for +y links.  The reversed link always
    carries the complex conjugate.  Entries for links that do not exist in
    the geometry are set to 1 and never read.
    """

    lattice: MagneticLattice
    gauge_kind: str
    phase_x: np.ndarray
    phase_y: np.ndarray


def _formula_numerators(lattice: MagneticLattice, gauge_kind: str):
    """Link-phase exponents of the named gauge on the open window, times q^2.

    phase = exp(2*pi*i*a) with a = numerator / q^2.  Landau: a_x = 0,
    a_y(ix) = -Phi*ix (the y-link leaving x-coordinate ix*h carries
    exp(-2*pi*i*2k*h*x)).  Symmetric: a_x(iy) = +(Phi/2)*iy,
    a_y(ix) = -(Phi/2)*ix.  Returns two int64 (n_x, n_y) arrays of
    numerators reduced mod q^2.
    """
    k, q2 = lattice.k, lattice.q * lattice.q
    ix = np.arange(lattice.n_x, dtype=np.int64)[:, None]
    iy = np.arange(lattice.n_y, dtype=np.int64)[None, :]
    if gauge_kind == "landau":
        ax, ay = 0 * iy, -2 * k * ix
    elif gauge_kind == "symmetric":
        ax, ay = k * iy, -k * ix
    else:
        raise UnknownGaugeKind(f"gauge_kind must be one of {GAUGE_KINDS}, got {gauge_kind!r}")
    shape = (lattice.n_x, lattice.n_y)
    return np.broadcast_to(ax, shape) % q2, np.broadcast_to(ay, shape) % q2


def build_gauge(lattice: MagneticLattice, gauge_kind: str = "landau") -> GaugeField:
    """Peierls link phases with flux Phi = 2k*h^2 per plaquette.

    Every counterclockwise plaquette product equals exp(-2*pi*i*Phi),
    including seam plaquettes of periodic closures.  Seam links are solved
    from pinned Wilson-loop targets W_x(row iy) = exp(2*pi*i*Phi*n_x*iy) and
    W_y(col ix) = exp(-2*pi*i*Phi*(ix mod q)*n_y), the holonomies of the
    cell-periodic gauge; this keeps the torus closure unitarily equivalent
    to the Bloch fiber family with untwisted boundary characters.  On one
    cell the seam links are the magnetic translation cocycle of the gauge.

    Exponents are integers mod q^2 (numerators over q^2), the seams are
    integer sums along the rows and columns, and each phase is read from a
    table of the q^2 values exp(2*pi*i*m/q^2).
    """
    ax, ay = _formula_numerators(lattice, gauge_kind)
    nx, ny = lattice.n_x, lattice.n_y
    q, q2, k = lattice.q, lattice.q * lattice.q, lattice.k
    if lattice.periodic_x:
        # W_x target minus the interior x-link sum fixes the seam link per row.
        target = 2 * k * nx * np.arange(ny, dtype=np.int64)
        ax[nx - 1] = (target - ax[:nx - 1].sum(axis=0)) % q2
    if lattice.periodic_y:
        target = -2 * k * (np.arange(nx, dtype=np.int64) % q) * ny
        ay[:, ny - 1] = (target - ay[:, :ny - 1].sum(axis=1)) % q2
    table = np.exp(2j * np.pi * (np.arange(q2) / q2))
    phase_x = table[ax]
    phase_y = table[ay]
    if not lattice.periodic_x:
        phase_x[nx - 1, :] = 1.0
    if not lattice.periodic_y:
        phase_y[:, ny - 1] = 1.0
    return GaugeField(lattice, gauge_kind, phase_x, phase_y)


def _scalar_product(p: np.ndarray, z) -> np.ndarray:
    """p * z elementwise, rounded as a scalar complex product.

    numpy's vectorized complex multiply may fuse a multiply-add and differ
    from the scalar product in the last bit; the real parts are formed here
    as a scalar product forms them, so a batch rounds as one gauge does.
    """
    z = np.asarray(z, complex)
    out = np.empty(np.broadcast_shapes(p.shape, z.shape), complex)
    out.real = p.real * z.real - p.imag * z.imag
    out.imag = p.real * z.imag + p.imag * z.real
    return out


def twist_seams(gauge: GaugeField, zx, zy) -> GaugeField:
    """The gauge with the seam links of the periodic directions times zx (x), zy (y).

    Plaquette fluxes are unchanged and each x (y) Wilson loop gains zx (zy).
    On a one-cell window this is the Bloch reduction: fiber (s, t) takes
    e^{2*pi*i*s}, e^{2*pi*i*t}; on one x-period of a strip, momentum kappa
    takes e^{i*kappa}.  zx and zy may be arrays of one shape: the result is
    then a batch of gauges whose phase arrays carry that shape as leading
    axes, each twisted as a scalar twist would be, bit for bit.
    """
    lat = gauge.lattice
    lead = np.broadcast_shapes(np.shape(zx), np.shape(zy))
    phase_x = np.broadcast_to(gauge.phase_x, lead + gauge.phase_x.shape).copy()
    phase_y = np.broadcast_to(gauge.phase_y, lead + gauge.phase_y.shape).copy()
    if lat.periodic_x:
        phase_x[..., -1, :] = _scalar_product(phase_x[..., -1, :], np.asarray(zx)[..., None])
    if lat.periodic_y:
        phase_y[..., :, -1] = _scalar_product(phase_y[..., :, -1], np.asarray(zy)[..., None])
    return GaugeField(lat, gauge.gauge_kind, phase_x, phase_y)


@functools.lru_cache(maxsize=64)
def cell_gauge(k: int, q: int, gauge_kind: str, geometry: str = "torus",
               cells_y: int = 1, cells_x: int = 1) -> GaugeField:
    """Untwisted gauge of a cells_x by cells_y window, solved once per key.

    The Bloch fiber (torus, one cell) and the strip momentum block (strip,
    one x-period of cells_x cells by cells_y) twist its seams; the phases
    do not depend on the potential, so the key leaves it out.  Phase arrays
    are read-only (twist_seams copies them).
    """
    gauge = build_gauge(MagneticLattice(k, q, cells_x, cells_y, geometry), gauge_kind)
    gauge.phase_x.setflags(write=False)
    gauge.phase_y.setflags(write=False)
    return gauge


def cell_lift_phases(gauge: GaugeField, cell: GaugeField) -> np.ndarray:
    """Phases chi on the window sites that carry cell states to the window.

    The cell is one unit cell (a Bloch fiber) or one x-period of a strip (a
    momentum block).  chi is fixed by U(u -> v) chi(v) = chi(u) U_cell(u' ->
    v') on every link, where u', v' are the cell sites under u, v, so that
    psi = chi * phi(u') solves the window equation whenever phi solves the
    cell equation.  It is
    the cumulative product of the ratio of cell to window link phases along
    column 0 in y, then along every row in x; no gauge formula enters.  The
    remaining links agree when both gauges have the same plaquette fluxes
    and Wilson loops, which callers certify by residuals.  Phase arrays with
    leading axes (batches of gauges) broadcast, and the cumulative products
    run over the site axes of every batch member at once.
    """
    nx, ny = gauge.lattice.n_x, gauge.lattice.n_y
    cx = np.arange(nx) % cell.lattice.n_x
    cy = np.arange(ny) % cell.lattice.n_y
    col = cell.phase_y[..., 0, cy[:-1]] * np.conj(gauge.phase_y[..., 0, :-1])
    rows = cell.phase_x[..., cx[:-1, None], cy] * np.conj(gauge.phase_x[..., :-1, :])
    chi = np.empty(np.broadcast_shapes(col.shape[:-1], rows.shape[:-2]) + (nx, ny), complex)
    chi[..., 0, 0] = 1.0
    chi[..., 0, 1:] = np.cumprod(col, axis=-1)
    chi[..., 1:, :] = chi[..., :1, :] * np.cumprod(rows, axis=-2)
    return chi


def plaquette_products(gauge: GaugeField) -> np.ndarray:
    """Counterclockwise product of the four link phases of every plaquette.

    Shape is (n_plaq_x, n_plaq_y) where the plaquette count per direction is
    the site count when that direction is periodic, one less otherwise.
    Conforming gauges return exp(-2*pi*i*Phi) everywhere (to 1e-12).
    """
    lat = gauge.lattice
    px = lat.n_x if lat.periodic_x else lat.n_x - 1
    py = lat.n_y if lat.periodic_y else lat.n_y - 1
    ux = gauge.phase_x
    uy = gauge.phase_y
    right = ux[:px, :py]
    up = np.roll(uy, -1, axis=0)[:px, :py]
    left = np.conj(np.roll(ux, -1, axis=1)[:px, :py])
    down = np.conj(uy[:px, :py])
    return right * up * left * down


# ---------------------------------------------------------------------------
# region masks


# Every shape answers membership for integer site coordinates (ix, iy) of
# any range, at spacing h = 1/q, through contains(ix, iy, q, period_x): a
# boolean array of the broadcast shape of ix and iy.  period_x (continuum
# units) is the x period of an x-periodic window; ball x-distances wrap
# modulo it.  Coordinates are x = ix * h with h = 1.0 / q (not ix / q,
# which rounds differently).  raised(dy) gives the shape moved up by dy and
# its highest boundary offset before the move (UnsupportedShape for a disk);
# floor() gives (level, name) of the wideness rule, the complement lying
# above level, or None for a shape without one.


def _in_ball(ix, iy, q, center, radius, period_x):
    """|(x, y) - center| <= radius, with the x-distance wrapped modulo period_x."""
    h = 1.0 / q
    dx = np.asarray(ix) * h - center[0]
    if period_x is not None:
        dx = np.abs(dx) % period_x
        dx = np.minimum(dx, period_x - dx)
    return dx ** 2 + (np.asarray(iy) * h - center[1]) ** 2 <= radius ** 2


@dataclass(frozen=True)
class HalfPlaneShape:
    """Region y <= level (continuum units)."""

    level: float

    def contains(self, ix, iy, q: int, period_x: float | None = None) -> np.ndarray:
        return np.broadcast_to(np.asarray(iy) * (1.0 / q) <= self.level,
                               np.broadcast(ix, iy).shape)

    def raised(self, dy: float):
        return HalfPlaneShape(dy + self.level), self.level

    def floor(self):
        return self.level, "level"


@dataclass(frozen=True)
class GraphShape:
    """Region y <= f(x) with f sampled on site columns of one cell.

    f_samples has length q and is extended 1-periodically in x.
    """

    f_samples: tuple

    def samples(self, q: int) -> np.ndarray:
        """The q samples of one cell (UnsupportedShape for any other count)."""
        f = np.asarray(self.f_samples, dtype=float)
        if len(f) != q:
            raise UnsupportedShape(f"GraphShape needs q = {q} samples (one cell), "
                                   f"got {len(f)}")
        return f

    def contains(self, ix, iy, q: int, period_x: float | None = None) -> np.ndarray:
        return np.asarray(iy) * (1.0 / q) <= self.samples(q)[np.asarray(ix) % q]

    def raised(self, dy: float):
        return GraphShape(tuple(dy + f for f in self.f_samples)), max(self.f_samples)

    def floor(self):
        return float(min(self.f_samples)), "min f"


@dataclass(frozen=True)
class BallsShape:
    """A base shape together with a union of radius-r balls.

    Centers are explicit continuum points.  Models the half-plane decorated
    with 1/3-balls at integer x positions and a fixed height.
    """

    base: object
    radius: float
    centers: tuple

    def contains(self, ix, iy, q: int, period_x: float | None = None) -> np.ndarray:
        member = self.base.contains(ix, iy, q, period_x).copy()
        for center in self.centers:
            member |= _in_ball(ix, iy, q, center, self.radius, period_x)
        return member

    def raised(self, dy: float):
        base, offset = self.base.raised(dy)
        centers = tuple((cx, dy + cy) for (cx, cy) in self.centers)
        return (BallsShape(base, self.radius, centers),
                max(offset, max(cy for (_, cy) in self.centers) + self.radius))

    def floor(self):
        base = self.base.floor()
        return base and (base[0], "base " + base[1])


@dataclass(frozen=True)
class DiskShape:
    """Bounded disk region, |(x, y) - center| <= radius."""

    center: tuple
    radius: float

    def contains(self, ix, iy, q: int, period_x: float | None = None) -> np.ndarray:
        return _in_ball(ix, iy, q, self.center, self.radius, period_x)

    def raised(self, dy: float):
        raise UnsupportedShape(f"unsupported strip shape: {self!r}")

    def floor(self):
        return None


@dataclass(frozen=True, eq=False)
class RegionMask:
    """Site membership in a region Z plus distances to its complement.

    boundary_distance is (graph distance to the complement - 1) * h in
    continuum units: it is 0 exactly on sites outside Z or with a lattice
    neighbour outside Z, and +inf when the window contains no complement
    site.  Graph distance respects the window closure (periodic wrapping
    in periodic directions).
    """

    lattice: MagneticLattice
    member: np.ndarray
    boundary_distance: np.ndarray

    @property
    def n_inside(self) -> int:
        return int(self.member.sum())


def _distance_to_complement(lattice: MagneticLattice, member: np.ndarray) -> np.ndarray:
    """Taxicab distance transform of `member` to its complement, in hops.

    Periodic directions are handled by tiling (exact as long as the true
    distance is below the window size, which holds for any window with a
    nonempty complement slab).
    """
    if member.all():
        return np.full(member.shape, np.inf)
    tiled = member
    ox = oy = 0
    if lattice.periodic_x:
        tiled = np.concatenate([tiled, tiled, tiled], axis=0)
        ox = lattice.n_x
    if lattice.periodic_y:
        tiled = np.concatenate([tiled, tiled, tiled], axis=1)
        oy = lattice.n_y
    from scipy.ndimage import distance_transform_cdt
    dist = distance_transform_cdt(tiled, metric="taxicab")
    dist = dist[ox:ox + lattice.n_x, oy:oy + lattice.n_y].astype(float)
    return dist


def window_member(lattice: MagneticLattice, shape) -> np.ndarray:
    """The shape's `contains` on every window site, wrapping on an x-periodic window."""
    contains = getattr(shape, "contains", None)
    if contains is None:
        raise UnsupportedShape(f"no membership rule for the shape {shape!r}")
    ix, iy = np.meshgrid(np.arange(lattice.n_x), np.arange(lattice.n_y), indexing="ij")
    return contains(ix, iy, lattice.q, lattice.period_x)


def make_mask(lattice: MagneticLattice, shape) -> RegionMask:
    """Region mask from a shape descriptor, with boundary distances."""
    return mask_from_member(lattice, window_member(lattice, shape))


def mask_from_sites(lattice: MagneticLattice, sites) -> RegionMask:
    """Mask from an explicit list of (ix, iy) site pairs (MaskMismatch outside the window)."""
    member = np.zeros((lattice.n_x, lattice.n_y), bool)
    for (ix, iy) in sites:
        if not (0 <= ix < lattice.n_x and 0 <= iy < lattice.n_y):
            raise MaskMismatch(f"site ({ix}, {iy}) lies outside the "
                               f"{lattice.n_x} x {lattice.n_y} site window")
        member[ix, iy] = True
    return mask_from_member(lattice, member)


def mask_all(lattice: MagneticLattice) -> RegionMask:
    """Trivial mask: every window site is in Z."""
    member = np.ones((lattice.n_x, lattice.n_y), bool)
    return mask_from_member(lattice, member)


def mask_from_member(lattice: MagneticLattice, member: np.ndarray) -> RegionMask:
    member = np.asarray(member, bool)
    if member.shape != (lattice.n_x, lattice.n_y):
        raise ValueError("member grid does not match the lattice window")
    hops = _distance_to_complement(lattice, member)
    bd = np.where(member, np.maximum(hops - 1.0, 0.0) * lattice.h, 0.0)
    bd = np.where(member & np.isinf(hops), np.inf, bd)
    member = member.copy()
    member.setflags(write=False)
    bd.setflags(write=False)
    return RegionMask(lattice, member, bd)


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Banded Hermitian matrix over lattice sites.

    matrix is CSR complex128 with sorted indices; it equals its conjugate
    transpose exactly because every off-diagonal pair is written as
    (value, conj(value)) during assembly.  sites[i] is the (ix, iy) pair of
    row i; ids maps window coordinates back to rows (-1 where absent).
    """

    matrix: sp.csr_matrix
    sites: np.ndarray
    ids: np.ndarray
    h: float
    hop_range: int

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def shape(self):
        return self.matrix.shape

    def gershgorin(self) -> tuple[float, float]:
        """Interval containing the spectrum (row-sum bound)."""
        m = self.matrix
        d = m.diagonal().real
        absm = sp.csr_matrix((np.abs(m.data), m.indices, m.indptr), shape=m.shape)
        absrow = np.asarray(absm.sum(axis=1)).ravel()
        off = absrow - np.abs(m.diagonal())
        return float((d - off).min()), float((d + off).max())


def _window_links(lattice: MagneticLattice):
    """Directed +x and +y links of the window as (from_ix, from_iy, to_ix, to_iy)."""
    nx, ny = lattice.n_x, lattice.n_y
    lim_x = nx if lattice.periodic_x else nx - 1
    lim_y = ny if lattice.periodic_y else ny - 1
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    m = ix < lim_x
    plus_x = (ix[m], iy[m], (ix[m] + 1) % nx, iy[m])
    m = iy < lim_y
    plus_y = (ix[m], iy[m], ix[m], (iy[m] + 1) % ny)
    return plus_x, plus_y


@dataclass(frozen=True, eq=False)
class StencilPattern:
    """The 5-point stencil of a window on its member sites, without link phases.

    The COO entries of the stencil come in assembly order: the diagonal,
    then the +x links and the +y links, each link (a -> b) followed by its
    reverse.  indptr and indices are the CSR pattern of their sum (rows
    ascending, the columns of a row ascending and distinct); rows[p] is the
    row of CSR position p.  first[p] is the first COO entry at position p,
    and every later one (only a periodic direction one or two sites long
    has any) is listed in repeats, with its position in slots, and added
    in COO order, as scipy's sum_duplicates adds it.  links holds the
    (ix, iy) phase index of every kept +x and +y link.
    """

    lattice: MagneticLattice
    ids: np.ndarray
    sites: np.ndarray
    diag: np.ndarray
    links: tuple
    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    first: np.ndarray
    repeats: np.ndarray
    slots: np.ndarray

    def data(self, phase_x: np.ndarray, phase_y: np.ndarray) -> np.ndarray:
        """CSR data of the stencil under the given link phases.

        (H psi)(v) = h^-2 sum_{e: v->u} (psi(v) - U(e) psi(u)) - 4 pi k psi(v)
                   + W(v) psi(v): each link carries -h^-2 U and its reverse
        the conjugate.  The phase arrays may carry the same leading axes (a
        batch of gauges on one window); the data then carries them too.
        """
        hi2 = float(self.lattice.q) ** 2
        lead = phase_x.shape[:-2]
        parts = [np.broadcast_to(self.diag.astype(complex), lead + self.diag.shape)]
        for phase, (fx, fy) in zip((phase_x, phase_y), self.links):
            v = -hi2 * phase[..., fx, fy]
            parts += [v, np.conj(v)]
        vals = np.concatenate(parts, axis=-1)
        data = vals[..., self.first]
        for j, p in zip(self.repeats, self.slots):
            data[..., p] += vals[..., j]
        return data

    def operator(self, data: np.ndarray) -> HermitianOperator:
        """The operator of one gauge's data on this pattern."""
        n = len(self.sites)
        matrix = sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))
        return HermitianOperator(matrix, self.sites, self.ids, self.lattice.h, 1)

    def dense(self, data: np.ndarray) -> np.ndarray:
        """The dense matrix of the data, added to zeros as scipy's toarray adds it."""
        n = len(self.sites)
        out = np.zeros((n, n), complex)
        out[self.rows, self.indices] += data
        return out


def _stencil_pattern(lattice: MagneticLattice, member: np.ndarray | None) -> StencilPattern:
    """The stencil pattern on the member sites (every window site for None).

    The edge sum runs over the four window edges at a site regardless of
    the mask: the restricted operator is the principal submatrix of the
    window stencil, so the diagonal stays 4 h^-2 - 4 pi k + W(v).
    """
    nx, ny = lattice.n_x, lattice.n_y
    if member is None:
        member = np.ones((nx, ny), bool)
    ids = -np.ones((nx, ny), dtype=np.int64)
    flat = np.flatnonzero(member.ravel())
    if flat.size == 0:
        raise EmptyRegion("region mask selects no lattice site")
    n = flat.size
    ids.ravel()[flat] = np.arange(n)
    sites = np.column_stack([flat // ny, flat % ny])
    hi2 = float(lattice.q) ** 2
    diag = (4.0 * hi2 - 4.0 * np.pi * lattice.k
            + lattice.potential[sites[:, 0] % lattice.q, sites[:, 1] % lattice.q])

    rows, cols, links = [np.arange(n)], [np.arange(n)], []
    for (fx, fy, tx, ty) in _window_links(lattice):
        a = ids[fx, fy]
        b = ids[tx, ty]
        keep = (a >= 0) & (b >= 0)
        a, b = a[keep], b[keep]
        links.append((fx[keep], fy[keep]))
        rows += [a, b]
        cols += [b, a]
    keys = np.concatenate(rows) * n + np.concatenate(cols)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    unique = ordered[new]
    repeats = np.sort(order[~new])
    csr_rows = unique // n
    indptr = np.searchsorted(csr_rows, np.arange(n + 1)).astype(np.int32)
    for a in (ids, sites, diag):
        a.setflags(write=False)
    return StencilPattern(lattice, ids, sites, diag, tuple(links), indptr,
                          (unique % n).astype(np.int32), csr_rows, order[new],
                          repeats, np.searchsorted(unique, keys[repeats]))


def _assemble(lattice: MagneticLattice, gauge: GaugeField,
              member: np.ndarray | None) -> HermitianOperator:
    """Covariant 5-point stencil on the member sites (Dirichlet drop outside).

    The pattern of :func:`_stencil_pattern` with the data of the gauge's link
    phases (:meth:`StencilPattern.data`, the one rule by which link phases
    become stencil entries).
    """
    pattern = _stencil_pattern(lattice, member)
    return pattern.operator(pattern.data(gauge.phase_x, gauge.phase_y))


def assemble_bulk(lattice: MagneticLattice, gauge: GaugeField) -> HermitianOperator:
    """Bulk operator on the magnetic-periodic torus."""
    if lattice.geometry != "torus":
        raise NonTorusGeometry(f"assemble_bulk needs torus geometry, got {lattice.geometry}")
    return _assemble(lattice, gauge, None)


def assemble_restricted(lattice: MagneticLattice, gauge: GaugeField,
                        mask: RegionMask) -> HermitianOperator:
    """Dirichlet restriction to the mask: principal submatrix of the window stencil."""
    return _assemble(lattice, gauge, mask.member)


def gauge_transform(op: HermitianOperator, phases) -> HermitianOperator:
    """Conjugate U* H U with U = diag(phases); same sites and hop range.

    phases is an array over the operator's rows (MissingPhase for any
    other shape).  Phases are normalized to unit modulus; the (real) diagonal is left
    untouched and the off-diagonal pairs are written as exact conjugates,
    so the result is exactly Hermitian.
    """
    n = op.dimension
    p = np.asarray(phases, complex)
    if p.shape != (n,):
        raise MissingPhase(f"phase array has shape {p.shape}, expected ({n},)")
    mod = np.abs(p)
    if np.any(mod == 0):
        raise MissingPhase("zero modulus phase")
    p = p / mod

    coo = op.matrix.tocoo()
    upper = coo.row < coo.col
    r, c, d = coo.row[upper], coo.col[upper], coo.data[upper]
    new = np.conj(p[r]) * d * p[c]
    rows = np.concatenate([r, c, np.arange(n)])
    cols = np.concatenate([c, r, np.arange(n)])
    vals = np.concatenate([new, np.conj(new), op.matrix.diagonal()])
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    matrix.sum_duplicates()
    matrix.sort_indices()
    return HermitianOperator(matrix, op.sites, op.ids, op.h, op.hop_range)

