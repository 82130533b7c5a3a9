"""Eigensolvers, spectral intervals and Chebyshev functional calculus.

One banded route solves every operator that is not an unmasked torus
(unmasked tori are solved on their Bloch fibers, :mod:`gapfill.bloch`).
Ordered line by line, in y-rows or x-columns, whichever gives the
narrower band, an operator is banded and block tridiagonal over its lines:
a strip momentum block one x-period of P cells wide has y-rows of P*q
sites, a wide masked window x-columns, and a torus mask that keeps a seam
link is folded so that lines s and n_s-1-s share a block.  :func:`banded`
stores the operator as a LAPACK band (a :class:`BandedOperator`).  An
operator that a symmetry splits into tridiagonal chains (a
:class:`ChainOperator`, such as a flat strip's momentum block split into
Harper chains) is solved on the chains instead.

Both kinds of block answer for themselves, so no caller needs to know
which route ran:

- ``eigenvalues``: the whole spectrum, ascending, without vectors, solved
  once per block (a banded LAPACK solve, or one tridiagonal solve per
  chain, each eigenvalue keeping the chain it came from);
- ``vectors(select)``: the eigenvectors of ``eigenvalues[select]`` by
  inverse iteration (on the band, or on each eigenvalue's own chain and
  lifted back), each certified by its residual on the operator itself;
- ``counts(sigmas)``: the number of eigenvalues below each shift by an
  LDL^H factorization and Sylvester's law of inertia (block pivots over
  the lines of a band, 1x1 Sturm pivots on the chains);
- ``record``: the route and the sizes of the solve.

Both also answer per chain: ``chain_values(m)`` (one chain's solve, the
same one ``eigenvalues`` reads), ``chains`` (the chain of each
eigenvalue) and ``theta`` (the splitting symmetry's eigenvalue angle of
each chain, None without one).  A band is one chain, which holds every
eigenvalue.  :func:`chain_counts` counts per chain, the chains of many
operators at once (:func:`sturm_counts` on the tridiagonal ones).

:func:`certify_counts` checks a block's counts against its eigenvalues,
and :func:`banded_spectrum` reports the complete spectrum of a window
with every detected gap certified by those counts.

Filters are Chebyshev expansions on a stated spectral enclosure [a, b];
applying one to a vector through the three-term recurrence grows the support
by exactly one hop per degree, which is what all finite-propagation
bookkeeping in :mod:`gapfill.coarse` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from numpy.polynomial import chebyshev as npcheb

from .errors import (CountNotCertified, EnclosureViolation, MarginTooSmall,
                     RepeatedSelection, ResidualNotCertified)
from .model import HermitianOperator

DEGREE_CAP_DEFAULT = 4096
RESIDUAL_FACTOR = 1e-9
INVERSE_STEPS = 2      # solves per inverse-iteration vector
ORTHO_CLUSTER = 1e-3   # relative eigenvalue spacing below which vectors are orthogonalized
PIVOT_FLOOR = 1e-3     # relative size below which a pivot direction is deferred
SHIFT_NUDGE = 1e-12    # relative move of an inverse-iteration shift off an exact zero pivot
LANCZOS_ITERATIONS = 60  # Lanczos steps per operator_norm estimate, at most


# ---------------------------------------------------------------------------
# spectral intervals


@dataclass(frozen=True)
class SpectralInterval:
    """Interval with a certified distance from its endpoints to the spectrum.

    margin > 0 means both endpoints are known to be at distance >= margin
    from every eigenvalue of the operator the interval was certified
    against; margin == 0 carries no certificate.
    """

    lower: float
    upper: float
    margin: float = 0.0

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got ({self.lower}, {self.upper})")
        if self.margin < 0:
            raise ValueError("margin must be >= 0")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: float) -> bool:
        return self.lower < x < self.upper


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Complete sorted spectrum with its certificates and gap decomposition.

    residuals holds the per-pair residuals of a route that computes vectors
    (Bloch fibers) and is None on the banded route, whose certificate is the
    inertia count at each gap.  solver is the route record of the solve
    that gave the spectrum: the band's ``record`` with one block, or the
    Bloch fibers with their count, size and solved orbits.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray | None
    clusters: tuple
    gaps: tuple
    norm_bound: float
    solver: dict


def _cluster(eigenvalues: np.ndarray, tol: float) -> tuple:
    """Index ranges of eigenvalue groups separated by spacings > tol."""
    if len(eigenvalues) == 0:
        return ()
    breaks = np.flatnonzero(np.diff(eigenvalues) > tol)
    starts = np.concatenate([[0], breaks + 1])
    stops = np.concatenate([breaks + 1, [len(eigenvalues)]])
    return tuple((int(a), int(b)) for a, b in zip(starts, stops))


def detect_gaps(eigenvalues: np.ndarray, min_width: float) -> list[SpectralInterval]:
    """Maximal open intervals of width >= min_width between consecutive eigenvalues.

    Equal neighbours never bound a gap.  Each end is an eigenvalue, so the
    margin is 0 (no certificate); :func:`certify_interval` certifies an
    interval inset from those ends.
    """
    gaps = []
    for a, b in zip(eigenvalues[:-1], eigenvalues[1:]):
        if b - a >= min_width and b > a:
            gaps.append(SpectralInterval(float(a), float(b)))
    return gaps


def certify_interval(report: SpectrumReport, lower: float, upper: float) -> SpectralInterval:
    """Interval with margin = min distance from the endpoints to the spectrum.

    The report holds the complete spectrum, so the endpoint distances are
    certified over all of it.
    """
    ev = report.eigenvalues
    margin = float(min(np.abs(ev - lower).min(), np.abs(ev - upper).min()))
    return SpectralInterval(lower, upper, margin)


# ---------------------------------------------------------------------------
# chebyshev filters


def _cheb_fit(f, a: float, b: float, degree: int) -> np.ndarray:
    """Chebyshev coefficients of f on [a, b] via Gauss-Chebyshev quadrature."""
    m = max(4 * (degree + 1), 256)
    theta = (np.arange(m) + 0.5) * np.pi / m
    x = np.cos(theta)
    fx = f(0.5 * (b + a) + 0.5 * (b - a) * x)
    j = np.arange(degree + 1)
    c = (2.0 / m) * np.cos(np.outer(j, theta)) @ fx
    c[0] *= 0.5
    return c


def _uniform_error(f, coefficients: np.ndarray, a: float, b: float,
                   exclude: tuple = ()) -> float:
    """Max |p - f| over a dense probe grid, optionally skipping open bands."""
    m = max(16 * len(coefficients), 2048)
    theta = (np.arange(m) + 0.5) * np.pi / m
    xs = 0.5 * (b + a) + 0.5 * (b - a) * np.cos(theta)
    keep = np.ones(m, bool)
    for (lo, hi) in exclude:
        keep &= ~((xs > lo) & (xs < hi))
    xs = xs[keep]
    px = npcheb.chebval(2.0 * (xs - a) / (b - a) - 1.0, coefficients)
    return float(np.abs(px - f(xs)).max())


@dataclass(frozen=True, eq=False)
class ChebFilter:
    """Chebyshev expansion of a target function on an enclosure [a, b].

    uniform_error is the measured sup deviation from the target over the
    enclosure; it is 0 for exact polynomials.
    """

    degree: int
    coefficients: np.ndarray
    enclosure: tuple
    target_description: str
    uniform_error: float
    target: object = field(default=None, repr=False)

    def evaluate(self, x):
        a, b = self.enclosure
        return npcheb.chebval(2.0 * (np.asarray(x, float) - a) / (b - a) - 1.0,
                              self.coefficients)


def _erf_indicator(lo, hi, smoothing):
    from scipy.special import erf
    s = np.sqrt(2.0) * smoothing

    def f(x):
        return 0.5 * (erf((x - lo) / s) - erf((x - hi) / s))
    return f


def smoothed_indicator_filter(lo: float, hi: float, smoothing: float,
                              enclosure: tuple, degree: int) -> ChebFilter:
    """Gaussian-smoothed indicator of (lo, hi); entire target, fast coefficient decay."""
    a, b = enclosure
    f = _erf_indicator(lo, hi, smoothing)
    c = _cheb_fit(f, a, b, degree)
    err = _uniform_error(f, c, a, b)
    return ChebFilter(degree, c, (a, b), "smoothed_indicator", err, f)


def gaussian_filter(center: float, sigma: float, enclosure: tuple,
                    degree: int) -> ChebFilter:
    """Gaussian bump exp(-(x-center)^2 / (2 sigma^2))."""
    a, b = enclosure

    def f(x):
        return np.exp(-0.5 * ((np.asarray(x, float) - center) / sigma) ** 2)
    c = _cheb_fit(f, a, b, degree)
    err = _uniform_error(f, c, a, b)
    return ChebFilter(degree, c, (a, b), "gaussian", err, f)


def polynomial_filter(power_coefficients, enclosure: tuple) -> ChebFilter:
    """Exact polynomial given in the power basis; uniform error is 0 by definition."""
    a, b = enclosure
    pc = np.asarray(power_coefficients, float)
    cheb = np.polynomial.Polynomial(pc).convert(domain=[a, b], kind=npcheb.Chebyshev).coef
    deg = len(pc) - 1

    def f(x):
        return np.polynomial.polynomial.polyval(np.asarray(x, float), pc)
    return ChebFilter(deg, cheb, (a, b), "polynomial", 0.0, f)


def apply_filter(op: HermitianOperator, filt: ChebFilter, v: np.ndarray) -> np.ndarray:
    """Sum c_j T_j(H~) v by the three-term recurrence; H~ is H affinely rescaled.

    Support grows by exactly one hop per degree: entries beyond graph
    distance degree * hop_range from support(v) stay bitwise zero.
    """
    a, b = filt.enclosure
    gl, gu = op.gershgorin()
    if gl < a or gu > b:
        raise EnclosureViolation(
            f"Gershgorin bound [{gl:.6g}, {gu:.6g}] escapes enclosure [{a:.6g}, {b:.6g}]")
    return _cheb_apply(op.matrix, filt.coefficients, a, b, v)


def _cheb_apply(matrix: sp.csr_matrix, coefficients: np.ndarray, a: float, b: float,
                v: np.ndarray) -> np.ndarray:
    """Sum c_j T_j(H~) v, H~ = (H - center) / half for the enclosure [a, b]:
    the recurrence (:func:`_cheb_series`) on the scaled operator
    (:func:`_cheb_scaled`)."""
    return _cheb_series(_cheb_scaled(matrix, a, b), coefficients, v)


def _cheb_scaled(matrix: sp.csr_matrix, a: float, b: float) -> sp.csr_matrix:
    """The scaled operator Hs = 2 H~ = (2/half)(H - center) of the enclosure [a, b].

    It is formed entrywise from the matrix's own entries: (2/half) H_ij off
    the diagonal and (2/half)(H_ii - center) on it.  Two operators whose
    rows agree entrywise (a bulk operator and its Dirichlet restriction, on
    the interior rows) get identical Hs entries there.  A caller applying
    one filter many times forms Hs once.
    """
    center, half = 0.5 * (b + a), 0.5 * (b - a)
    return (matrix - center * sp.identity(matrix.shape[0], format="csr")) * (2.0 / half)


def _cheb_series(hs: sp.csr_matrix, coefficients: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum c_j T_j(Hs / 2) v by the three-term recurrence on a scaled operator.

    T_1 v = Hs v / 2, and each further degree is one sparse product, one
    in-place subtract and one in-place axpy: T_{j+1} v = Hs T_j v - T_{j-1}
    v, out += c_j T_{j+1} v.  Two operators with identical Hs entries on
    some rows (:func:`_cheb_scaled`) get identical arithmetic on those rows,
    so their difference stays bitwise zero beyond degree hops of where the
    rows differ.  v is a vector or a block of columns.

    The axpy scales into a reused scratch block and then adds, so each
    entry is rounded the same wherever it sits in the block; a fused BLAS
    axpy makes no such promise.
    """
    c = coefficients
    t0 = np.array(v, dtype=complex)
    out = c[0] * t0
    if len(c) == 1:
        return out
    scratch = np.empty_like(t0)
    t1 = hs @ t0
    t1 *= 0.5
    out += np.multiply(c[1], t1, out=scratch)
    for cj in c[2:]:
        t2 = hs @ t1
        t2 -= t0
        out += np.multiply(cj, t2, out=scratch)
        t0, t1 = t1, t2
    return out


def materialize_filter(op: HermitianOperator, filt: ChebFilter) -> HermitianOperator:
    """p(H) as an explicit operator with hop_range = degree * hop_range.

    Dense intermediate; intended for desk-scale support-arithmetic checks.
    Exact zeros outside the propagation cone are dropped from the sparse
    pattern, so the stored pattern is the true support.
    """
    dense = apply_filter(op, filt, np.eye(op.dimension, dtype=complex))
    matrix = sp.csr_matrix(dense)
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return HermitianOperator(matrix, op.sites, op.ids, op.h, filt.degree * op.hop_range)


# ---------------------------------------------------------------------------
# spectrum reports


def residual_tolerance(norm_bound: float) -> float:
    """Largest certified residual ||Hv - lambda v|| for an operator of that norm."""
    return RESIDUAL_FACTOR * max(norm_bound, 1.0)


def spectrum_report(w: np.ndarray, residuals: np.ndarray | None,
                    solver: dict) -> SpectrumReport:
    """Clusters and gaps of a complete sorted spectrum, at their default widths.

    The norm bound is max |lambda|, which is ||H|| for a complete spectrum.
    Both solver routes (banded and Bloch fibers) build their report here.
    """
    norm_bound = float(np.abs(w).max()) if len(w) else 0.0
    spacing = max(1e-8 * float(w[-1] - w[0]), 1e-12) if len(w) > 1 else 1e-8
    return SpectrumReport(w, residuals, _cluster(w, spacing),
                          tuple(detect_gaps(w, _default_gap_width(w))),
                          norm_bound, solver)


# ---------------------------------------------------------------------------
# banded solves


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """A Hermitian operator in the line order of :func:`banded`, as a LAPACK lower band.

    Band row i is operator row order[i]; band[d, j] = H[j + d, j] in that
    order for 0 <= d <= bandwidth.  rows holds the band-row range of each
    line (of each folded pair of lines), the diagonal blocks of the
    block-tridiagonal LDL^H inertia count.
    """

    op: HermitianOperator
    order: np.ndarray
    band: np.ndarray
    rows: tuple
    theta = None  # no splitting symmetry: the band is one chain

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    @property
    def record(self) -> dict:
        return {"route": "banded", "block_dim": self.op.dimension, "bandwidth": self.bandwidth}

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending, from LAPACK's banded Hermitian solver (no
        vectors), solved once per BandedOperator."""
        return scipy.linalg.eig_banded(self.band, lower=True, eigvals_only=True,
                                       check_finite=False)

    @property
    def chains(self) -> np.ndarray:
        """The chain of each eigenvalue: a band is one chain, chain 0."""
        return np.zeros(len(self.eigenvalues), int)

    def chain_values(self, m: int) -> np.ndarray:
        """The eigenvalues of the band's one chain: all of them."""
        return self.eigenvalues

    def vectors(self, select) -> tuple[np.ndarray, np.ndarray]:
        """Certified eigenvectors of eigenvalues[select] by banded inverse iteration.

        Each vector takes INVERSE_STEPS solves of (H - lambda) x = x from one
        fixed start vector, orthogonalized against the vectors already
        computed for eigenvalues within ORTHO_CLUSTER * max(||H||, 1) of
        lambda.  Vectors come back in the operator's own row order, as
        columns, with their residuals ||Hv - lambda v||; ResidualNotCertified
        if any residual exceeds residual_tolerance(||H||), RepeatedSelection
        if select names one index twice.
        """
        w = self.eigenvalues
        values = w[_selected(w, select)]
        norm = float(np.abs(w).max())
        vectors = np.zeros((self.op.dimension, len(values)), complex)
        vectors[self.order] = _inverse_iteration(self.band, values, norm)
        return _certified(self.op, vectors, values, norm)

    def counts(self, sigmas) -> np.ndarray:
        """nu(sigma) = #{eigenvalues < sigma} for each shift, by a block LDL^H over lines.

        H - sigma is block tridiagonal over the lines; eliminating them in
        order is a congruence H - sigma = L D L^H with D block diagonal, so by
        Sylvester's law of inertia nu(sigma) is the number of negative
        eigenvalues of the pivot blocks.  Each pivot is diagonalized; its
        eigen-directions with |d| >= PIVOT_FLOOR * ||H|| are eliminated, and
        the smaller ones are deferred into the next pivot (a symmetric
        pivoting that bounds the growth of the Schur complements by
        1 / PIVOT_FLOOR).
        """
        blocks, couplings = _row_blocks(self)
        lo, hi = self.op.gershgorin()
        floor = PIVOT_FLOOR * max(abs(lo), abs(hi), 1.0)
        sig = np.atleast_1d(np.asarray(sigmas, float))
        count = np.zeros(len(sig), int)
        # deferred directions per shift: values and couplings to the current
        # row, padded to a common number with decoupled pivots 2 * floor
        deferred = np.zeros((len(sig), 0))
        deferred_cpl = None
        schur = 0.0
        for r, a in enumerate(blocks):
            t = deferred.shape[1]
            pivot = a - sig[:, None, None] * np.eye(len(a)) - schur
            if t:
                pivot = np.block([[deferred[:, :, None] * np.eye(t),
                                   deferred_cpl.conj().transpose(0, 2, 1)],
                                  [deferred_cpl, pivot]])
            d, u = np.linalg.eigh(pivot)
            good = np.abs(d) >= floor
            if r + 1 == len(blocks):
                count += (d < 0).sum(axis=1)
                break
            count += ((d < 0) & good).sum(axis=1)
            cpl = couplings[r + 1] @ u[:, t:]
            inv = np.divide(1.0, d, out=np.zeros_like(d), where=good)
            schur = (cpl * inv[:, None, :]) @ cpl.conj().transpose(0, 2, 1)
            n_deferred = (~good).sum(axis=1)
            order = np.argsort(good, axis=1, kind="stable")[:, :n_deferred.max()]
            live = np.arange(order.shape[1]) < n_deferred[:, None]
            deferred = np.where(live, np.take_along_axis(d, order, axis=1), 2.0 * floor)
            deferred_cpl = np.where(live[:, None, :],
                                    np.take_along_axis(cpl, order[:, None, :], axis=2), 0.0)
        return count


def _line_order(op: HermitianOperator, rows: np.ndarray, cols: np.ndarray, axis: int):
    """Sites sorted line by line, a line being one s = sites[:, axis], and the
    band positions of the entries (rows, cols).  When an entry joins sites
    whose s differ by more than 1 (a kept seam link), lines s and n_s-1-s fold
    into one."""
    s = op.sites[:, axis]
    seam = np.abs(s[rows] - s[cols]).max() > 1
    line = np.minimum(s, op.ids.shape[axis] - 1 - s) if seam else s
    order = np.lexsort((op.sites[:, 1 - axis], s, line))
    pos = np.argsort(order)
    return line, order, pos[rows], pos[cols]


def banded(op: HermitianOperator) -> BandedOperator:
    """The operator ordered line by line, y-rows or x-columns, stored as a band.

    Links join sites on one line or on consecutive (folded) lines, so the
    matrix is block tridiagonal over lines.  The order with the narrower
    band is used, y-rows on a tie: a strip momentum block, one x-period of
    P*q columns, has bandwidth at most P*q, and a window much wider than
    tall is banded across its short side.
    """
    coo = op.matrix.tocoo()
    line, order, r, c = min((_line_order(op, coo.row, coo.col, axis) for axis in (1, 0)),
                            key=lambda o: np.abs(o[2] - o[3]).max())
    low = r >= c
    band = np.zeros((int((r - c)[low].max()) + 1, op.dimension), complex)
    band[(r - c)[low], c[low]] = coo.data[low]
    group = np.concatenate([[0], np.cumsum(np.diff(line[order]) != 0)])
    if np.abs(group[r] - group[c]).max() > 1:
        raise ValueError("operator is not block tridiagonal over its lines")
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    stops = np.append(starts[1:], op.dimension)
    return BandedOperator(op, order, band, tuple(zip(starts.tolist(), stops.tolist())))


def _selected(eigenvalues: np.ndarray, select) -> np.ndarray:
    """The indices eigenvalues[select] names; RepeatedSelection if one comes twice.

    Inverse iteration orthogonalizes each vector against those already
    computed at nearby values, so a repeated index would be driven off its
    own eigenvector and fail its residual.
    """
    idx = np.arange(len(eigenvalues))[select]
    unique, counts = np.unique(idx, return_counts=True)
    if np.any(counts > 1):
        raise RepeatedSelection(
            f"select names eigenvalue index {int(unique[counts > 1][0])} more than once")
    return idx


def _inverse_iteration(band: np.ndarray, values: np.ndarray, norm: float) -> np.ndarray:
    """Inverse-iteration vectors, as columns, of a LAPACK lower band at the given values.

    Each vector takes INVERSE_STEPS solves of (H - lambda) x = x from one
    fixed start vector, orthogonalized against the vectors already computed
    for values within ORTHO_CLUSTER * max(norm, 1) of lambda.  A value that
    makes a pivot of H - lambda exactly zero is moved off by SHIFT_NUDGE *
    max(norm, 1), far inside the residual tolerance; ResidualNotCertified
    if that shift is singular too.
    """
    bw, n = band.shape[0] - 1, band.shape[1]
    # general band layout of solve_banded: full[bw + i - j, j] = H[i, j]
    full = np.zeros((2 * bw + 1, n), complex)
    full[bw:] = band
    for d in range(1, bw + 1):
        full[bw - d, d:] = np.conj(band[d, :n - d])
    rng = np.random.default_rng(0)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    found = []
    for lam in values:
        shifted = full.copy()
        shifted[bw] -= lam
        near = [u for (mu, u) in zip(values, found)
                if abs(mu - lam) <= ORTHO_CLUSTER * max(norm, 1.0)]
        x = start
        for _ in range(INVERSE_STEPS):
            y = _solve_shifted(shifted, x)
            if y is None:
                shifted[bw] -= SHIFT_NUDGE * max(norm, 1.0)
                y = _solve_shifted(shifted, x)
            if y is None:
                raise ResidualNotCertified(
                    f"no inverse-iteration vector at {lam:.12g}: the shift and its "
                    f"nudge are both singular")
            x = y
            for u in near:
                x = x - np.vdot(u, x) * u
            x = x / np.linalg.norm(x)
        found.append(x)
    return np.array(found).T.reshape(n, len(values))


def _solve_shifted(shifted: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """(H - lambda)^-1 x from the general band of H - lambda; None if it is singular."""
    bw = shifted.shape[0] // 2
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            y = scipy.linalg.solve_banded((bw, bw), shifted, x, check_finite=False)
        except np.linalg.LinAlgError:
            return None
    return y if np.isfinite(y).all() else None


def _certified(op: HermitianOperator, vectors: np.ndarray, values: np.ndarray,
               norm: float) -> tuple[np.ndarray, np.ndarray]:
    """The vectors with their residuals ||Hv - lambda v|| on op; ResidualNotCertified
    if any exceeds residual_tolerance(norm)."""
    res = np.linalg.norm(op.matrix @ vectors - vectors * values, axis=0)
    tol = residual_tolerance(norm)
    if len(values) and res.max() > tol:
        raise ResidualNotCertified(
            f"inverse-iteration residual {res.max():.3e} above {tol:.3e}")
    return vectors, res


def _row_blocks(b: BandedOperator) -> tuple[list, list]:
    """Diagonal blocks H[line r, line r] and couplings H[line r, line r-1] of the lines."""
    start = np.array([a for a, _ in b.rows])
    size = np.array([z - a for a, z in b.rows])
    idx = np.minimum(start[:, None] + np.arange(size.max()), b.op.dimension - 1)
    prev = np.vstack([idx[:1], idx[:-1]])
    bw = b.bandwidth

    def entries(rows, cols):
        d = rows[:, :, None] - cols[:, None, :]
        lower = b.band[np.clip(d, 0, bw), cols[:, None, :]]
        upper = np.conj(b.band[np.clip(-d, 0, bw), rows[:, :, None]])
        return np.where(np.abs(d) <= bw, np.where(d >= 0, lower, upper), 0.0)

    diag, cpl = entries(idx, idx), entries(idx, prev)
    blocks = [diag[r, :m, :m] for r, m in enumerate(size)]
    couplings = [cpl[r, :m, :size[r - 1]] for r, m in enumerate(size)]
    return blocks, couplings


def certify_counts(s, sigmas) -> np.ndarray:
    """Inertia counts nu(sigma) of a block, checked against its eigenvalues.

    s is a BandedOperator or a ChainOperator, counted by its own counts.
    Each nu(sigma) must lie between the number of eigenvalues below
    sigma - tol and below sigma + tol, tol = residual_tolerance(||H||)
    (CountNotCertified otherwise): the count then certifies that no
    eigenvalue was lost or invented near sigma.
    """
    sig = np.atleast_1d(np.asarray(sigmas, float))
    nu = s.counts(sig)
    eigenvalues = s.eigenvalues
    tol = residual_tolerance(float(np.abs(eigenvalues).max()))
    low = np.searchsorted(eigenvalues, sig - tol)
    high = np.searchsorted(eigenvalues, sig + tol)
    bad = (nu < low) | (nu > high)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CountNotCertified(
            f"inertia counts {int(nu[i])} eigenvalues below {sig[i]:.12g}, the "
            f"eigenvalue solve {int(low[i])} (within {tol:.1e}: {int(high[i])})")
    return nu


def banded_spectrum(b: BandedOperator) -> SpectrumReport:
    """Complete spectrum of a banded operator, every detected gap certified by counts.

    The eigenvalues come from one values-only banded solve, so the report
    carries no residuals; its solver is the band's record, one block.  Each
    gap (lower, upper) is certified by :func:`certify_counts` at lower +
    2 tol and upper - 2 tol, tol = residual_tolerance(||H||): both counts
    must equal the number of eigenvalues up to lower, so they agree and no
    eigenvalue was lost inside the gap (CountNotCertified otherwise).
    """
    report = spectrum_report(b.eigenvalues, None, dict(b.record, blocks=1))
    tol = residual_tolerance(report.norm_bound)
    shifts = [s for g in report.gaps for s in (g.lower + 2 * tol, g.upper - 2 * tol)]
    if shifts:
        certify_counts(b, shifts)
    return report


def _default_gap_width(w: np.ndarray) -> float:
    spread = float(w[-1] - w[0]) if len(w) > 1 else 1.0
    return 0.01 * spread


# ---------------------------------------------------------------------------
# tridiagonal chains


@dataclass(frozen=True, eq=False)
class ChainOperator:
    """A Hermitian operator split by a symmetry into tridiagonal chains.

    H = sum_m B_m C_m B_m^H over the chains m, with B_m orthonormal and C_m
    tridiagonal: C_m[r, r] = diagonal[m, r] and C_m[r + 1, r] =
    coupling[m, r].  Each operator row i lies on position line[i] of every
    chain, with B_m[i, line[i]] = basis[i, m] and no other entry, so chain
    vectors v_m lift to u[i] = sum_m basis[i, m] v_m[line[i]].  Each chain
    is solved once, on its own, the first time its values are asked for
    (:meth:`chain_values`), so every eigenvalue keeps the chain it came
    from.  The caller certifies the split; vectors certifies the lifted
    vectors on op itself.  theta, where the splitting symmetry gives one,
    holds the angle of that symmetry's eigenvalue e^{i*theta[m]} on chain m.
    """

    op: HermitianOperator
    diagonal: np.ndarray
    coupling: np.ndarray
    basis: np.ndarray
    line: np.ndarray
    theta: np.ndarray | None = None

    @cached_property
    def _solved(self) -> dict:
        """The eigenvalues of each chain solved so far, by chain."""
        return {}

    def chain_values(self, m: int) -> np.ndarray:
        """The eigenvalues of chain m, ascending: one LAPACK tridiagonal solve
        of that chain, run once per ChainOperator.

        A Hermitian tridiagonal matrix has the spectrum of the real symmetric
        one with the moduli of its couplings (a diagonal unitary carries one
        to the other).
        """
        if m not in self._solved:
            self._solved[m] = scipy.linalg.eigvalsh_tridiagonal(
                self.diagonal[m], np.abs(self.coupling[m]), check_finite=False)
        return self._solved[m]

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """All eigenvalues, ascending, and the chain of each, from the chain solves."""
        values = [self.chain_values(m) for m in range(len(self.diagonal))]
        chain = np.repeat(np.arange(len(values)), [len(w) for w in values])
        w = np.concatenate(values)
        order = np.argsort(w, kind="stable")
        return w[order], chain[order]

    @property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending: one LAPACK tridiagonal solve per chain, done
        once per ChainOperator."""
        return self._spectrum[0]

    @property
    def chains(self) -> np.ndarray:
        """The chain of each of eigenvalues, from the same per-chain solve."""
        return self._spectrum[1]

    @property
    def record(self) -> dict:
        return {"route": "harper_chains", "chains": self.diagonal.shape[0],
                "chain_dim": self.diagonal.shape[1], "block_dim": self.op.dimension}

    def vectors(self, select) -> tuple[np.ndarray, np.ndarray]:
        """Certified eigenvectors of eigenvalues[select], by inverse iteration on the chains.

        Each eigenvalue's chain is the one whose solve gave it (the same
        per-chain solve, not repeated).  Its vector is computed on that chain
        as :meth:`BandedOperator.vectors` computes one on a band, lifted by
        the chain's basis column (so it is an eigenvector of the symmetry
        too), and certified by its residual on the operator itself
        (ResidualNotCertified).  RepeatedSelection if select names one index
        twice.
        """
        w, chain = self._spectrum
        idx = _selected(w, select)
        values, chain = w[idx], chain[idx]
        norm = float(np.abs(w).max())
        vectors = np.zeros((self.op.dimension, len(values)), complex)
        for m in np.unique(chain):
            cols = np.flatnonzero(chain == m)
            band = np.vstack([self.diagonal[m], np.append(self.coupling[m], 0.0)])
            v = _inverse_iteration(band, values[cols], norm)
            vectors[:, cols] = self.basis[:, m, None] * v[self.line]
        return _certified(self.op, vectors, values, norm)

    def counts(self, sigmas) -> np.ndarray:
        """nu(sigma) = #{eigenvalues < sigma} for each shift: the sum of the
        chains' Sturm counts (:func:`sturm_counts`)."""
        return sturm_counts(self.diagonal, self.coupling, sigmas).sum(axis=0)


def sturm_counts(diagonal: np.ndarray, coupling: np.ndarray, sigmas) -> np.ndarray:
    """Eigenvalue counts below each shift of Hermitian tridiagonal chains, chains by shifts.

    Chain m has diagonal[m] and subdiagonal coupling[m], as on a
    :class:`ChainOperator`; chains of several operators may be stacked.
    C_m - sigma = L D L^H with 1x1 pivots d_r = a_r - sigma - |b_r|^2 /
    d_{r-1}, run over every chain and shift at once; by Sylvester's law of
    inertia the count is the number of negative pivots of chain m.  A pivot
    below the chain's floor tiny * max(1, max |b|^2) in modulus is replaced
    by minus the floor, as LAPACK's bisection does, so no pivot divides by
    zero.
    """
    sig = np.atleast_1d(np.asarray(sigmas, float))
    n_chains, length = diagonal.shape
    # b2[:, r] = |C_m[r, r - 1]|^2, 0 before the first site
    b2 = np.abs(np.hstack([np.zeros((n_chains, 1)), coupling])) ** 2
    floor = np.finfo(float).tiny * np.maximum(1.0, b2.max(axis=1, keepdims=True))
    count = np.zeros((n_chains, len(sig)), int)
    d = np.ones((n_chains, len(sig)))
    for r in range(length):
        d = diagonal[:, r, None] - sig - b2[:, r, None] / d
        np.copyto(d, -floor, where=np.abs(d) < floor)
        count += d < 0
    return count


def chain_counts(blocks, chains, sigma: float) -> np.ndarray:
    """The count below sigma of chain chains[i] of blocks[i], for every i: the
    tridiagonal chains of every ChainOperator as one stack of
    :func:`sturm_counts`, any other block, one chain, by its own counts."""
    split = np.array([isinstance(b, ChainOperator) for b in blocks])
    nu = np.array([0 if s else b.counts([sigma])[0] for s, b in zip(split, blocks)])
    at = np.flatnonzero(split)
    if len(at):
        nu[at] = sturm_counts(np.array([blocks[i].diagonal[chains[i]] for i in at]),
                              np.array([blocks[i].coupling[chains[i]] for i in at]), [sigma])[:, 0]
    return nu


# ---------------------------------------------------------------------------
# spectral projections


def spectral_projection(op: HermitianOperator, interval: SpectralInterval,
                        tol: float = 1e-6) -> np.ndarray:
    """Projection onto the interval as a fixed polynomial of the operator.

    The sharp indicator is replaced by a smooth surrogate whose transition
    bands (width = interval.margin, centered on the endpoints) avoid the
    spectrum by the interval's certificate: an erf-smoothed indicator
    expanded in Chebyshev polynomials, composed with projector-sharpening
    steps P -> 3P^2 - 2P^3 until the Frobenius norm ||P^2 - P||_F, an
    upper bound on the spectral norm, is at most tol, so every eigenvalue
    image sits within tol of {0, 1}.  The composite is still a polynomial of
    the operator, so it commutes with it by construction; MarginTooSmall if
    the base expansion cannot reach the transition floor within the degree
    cap DEGREE_CAP_DEFAULT, or if eight sharpening steps do not reach tol.
    """
    if interval.margin <= 0:
        raise MarginTooSmall("spectral projection needs a certified interval (margin > 0)")
    a, b = op.gershgorin()
    a -= 1e-9 * (abs(a) + 1)
    b += 1e-9 * (abs(b) + 1)
    # smoothing margin/5 puts the erf floor off the transition bands at
    # erfc(5/(2 sqrt 2))/2 ~ 0.006, to be driven to tol by the sharpening steps
    smoothing = interval.margin / 5.0
    target = _erf_indicator(interval.lower, interval.upper, smoothing)
    exclude = ((interval.lower - interval.margin / 2, interval.lower + interval.margin / 2),
               (interval.upper - interval.margin / 2, interval.upper + interval.margin / 2))
    erf_floor = _erf_floor(interval.margin, smoothing)
    base_target = 0.02
    degree = 128
    filt = None
    while degree <= DEGREE_CAP_DEFAULT:
        c = _cheb_fit(target, a, b, degree)
        if _uniform_error(target, c, a, b, exclude=exclude) + erf_floor <= base_target:
            filt = c
            break
        degree *= 2
    if filt is None:
        raise MarginTooSmall(
            f"degree cap {DEGREE_CAP_DEFAULT} cannot resolve a transition of width "
            f"{interval.margin:.3g} on enclosure [{a:.3g}, {b:.3g}]")
    p = _cheb_apply(op.matrix, filt, a, b, np.eye(op.dimension, dtype=complex))
    for _ in range(8):
        p2 = p @ p
        if np.linalg.norm(p2 - p) <= tol:
            return p
        p = 3.0 * p2 - 2.0 * (p2 @ p)
    raise MarginTooSmall("projector sharpening did not reach the requested tolerance")


def _erf_floor(margin: float, smoothing: float) -> float:
    """Deviation of the erf indicator from {0,1} at distance margin/2 from an endpoint."""
    from scipy.special import erfc
    return 0.5 * float(erfc((margin / 2.0) / (np.sqrt(2.0) * smoothing)))


# ---------------------------------------------------------------------------
# operator norms


def operator_norm(apply_fn, n: int, *, adjoint_fn=None, hermitian: bool = False,
                  rtol: float = 1e-3) -> float:
    """Lanczos estimate of the spectral norm of a matrix-free operator.

    A fully reorthogonalized Lanczos tridiagonalization runs on A itself
    when Hermitian, else on A*A (adjoint_fn required), from one fixed
    pseudorandom start vector (seed 0).  Iterates until two consecutive
    Ritz values agree to rtol, the basis breaks down (beta ~ 0: the Krylov
    space is exhausted - in particular a zero operator returns exactly 0.0
    after one application) or LANCZOS_ITERATIONS steps have run.  Ritz values never
    exceed the norm, so the result is a lower estimate, not a certified
    bound.
    """
    if not hermitian and adjoint_fn is None:
        raise ValueError("non-Hermitian norm needs adjoint_fn")
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = x / np.linalg.norm(x)

    basis = []
    alphas, betas = [], []
    v = x
    v_prev = None
    beta = 0.0
    best = 0.0
    for it in range(min(LANCZOS_ITERATIONS, n)):
        w = apply_fn(v)
        if not hermitian:
            if not np.any(w):
                return 0.0
            w = adjoint_fn(w)
        elif it == 0 and not np.any(w):
            return 0.0
        alpha = float(np.real(np.vdot(v, w)))
        w = w - alpha * v - (beta * v_prev if v_prev is not None else 0.0)
        for u in basis:  # full reorthogonalization
            w = w - np.vdot(u, w) * u
        basis.append(v)
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        tmat = np.diag(alphas)
        if len(alphas) > 1:
            off = np.array(betas)
            tmat += np.diag(off, 1) + np.diag(off, -1)
        evals = np.linalg.eigvalsh(tmat)
        lam = float(np.abs(evals).max())
        value = lam if hermitian else np.sqrt(max(lam, 0.0))
        if it > 2 and abs(value - best) <= rtol * max(value, 1e-300):
            return value
        best = value
        if beta <= 1e-14 * max(abs(alpha), 1.0):
            return value
        betas.append(beta)
        v_prev = v
        v = w / beta
    return best
