"""Eigensolvers, spectral intervals and Chebyshev functional calculus.

Two eigensolver routes, chosen by the kind of operator.  A strip momentum
block is one cell wide, so in y-major row order it is banded (bandwidth q)
and block tridiagonal over its y-rows: :func:`banded` stores it as a LAPACK
band, :func:`banded_eigenvalues` gives its whole spectrum without vectors,
:func:`banded_vectors` computes the eigenvectors a caller names by inverse
iteration, each certified by its residual, and :func:`inertia` counts the
eigenvalues below a shift by a block LDL^H factorization (Sylvester's law
of inertia), which :func:`certify_counts` checks against the banded
eigenvalues.  Every other operator (masked windows, strips that are not
cell-periodic) takes :func:`eigensolve`: one dense LAPACK diagonalization
up to the fixed dimension cap DENSE_CAP, with a per-pair residual
certificate, so its report holds the complete spectrum and gap detection
and interval certification run over all of it.

Filters are Chebyshev expansions on a stated spectral enclosure [a, b];
applying one to a vector through the three-term recurrence grows the support
by exactly one hop per degree, which is what all finite-propagation
bookkeeping in :mod:`gapfill.coarse` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from numpy.polynomial import chebyshev as npcheb

from .errors import (CountNotCertified, DenseCapExceeded, EnclosureViolation,
                     MarginTooSmall, ResidualNotCertified)
from .model import HermitianOperator

DENSE_CAP = 6000
DEGREE_CAP_DEFAULT = 4096
RESIDUAL_FACTOR = 1e-9
INVERSE_STEPS = 2      # solves per inverse-iteration vector
ORTHO_CLUSTER = 1e-3   # relative eigenvalue spacing below which vectors are orthogonalized
PIVOT_FLOOR = 1e-3     # relative size below which a pivot direction is deferred


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

    def inset(self, delta: float) -> "SpectralInterval":
        """Shrink both ends by delta; the margin grows by the same amount."""
        return SpectralInterval(self.lower + delta, self.upper - delta,
                                self.margin + delta)

    def contains(self, x: float) -> bool:
        return self.lower < x < self.upper


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Complete sorted spectrum with residual certificates and gap decomposition.

    eigenvectors is None unless the caller asked to keep them.  solved_blocks
    counts the diagonalized blocks: 1 for a dense solve, one per
    magnetic-translation orbit of Bloch fibers for a torus.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    clusters: tuple
    gaps: tuple
    norm_bound: float
    cluster_tol: float
    eigenvectors: np.ndarray | None = None
    solved_blocks: int = 1

    def cluster_id(self, i: int) -> int:
        for cid, (a, b) in enumerate(self.clusters):
            if a <= i < b:
                return cid
        return -1


def _cluster(eigenvalues: np.ndarray, tol: float) -> tuple:
    """Index ranges of eigenvalue groups separated by spacings > tol."""
    if len(eigenvalues) == 0:
        return ()
    breaks = np.flatnonzero(np.diff(eigenvalues) > tol)
    starts = np.concatenate([[0], breaks + 1])
    stops = np.concatenate([breaks + 1, [len(eigenvalues)]])
    return tuple((int(a), int(b)) for a, b in zip(starts, stops))


def detect_gaps(report: SpectrumReport, min_width: float) -> list[SpectralInterval]:
    """Maximal open intervals of width >= min_width between consecutive eigenvalues.

    The reported margin is a quarter of the gap width: insetting each end by
    the margin leaves an interval whose endpoints are at least margin away
    from every eigenvalue, which is exactly the room a downstream smoothed
    projector may use.
    """
    return _gaps_between(report.eigenvalues, min_width)


def _gaps_between(ev: np.ndarray, min_width: float) -> list[SpectralInterval]:
    """Spacings of at least min_width; equal neighbours never bound a gap."""
    gaps = []
    for a, b in zip(ev[:-1], ev[1:]):
        w = b - a
        if w >= min_width and w > 0:
            gaps.append(SpectralInterval(float(a), float(b), w / 4.0))
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
    params: dict
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
    return ChebFilter(degree, c, (a, b), "smoothed_indicator",
                      {"lo": lo, "hi": hi, "smoothing": smoothing}, err, f)


def gaussian_filter(center: float, sigma: float, enclosure: tuple,
                    degree: int) -> ChebFilter:
    """Gaussian bump exp(-(x-center)^2 / (2 sigma^2))."""
    a, b = enclosure

    def f(x):
        return np.exp(-0.5 * ((np.asarray(x, float) - center) / sigma) ** 2)
    c = _cheb_fit(f, a, b, degree)
    err = _uniform_error(f, c, a, b)
    return ChebFilter(degree, c, (a, b), "gaussian",
                      {"center": center, "sigma": sigma}, err, f)


def polynomial_filter(power_coefficients, enclosure: tuple) -> ChebFilter:
    """Exact polynomial given in the power basis; uniform error is 0 by definition."""
    a, b = enclosure
    pc = np.asarray(power_coefficients, float)
    # rescale x = c + e*t onto the enclosure before converting to the T-basis
    c0, e = 0.5 * (b + a), 0.5 * (b - a)
    shifted = np.zeros(1)
    basis = np.ones(1)
    for coef in pc:
        shifted = np.polynomial.polynomial.polyadd(shifted, coef * basis)
        basis = np.polynomial.polynomial.polymul(basis, [c0, e])
    cheb = npcheb.poly2cheb(shifted)
    deg = len(pc) - 1

    def f(x):
        return np.polynomial.polynomial.polyval(np.asarray(x, float), pc)
    return ChebFilter(deg, cheb, (a, b), "polynomial",
                      {"power_coefficients": tuple(float(v) for v in pc)}, 0.0, f)


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
    """Sum c_j T_j(H~) v, H~ = (H - center) / half for the enclosure [a, b].

    The recurrence runs on the scaled operator Hs = 2 H~, formed once per
    call entrywise from the matrix's own entries: (2/half) H_ij off the
    diagonal and (2/half)(H_ii - center) on it.  Then T_1 v = Hs v / 2, and
    each further degree is one sparse product, one in-place subtract and one
    in-place axpy: T_{j+1} v = Hs T_j v - T_{j-1} v, out += c_j T_{j+1} v.
    Two operators whose rows agree entrywise (a bulk operator and its
    Dirichlet restriction, on the interior rows) get identical Hs entries
    there, so the recurrence performs identical arithmetic on those rows and
    their difference stays bitwise zero beyond degree hops of where the
    rows differ.  v is a vector or a block of columns.

    The axpy scales into a reused scratch block and then adds, so each
    entry is rounded the same wherever it sits in the block; a fused BLAS
    axpy makes no such promise.
    """
    center, half = 0.5 * (b + a), 0.5 * (b - a)
    c = coefficients
    t0 = np.array(v, dtype=complex)
    out = c[0] * t0
    if len(c) == 1:
        return out
    hs = (matrix - center * sp.identity(matrix.shape[0], format="csr")) * (2.0 / half)
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
    prov = dict(op.provenance)
    prov["filtered_by"] = (filt.target_description, filt.degree)
    return HermitianOperator(matrix, op.sites, op.ids, op.h,
                             filt.degree * op.hop_range, prov)


# ---------------------------------------------------------------------------
# eigensolve


def eigensolve(op: HermitianOperator, *, cluster_tol: float | None = None,
               keep_vectors: bool = False) -> SpectrumReport:
    """Complete certified spectrum of a Hermitian operator.

    Diagonalizes densely (DenseCapExceeded above DENSE_CAP rows, before any
    dense array is built) and certifies every pair to
    ||Hv - lambda v|| <= 1e-9 max(||H||, 1) (ResidualNotCertified otherwise).
    """
    n = op.dimension
    if n > DENSE_CAP:
        raise DenseCapExceeded(f"dimension {n} exceeds dense cap {DENSE_CAP}")
    w, v = scipy.linalg.eigh(op.matrix.toarray(), driver="evr",
                             overwrite_a=True, check_finite=False)
    res = np.linalg.norm(op.matrix @ v - v * w, axis=0)
    report = spectrum_report(w, res, v if keep_vectors else None, cluster_tol=cluster_tol)
    tol = residual_tolerance(report.norm_bound)
    if res.max() > tol:
        raise ResidualNotCertified(f"dense residual {res.max():.3e} above {tol:.3e}")
    return report


def residual_tolerance(norm_bound: float) -> float:
    """Largest certified residual ||Hv - lambda v|| for an operator of that norm."""
    return RESIDUAL_FACTOR * max(norm_bound, 1.0)


def spectrum_report(w: np.ndarray, residuals: np.ndarray, vectors=None, *,
                    cluster_tol: float | None = None,
                    solved_blocks: int = 1) -> SpectrumReport:
    """Clusters and gaps of a complete sorted certified spectrum, with their defaults.

    The norm bound is max |lambda|, which is ||H|| for a complete spectrum.
    Both solver routes (dense and Bloch fibers) build their report here.
    """
    norm_bound = float(np.abs(w).max()) if len(w) else 0.0
    ctol = cluster_tol if cluster_tol is not None else _default_cluster_tol(w)
    return SpectrumReport(w, residuals, _cluster(w, ctol),
                          tuple(_gaps_between(w, _default_gap_width(w))),
                          norm_bound, ctol, vectors, solved_blocks)


# ---------------------------------------------------------------------------
# banded solves


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """A Hermitian operator with its rows in y-major order, as a LAPACK lower band.

    Band row i is operator row order[i]; band[d, j] = H[j + d, j] in that
    order for 0 <= d <= bandwidth.  rows holds the band-row range of each
    y-row, the diagonal blocks of the block-tridiagonal LDL^H inertia count.
    """

    op: HermitianOperator
    order: np.ndarray
    band: np.ndarray
    rows: tuple

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1


def banded(op: HermitianOperator) -> BandedOperator:
    """The operator in y-major row order (sites sorted by (iy, ix)), stored as a band.

    A strip momentum block is one cell of q columns wide, so its x links
    stay within a y-row and its y links join consecutive y-rows: the
    bandwidth is at most q and the matrix is block tridiagonal over y-rows.
    """
    n = op.dimension
    order = np.lexsort((op.sites[:, 0], op.sites[:, 1]))
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
    coo = op.matrix.tocoo()
    r, c = pos[coo.row], pos[coo.col]
    low = r >= c
    band = np.zeros((int((r - c)[low].max()) + 1, n), complex)
    band[(r - c)[low], c[low]] = coo.data[low]
    iy = op.sites[order, 1]
    group = np.concatenate([[0], np.cumsum(np.diff(iy) != 0)])
    if np.abs(group[r] - group[c]).max() > 1:
        raise ValueError("operator is not block tridiagonal over its y-rows")
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    stops = np.append(starts[1:], n)
    return BandedOperator(op, order, band, tuple(zip(starts.tolist(), stops.tolist())))


def banded_eigenvalues(b: BandedOperator) -> np.ndarray:
    """All eigenvalues, ascending, from LAPACK's banded Hermitian solver (no vectors)."""
    return scipy.linalg.eig_banded(b.band, lower=True, eigvals_only=True,
                                   check_finite=False)


def banded_vectors(b: BandedOperator, eigenvalues: np.ndarray,
                   select) -> tuple[np.ndarray, np.ndarray]:
    """Certified eigenvectors of eigenvalues[select] by banded inverse iteration.

    eigenvalues is the complete spectrum from banded_eigenvalues.  Each
    vector takes INVERSE_STEPS solves of (H - lambda) x = x from one fixed
    start vector, orthogonalized against the vectors already computed for
    eigenvalues within ORTHO_CLUSTER * max(||H||, 1) of lambda.  Vectors
    come back in the operator's own row order, as columns, with their
    residuals ||Hv - lambda v||; ResidualNotCertified if any residual
    exceeds residual_tolerance(||H||).
    """
    n, bw = b.op.dimension, b.bandwidth
    norm = float(np.abs(eigenvalues).max())
    # general band layout of solve_banded: full[bw + i - j, j] = H[i, j]
    full = np.zeros((2 * bw + 1, n), complex)
    full[bw:] = b.band
    for d in range(1, bw + 1):
        full[bw - d, d:] = np.conj(b.band[d, :n - d])
    rng = np.random.default_rng(0)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    values = np.asarray(eigenvalues)[select]
    found = []
    for lam in values:
        shifted = full.copy()
        shifted[bw] -= lam
        near = [u for (mu, u) in zip(values, found)
                if abs(mu - lam) <= ORTHO_CLUSTER * max(norm, 1.0)]
        x = start
        for _ in range(INVERSE_STEPS):
            x = scipy.linalg.solve_banded((bw, bw), shifted, x, check_finite=False)
            for u in near:
                x = x - np.vdot(u, x) * u
            x = x / np.linalg.norm(x)
        found.append(x)
    vectors = np.zeros((n, len(values)), complex)
    vectors[b.order] = np.array(found).T.reshape(n, len(values))
    res = np.linalg.norm(b.op.matrix @ vectors - vectors * values, axis=0)
    tol = residual_tolerance(norm)
    if len(values) and res.max() > tol:
        raise ResidualNotCertified(
            f"inverse-iteration residual {res.max():.3e} above {tol:.3e}")
    return vectors, res


def _row_blocks(b: BandedOperator) -> tuple[list, list]:
    """Diagonal blocks H[row r, row r] and couplings H[row r, row r-1] of the y-rows."""
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


def inertia(b: BandedOperator, sigmas) -> np.ndarray:
    """nu(sigma) = #{eigenvalues < sigma} for each shift, by a block LDL^H over y-rows.

    H - sigma is block tridiagonal over the y-rows; eliminating them in
    order is a congruence H - sigma = L D L^H with D block diagonal, so by
    Sylvester's law of inertia nu(sigma) is the number of negative
    eigenvalues of the pivot blocks.  Each pivot is diagonalized; its
    eigen-directions with |d| >= PIVOT_FLOOR * ||H|| are eliminated, and the
    smaller ones are deferred into the next pivot (a symmetric pivoting
    that bounds the growth of the Schur complements by 1 / PIVOT_FLOOR).
    """
    blocks, couplings = _row_blocks(b)
    lo, hi = b.op.gershgorin()
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


def certify_counts(b: BandedOperator, eigenvalues: np.ndarray, sigmas) -> np.ndarray:
    """Inertia counts nu(sigma), checked against the computed eigenvalues.

    Each nu(sigma) must lie between the number of eigenvalues below
    sigma - tol and below sigma + tol, tol = residual_tolerance(||H||)
    (CountNotCertified otherwise): the count then certifies that no
    eigenvalue was lost or invented near sigma.
    """
    sig = np.atleast_1d(np.asarray(sigmas, float))
    nu = inertia(b, sig)
    tol = residual_tolerance(float(np.abs(eigenvalues).max()))
    low = np.searchsorted(eigenvalues, sig - tol)
    high = np.searchsorted(eigenvalues, sig + tol)
    bad = (nu < low) | (nu > high)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CountNotCertified(
            f"inertia counts {int(nu[i])} eigenvalues below {sig[i]:.12g}, the banded "
            f"solve {int(low[i])} (within {tol:.1e}: {int(high[i])})")
    return nu


def _default_cluster_tol(w: np.ndarray) -> float:
    spread = float(w[-1] - w[0]) if len(w) > 1 else 1.0
    return max(1e-8 * spread, 1e-12)


def _default_gap_width(w: np.ndarray) -> float:
    spread = float(w[-1] - w[0]) if len(w) > 1 else 1.0
    return 0.01 * spread


# ---------------------------------------------------------------------------
# spectral projections


def spectral_projection(op: HermitianOperator, interval: SpectralInterval,
                        tol: float = 1e-6, degree_cap: int = DEGREE_CAP_DEFAULT) -> np.ndarray:
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
    cap, or if eight sharpening steps do not reach tol.
    """
    if interval.margin <= 0:
        raise MarginTooSmall("spectral projection needs a certified interval (margin > 0)")
    a, b = op.gershgorin()
    a -= 1e-9 * (abs(a) + 1)
    b += 1e-9 * (abs(b) + 1)
    # smoothing margin/5 puts the erf floor off the transition bands at
    # erfc(5/(2 sqrt 2))/2 ~ 0.006, to be driven to tol by the sharpening steps
    smoothing = interval.margin / 5.0
    base_target = 0.02
    degree = 128
    filt = None
    while degree <= degree_cap:
        c = _cheb_fit(_erf_indicator(interval.lower, interval.upper, smoothing), a, b, degree)
        exclude = ((interval.lower - interval.margin / 2, interval.lower + interval.margin / 2),
                   (interval.upper - interval.margin / 2, interval.upper + interval.margin / 2))
        err = _uniform_error(_erf_indicator(interval.lower, interval.upper, smoothing),
                             c, a, b, exclude=exclude)
        floor = err + _erf_floor(interval.margin, smoothing)
        if floor <= base_target:
            filt = c
            break
        degree *= 2
    if filt is None:
        raise MarginTooSmall(
            f"degree cap {degree_cap} cannot resolve a transition of width "
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
                  rtol: float = 1e-3, iterations: int = 60, seed: int = 0) -> float:
    """Lanczos estimate of the spectral norm of a matrix-free operator.

    A fully reorthogonalized Lanczos tridiagonalization runs on A itself
    when Hermitian, else on A*A (adjoint_fn required), from a random start
    vector drawn from seed.  Iterates until two consecutive Ritz values
    agree to rtol or the basis breaks down (beta ~ 0: the Krylov space is
    exhausted - in particular a zero operator returns exactly 0.0 after one
    application).  Ritz values never exceed the norm, so the result is a
    lower estimate, not a certified bound.
    """
    if not hermitian and adjoint_fn is None:
        raise ValueError("non-Hermitian norm needs adjoint_fn")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = x / np.linalg.norm(x)

    basis = []
    alphas, betas = [], []
    v = x
    v_prev = None
    beta = 0.0
    best = 0.0
    for it in range(min(iterations, n)):
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
