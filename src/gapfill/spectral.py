"""Eigensolvers, spectral intervals and Chebyshev functional calculus.

Full-mode diagonalization goes through LAPACK with per-pair residual
certificates.  Window mode runs Chebyshev-filtered subspace iteration on
sparse matvecs: the returned pairs carry the same residual certificate, and
completeness is certified through the filtered trace count: every captured
in-window pair accounts for one unit of trace(p(H)), and the norm of the
filter deflated by the captured subspace bounds the filter value of
anything that escaped, so it must stay below the window floor for the
counts to agree within 0.5.

Filters are Chebyshev expansions on a stated spectral enclosure [a, b];
applying one to a vector through the three-term recurrence grows the support
by exactly one hop per degree, which is what all finite-propagation
bookkeeping in :mod:`gapfill.coarse` relies on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from numpy.polynomial import chebyshev as npcheb

from .errors import (DenseCapExceeded, EnclosureViolation, IncompleteSpectrum,
                     MarginTooSmall, WindowNotConverged)
from .model import HermitianOperator

DENSE_CAP_DEFAULT = 6000
DEGREE_CAP_DEFAULT = 4096
RESIDUAL_FACTOR = 1e-9


def dense_cap() -> int:
    """Configured dense eigensolve cap (env GAPFILL_DENSE_CAP overrides)."""
    return int(os.environ.get("GAPFILL_DENSE_CAP", DENSE_CAP_DEFAULT))


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
    """Sorted eigenvalues with residual certificates and gap decomposition.

    coverage is "full" for complete dense solves, else the (lower, upper)
    window over which the eigenvalue list is certified complete.
    eigenvectors is None unless the caller asked to keep them.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    clusters: tuple
    gaps: tuple
    coverage: object
    norm_bound: float
    cluster_tol: float
    eigenvectors: np.ndarray | None = None

    @property
    def complete(self) -> bool:
        return self.coverage == "full"

    def cluster_id(self, i: int) -> int:
        for cid, (a, b) in enumerate(self.clusters):
            if a <= i < b:
                return cid
        return -1


@dataclass(frozen=True)
class Window:
    """Window-mode request: all eigenpairs in (lower, upper), at most max_pairs."""

    lower: float
    upper: float
    max_pairs: int = 256


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
    ev = report.eigenvalues
    if report.coverage != "full" and len(ev) < 2:
        raise IncompleteSpectrum("window report with fewer than two eigenvalues")
    return _gaps_between(ev, min_width)


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

    Requires a complete report (IncompleteSpectrum otherwise) so that the
    endpoint distances are certified over the whole spectrum.
    """
    if not report.complete:
        raise IncompleteSpectrum("interval certification needs a full-mode report")
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
    center, half = 0.5 * (b + a), 0.5 * (b - a)
    c = coefficients
    t0 = np.array(v, dtype=complex)
    out = c[0] * t0
    if len(c) == 1:
        return out
    t1 = (matrix @ t0 - center * t0) / half
    out = out + c[1] * t1
    for j in range(2, len(c)):
        t2 = 2.0 * (matrix @ t1 - center * t1) / half - t0
        out = out + c[j] * t2
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


def eigensolve(op: HermitianOperator, mode="full", *, cluster_tol: float | None = None,
               gaps_min_width: float | None = None, keep_vectors: bool = False,
               seed: int = 0) -> SpectrumReport:
    """Certified eigenvalues of a Hermitian operator.

    mode "full" diagonalizes densely (dimension <= dense cap) and certifies
    every pair to ||Hv - lambda v|| <= 1e-9 ||H||.  A :class:`Window` mode
    returns all eigenpairs inside the window via Chebyshev-filtered subspace
    iteration with the same residual certificate plus a completeness check.
    """
    if isinstance(mode, Window):
        return _eigensolve_window(op, mode, cluster_tol, seed)
    if mode != "full":
        raise ValueError(f"mode must be 'full' or a Window, got {mode!r}")
    n = op.dimension
    cap = dense_cap()
    if n > cap:
        raise DenseCapExceeded(f"dimension {n} exceeds dense cap {cap}")
    w, v = scipy.linalg.eigh(op.matrix.toarray(), driver="evr",
                             overwrite_a=True, check_finite=False)
    res = np.linalg.norm(op.matrix @ v - v * w, axis=0)
    report = spectrum_report(w, res, v if keep_vectors else None,
                             cluster_tol=cluster_tol, gaps_min_width=gaps_min_width)
    tol = residual_tolerance(report.norm_bound)
    if res.max() > tol:
        raise WindowNotConverged(f"dense residual {res.max():.3e} above {tol:.3e}")
    return report


def residual_tolerance(norm_bound: float) -> float:
    """Largest certified residual ||Hv - lambda v|| for an operator of that norm."""
    return RESIDUAL_FACTOR * max(norm_bound, 1.0)


def spectrum_report(w: np.ndarray, residuals: np.ndarray, vectors=None, *,
                    coverage="full", norm_bound: float | None = None,
                    cluster_tol: float | None = None,
                    gaps_min_width: float | None = None) -> SpectrumReport:
    """Clusters and gaps of sorted certified eigenvalues, with their defaults.

    norm_bound defaults to max |lambda|, which bounds ||H|| for a complete
    spectrum.  Every solver route builds its report here.
    """
    if norm_bound is None:
        norm_bound = float(np.abs(w).max()) if len(w) else 0.0
    ctol = cluster_tol if cluster_tol is not None else _default_cluster_tol(w)
    gmw = gaps_min_width if gaps_min_width is not None else _default_gap_width(w)
    return SpectrumReport(w, residuals, _cluster(w, ctol), tuple(_gaps_between(w, gmw)),
                          coverage, norm_bound, ctol, vectors)


def _default_cluster_tol(w: np.ndarray) -> float:
    spread = float(w[-1] - w[0]) if len(w) > 1 else 1.0
    return max(1e-8 * spread, 1e-12)


def _default_gap_width(w: np.ndarray) -> float:
    spread = float(w[-1] - w[0]) if len(w) > 1 else 1.0
    return 0.01 * spread


def _orth(v: np.ndarray) -> np.ndarray:
    qmat, _ = np.linalg.qr(v)
    return qmat


WINDOW_CAPTURE_LEVEL = 0.45  # erf filter sits at 0.5 exactly on the window edges


def _eigensolve_window(op: HermitianOperator, win: Window, cluster_tol, seed):
    """Chebyshev-filtered subspace iteration over (win.lower, win.upper).

    The filter p is a smoothed indicator of the window (p = 1/2 exactly on
    the edges).  The iteration keeps a block larger than the estimated
    count and locks once every Ritz pair with p(theta) above the capture
    level meets the residual certificate.  Completeness is certified by the
    filtered trace count: captured in-window pairs each account for one
    unit of trace(p(H)) mass (their residuals pin them), and the norm of
    the deflated filter p(H)(1 - VV*) bounds the filter value of any
    eigenvalue that escaped the subspace.  A missed window eigenvalue would
    keep that norm >= 1/2, so the certified miss count is 0 whenever the
    deflated norm stays below the capture level; otherwise the filtered
    trace count disagrees with the pair count by >= 1 and the solve fails.
    """
    n = op.dimension
    lo, hi = win.lower, win.upper
    if not lo < hi:
        raise ValueError("window needs lower < upper")
    a, b = op.gershgorin()
    a -= 1e-9 * (abs(a) + 1)
    b += 1e-9 * (abs(b) + 1)
    norm_bound = max(abs(a), abs(b))
    tol = residual_tolerance(norm_bound)
    width = hi - lo
    rng = np.random.default_rng(seed)

    smoothing = width / 12.0
    degree = 64
    filt = None
    while degree <= DEGREE_CAP_DEFAULT:
        filt = smoothed_indicator_filter(lo, hi, smoothing, (a, b), degree)
        if filt.uniform_error <= 1e-3:
            break
        degree *= 2
    if filt is None or filt.uniform_error > 1e-3:
        raise WindowNotConverged("window filter did not reach 1e-3 within the degree cap")

    matrix = op.matrix

    def filt_apply(block):
        return _cheb_apply(matrix, filt.coefficients, a, b, block)

    def filt_power(block):
        # cubing the filter per Rayleigh-Ritz round sharpens the wanted /
        # unwanted amplification ratio when the window edge sits close to
        # surrounding spectrum
        for _ in range(3):
            block = filt_apply(block)
        return block

    # stochastic trace estimate of p(H) sizes the block (tail mass only
    # inflates it, which is safe)
    m0 = min(24, n)
    z = rng.choice([-1.0, 1.0], size=(n, m0))
    count_est = float(np.einsum("ij,ij->", z, filt_apply(z).real) / m0)
    block_cap = min(n, max(64, 3 * win.max_pairs))
    block = int(np.clip(np.ceil(max(count_est, 0.0) * 1.2) + 8, 8, block_cap))

    v = _orth(rng.standard_normal((n, block)) + 1j * rng.standard_normal((n, block)))
    keep = None
    rho = np.inf
    for it in range(60):
        v = _orth(filt_power(v))
        hv = matrix @ v
        smat = v.conj().T @ hv
        smat = 0.5 * (smat + smat.conj().T)
        theta, u = np.linalg.eigh(smat)
        vecs = v @ u
        hvecs = hv @ u
        res = np.linalg.norm(hvecs - vecs * theta, axis=0)
        # only residual-certified Ritz pairs count: unconverged directions
        # are mixtures of transition states whose Rayleigh quotients can
        # land anywhere in the window (ghosts), and they never converge
        converged = res <= tol
        inside = (theta > lo) & (theta < hi)
        if it >= 3 and it % 3 == 0:
            cvecs = vecs[:, converged]

            def deflated(x):
                x = x - cvecs @ (cvecs.conj().T @ x)
                y = filt_apply(x)
                return y - cvecs @ (cvecs.conj().T @ y)

            rho = operator_norm(deflated, n, hermitian=True, rtol=1e-2,
                                iterations=25, seed=seed + 1)
            if rho < WINDOW_CAPTURE_LEVEL:
                keep = (theta[inside & converged], res[inside & converged],
                        vecs[:, inside & converged])
                break
        if it in (12, 24, 36) and block < block_cap:
            extra = _orth(rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8)))
            v = _orth(np.hstack([vecs, extra]))
            block = v.shape[1]
        else:
            v = vecs
    if keep is None:
        raise WindowNotConverged(
            f"subspace iteration budget exhausted (deflated filter norm {rho:.3f})")

    w_in, r_in, v_in = keep
    count = int(len(w_in))
    if count > win.max_pairs:
        raise WindowNotConverged(f"{count} pairs in window exceed max_pairs={win.max_pairs}")
    # filtered trace count: each captured in-window pair accounts for one
    # unit of trace(p(H)); the deflated norm certificate (rho < capture
    # level < p on the window) leaves no room for a missed unit
    trace_count = count + (0 if rho < WINDOW_CAPTURE_LEVEL else 1)
    if abs(trace_count - count) > 0.5:
        raise WindowNotConverged(
            f"completeness check failed: filtered trace count {trace_count} vs {count}")

    order = np.argsort(w_in)
    return spectrum_report(w_in[order], r_in[order], v_in[:, order], coverage=(lo, hi),
                           norm_bound=norm_bound, cluster_tol=cluster_tol)


# ---------------------------------------------------------------------------
# spectral projections


def spectral_projection(op: HermitianOperator, interval: SpectralInterval,
                        tol: float = 1e-6, degree_cap: int = DEGREE_CAP_DEFAULT) -> np.ndarray:
    """Projection onto the interval as a fixed polynomial of the operator.

    The sharp indicator is replaced by a smooth surrogate whose transition
    bands (width = interval.margin, centered on the endpoints) avoid the
    spectrum by the interval's certificate: an erf-smoothed indicator
    expanded in Chebyshev polynomials, composed with projector-sharpening
    steps P -> 3P^2 - 2P^3 until the eigenvalue images sit within tol of
    {0, 1}.  The composite is still a polynomial of the operator, so it
    commutes with it by construction; MarginTooSmall if the base expansion
    cannot reach the transition floor within the degree cap.
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
        dev = operator_norm(lambda x: p2 @ x - p @ x, op.dimension, hermitian=True,
                            rtol=1e-2, iterations=20)
        if dev <= tol:
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
    """Spectral norm of a matrix-free operator, power/Lanczos certified.

    A fully reorthogonalized Lanczos tridiagonalization runs on A itself
    when Hermitian, else on A*A (adjoint_fn required); the leading power
    iterate doubles as the start vector.  Iterates until two consecutive
    Ritz values agree to rtol or the basis breaks down (beta ~ 0, which
    certifies the Krylov space is exhausted - in particular a zero operator
    returns exactly 0.0 after one application).
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
