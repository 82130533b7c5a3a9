import numpy as np
import pytest
import scipy.sparse as sp

from gapfill import spectral
from gapfill.errors import EnclosureViolation, MarginTooSmall, RepeatedSelection
from gapfill.model import (HalfPlaneShape, HermitianOperator, MagneticLattice,
                           assemble_bulk, assemble_restricted, build_gauge,
                           make_mask, mask_all)
from gapfill.spectral import (SpectralInterval, _cheb_fit, apply_filter,
                              certify_interval, detect_gaps, gaussian_filter,
                              materialize_filter, operator_norm,
                              polynomial_filter, smoothed_indicator_filter,
                              spectral_projection)


def toy_diagonal(values):
    n = len(values)
    matrix = sp.csr_matrix(sp.diags(np.asarray(values, complex)))
    sites = np.column_stack([np.zeros(n, int), np.arange(n)])
    ids = np.arange(n, dtype=np.int64).reshape(1, n)
    return HermitianOperator(matrix, sites, ids, 1.0, 0)


def toy_pair():
    """The 2 x 2 operator [[2, 1], [1, 2]] on two sites of one x-column."""
    matrix = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]], complex))
    return HermitianOperator(matrix, np.array([[0, 0], [0, 1]]),
                             np.arange(2, dtype=np.int64).reshape(1, 2), 1.0, 1)


def pair_chain():
    """toy_pair as one tridiagonal chain of its two sites."""
    return spectral.ChainOperator(toy_pair(), np.array([[2.0, 2.0]]), np.array([[1.0 + 0j]]),
                                  np.ones((2, 1), complex), np.arange(2))


def bulk(k=1, q=6, cells=3):
    lat = MagneticLattice(k, q, cells, cells, "torus")
    return lat, assemble_bulk(lat, build_gauge(lat))


def window_spectrum(op):
    return spectral.banded_spectrum(spectral.banded(op))


class TestEigensolveFull:
    def test_diagonal_toy(self):
        # the one gap (0, 8 pi) is certified by inertia counts at its ends
        rep = window_spectrum(toy_diagonal([0.0, 8 * np.pi]))
        assert np.allclose(rep.eigenvalues, [0.0, 8 * np.pi])
        assert rep.residuals is None
        assert [(g.lower, g.upper) for g in rep.gaps] == [(0.0, 8 * np.pi)]

    def test_degenerate_spectrum_has_no_gap(self):
        # spread 0 makes the default gap width 0; equal eigenvalues still
        # bound no gap
        rep = window_spectrum(toy_diagonal([5.0, 5.0]))
        assert rep.gaps == ()
        assert detect_gaps(rep.eigenvalues, 0.0) == []

    def test_wide_window_is_banded_across_its_short_side(self, dense_spectrum):
        # 12 x 1 cells at q=4: 48 x-columns of 4 sites, so the bandwidth is
        # the 4-site column, not the 48-site y-row
        lat = MagneticLattice(1, 4, 12, 1, "masked")
        op = assemble_restricted(lat, build_gauge(lat), mask_all(lat))
        b = spectral.banded(op)
        assert (b.bandwidth, len(b.rows)) == (4, 48)
        rep, dense = spectral.banded_spectrum(b), dense_spectrum(op)
        assert len(rep.gaps) == len(dense.gaps)
        assert np.abs(rep.eigenvalues - dense.eigenvalues).max() <= 1e-10 * max(dense.norm_bound, 1.0)

    def test_landau_cluster_count(self, torus_reports):
        # one lowest-level state per flux quantum: 2k per cell x 16 cells
        rep = torus_reports(1, 8, 4)
        a, b = spectral._cluster(rep.eigenvalues, 0.1 * 8 * np.pi)[0]
        assert b - a == 32


class TestInverseIteration:
    # each eigenvalue below makes a pivot of H - lambda exactly zero, so the
    # first banded solve at lambda is singular
    @pytest.mark.parametrize("op", [toy_pair(), toy_diagonal([1.0, 2.0, 3.0])],
                             ids=["pair", "diagonal"])
    def test_exact_pivot_zero_shift(self, op):
        b = spectral.banded(op)
        w = b.eigenvalues
        assert list(w) == list(np.linalg.eigvalsh(op.matrix.toarray()))
        v, res = b.vectors(np.arange(len(w)))
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() < 1e-10
        assert res.max() <= spectral.residual_tolerance(np.abs(w).max())

    @pytest.mark.parametrize("op", [toy_pair(), toy_diagonal([1.0, 2.0, 3.0])],
                             ids=["pair", "diagonal"])
    def test_exact_pivot_zero_shift_on_chains(self, op):
        # the pair as one chain of two sites, the diagonal as three chains of
        # one site each
        h = op.matrix.toarray()
        n = len(h)
        if np.count_nonzero(h - np.diag(np.diag(h))):
            c = spectral.ChainOperator(op, np.diag(h).real[None, :], np.diag(h, -1)[None, :],
                                       np.ones((n, 1), complex), np.arange(n))
        else:
            c = spectral.ChainOperator(op, np.diag(h).real[:, None], np.zeros((n, 0), complex),
                                       np.eye(n, dtype=complex), np.zeros(n, int))
        w = c.eigenvalues
        assert list(w) == list(np.linalg.eigvalsh(h))
        v, res = c.vectors(np.arange(n))
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-10
        assert res.max() <= spectral.residual_tolerance(np.abs(w).max())

    @pytest.mark.parametrize("kind", ["banded", "chains"])
    def test_repeated_index_is_refused(self, kind):
        # on the band the second copy of index 3 would be orthogonalized
        # against the first and fail its residual (8.9e-2); on the two-site
        # chain index -1 and index 1 name the same eigenvalue
        if kind == "banded":
            block, select, index = spectral.banded(masked_window()[1]), [3, 3], 3
        else:
            block, select, index = pair_chain(), [1, -1], 1
        with pytest.raises(RepeatedSelection, match=f"index {index} "):
            block.vectors(select)


class TestSturmCounts:
    def test_exact_zero_pivot(self):
        # at sigma = 2 the first pivot of [[2, 1], [1, 2]] - sigma is exactly
        # zero; the pivot floor counts it negative and keeps the next pivot
        # finite, so the count is the one eigenvalue 1 below 2
        assert list(pair_chain().counts([0.5, 1.5, 2.0, 2.5, 3.5])) == [0, 1, 1, 1, 2]


class TestGaps:
    def test_two_eigenvalue_gap(self):
        rep = window_spectrum(toy_diagonal([0.0, 8 * np.pi]))
        gaps = detect_gaps(rep.eigenvalues, min_width=1.0)
        assert len(gaps) == 1
        g = gaps[0]
        assert abs(g.lower) < 1e-12 and abs(g.upper - 8 * np.pi) < 1e-12
        assert g.margin == 0.0

    def test_gap_soundness(self, torus_reports):
        rep = torus_reports(1, 8, 4)
        for g in detect_gaps(rep.eigenvalues, min_width=0.5):
            inside = (rep.eigenvalues > g.lower) & (rep.eigenvalues < g.upper)
            assert not inside.any()

    def test_principal_gap_converges_to_continuum_interval(self, torus_reports):
        # W=0: endpoints approach (0, 8 pi) as h -> 0
        g8 = max(torus_reports(1, 8, 4).gaps, key=lambda g: g.width)
        g4 = max(torus_reports(1, 4, 4).gaps, key=lambda g: g.width)
        err8 = abs(g8.lower) + abs(g8.upper - 8 * np.pi)
        err4 = abs(g4.lower) + abs(g4.upper - 8 * np.pi)
        assert err8 < 0.4 * err4  # h^2 shrinkage

    def test_potential_keeps_certified_gap(self, dense_spectrum):
        # ||W||_inf = w > 0 shifts each band by at most w (bounded
        # perturbation), so the gap survives shrunk by at most w on each
        # side; at h -> 0 the unperturbed gap is (0, 8 pi k), recovering the
        # continuum statement that (w, 8 pi k - w) stays gapped.
        w = 0.8
        rng = np.random.default_rng(7)
        pot = w * (2 * rng.random((6, 6)) - 1)
        pot[0, 0] = w  # pin the sup norm
        lat0 = MagneticLattice(1, 6, 3, 3, "torus")
        rep0 = dense_spectrum(assemble_bulk(lat0, build_gauge(lat0)))
        gap0 = next(g for g in rep0.gaps if g.contains(4 * np.pi))
        lat = MagneticLattice(1, 6, 3, 3, "torus", pot)
        rep = dense_spectrum(assemble_bulk(lat, build_gauge(lat)))
        gap = next(g for g in rep.gaps if g.contains(4 * np.pi))
        assert gap.lower <= gap0.lower + w + 1e-9
        assert gap.upper >= gap0.upper - w - 1e-9

    def test_certify_interval_margin(self):
        rep = window_spectrum(toy_diagonal([0.0, 10.0]))
        ival = certify_interval(rep, 2.0, 7.0)
        assert ival.margin == pytest.approx(2.0)


def masked_window(k=1, q=4, cells=3):
    lat = MagneticLattice(k, q, cells, cells, "masked")
    return lat, assemble_restricted(lat, build_gauge(lat), make_mask(lat, HalfPlaneShape(2.0)))


class TestFilters:
    @pytest.mark.parametrize("window", [bulk, masked_window], ids=["torus", "masked"])
    @pytest.mark.parametrize("kind", ["polynomial", "smoothed_indicator"])
    def test_cheb_apply_matches_dense_oracle(self, window, kind, rng):
        _, op = window(1, 4, 3)
        a, b = op.gershgorin()
        encl = (a - 1.0, b + 1.0)
        if kind == "polynomial":
            filt = polynomial_filter([0.5, -1 / 32, 1 / 64 ** 2, 1 / 64 ** 3, 1 / 64 ** 4],
                                     encl)
        else:
            filt = smoothed_indicator_filter(2.0, 8 * np.pi - 2.0, 3.0, encl, 120)
        w, vecs = np.linalg.eigh(op.matrix.toarray())
        pw = filt.evaluate(w)
        tol = 1e-10 * max(np.abs(pw).max(), 1.0)
        shape = (op.dimension, 3)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v /= np.linalg.norm(v, axis=0)
        ref = vecs @ (pw[:, None] * (vecs.conj().T @ v))
        out = spectral._cheb_apply(op.matrix, filt.coefficients, *encl, v)
        assert np.linalg.norm(out - ref, axis=0).max() <= tol
        single = spectral._cheb_apply(op.matrix, filt.coefficients, *encl, v[:, 0])
        assert np.linalg.norm(single - ref[:, 0]) <= tol

    def test_degree_zero_is_identity(self):
        _, op = bulk()
        a, b = op.gershgorin()
        filt = polynomial_filter([1.0], (a, b))
        v = np.zeros(op.dimension)
        v[7] = 1.0
        assert np.array_equal(apply_filter(op, filt, v), v.astype(complex))

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 7])
    def test_support_grows_one_hop_per_degree(self, degree):
        lat = MagneticLattice(1, 4, 3, 3, "masked")
        from gapfill.model import assemble_restricted, mask_all
        op = assemble_restricted(lat, build_gauge(lat), mask_all(lat))
        a, b = op.gershgorin()
        coeffs = np.zeros(degree + 1)
        coeffs[-1] = 1.0
        filt = polynomial_filter(coeffs, (a, b))
        center = op.ids[lat.n_x // 2, lat.n_y // 2]
        v = np.zeros(op.dimension)
        v[center] = 1.0
        out = apply_filter(op, filt, v)
        dx = np.abs(op.sites - op.sites[center])
        graph_dist = dx.sum(axis=1)
        assert np.all(out[graph_dist > degree] == 0.0)  # bitwise
        assert np.any(out[graph_dist == degree] != 0.0)

    def test_gaussian_mass_beyond_m_hops_within_coefficient_tail(self):
        # p(H) delta_v beyond m hops of v comes from the degrees j >= m
        # alone, each |T_j(H~)| <= 1: that mass is at most sum_{j>=m} |c_j|
        # and falls below 1e-8 within 8 magnetic lengths (~2.26 continuum
        # units; measured crossing: 17 hops, 2.125)
        lat = MagneticLattice(1, 8, 4, 4, "masked")
        op = assemble_restricted(lat, build_gauge(lat), mask_all(lat))
        a, b = op.gershgorin()
        filt = gaussian_filter(4 * np.pi, 100.0, (a - 1, b + 1), 160)
        center = op.ids[lat.n_x // 2, lat.n_y // 2]
        v = np.zeros(op.dimension)
        v[center] = 1.0
        out = apply_filter(op, filt, v)
        hops = np.abs(op.sites - op.sites[center]).sum(axis=1)
        tails = np.abs(filt.coefficients[::-1]).cumsum()[::-1]
        for m in range(1, hops.max() + 1):
            mass = np.linalg.norm(out[hops >= m])
            assert mass <= tails[m] + 1e-12
            if m * lat.h >= 8 * lat.magnetic_length:
                assert mass <= 1e-8

    def test_gaussian_degree80_tail_oracle(self):
        # coefficient tail sum bounds the uniform error below 1e-8
        lat = MagneticLattice(1, 8, 4, 4, "torus")
        op = assemble_bulk(lat, build_gauge(lat))
        a, b = op.gershgorin()
        encl = (a - 1, b + 1)
        sigma = 25.0
        filt = gaussian_filter(4 * np.pi, sigma, encl, 80)

        def f(x):
            return np.exp(-0.5 * ((x - 4 * np.pi) / sigma) ** 2)
        c_long = _cheb_fit(f, encl[0], encl[1], 700)
        tail = np.abs(c_long[81:]).sum() + 1e-13
        assert filt.uniform_error <= 1e-8
        assert filt.uniform_error <= 2 * tail + 1e-12

    def test_enclosure_violation(self):
        _, op = bulk()
        filt = polynomial_filter([0.0, 1.0], (-1.0, 1.0))
        with pytest.raises(EnclosureViolation):
            apply_filter(op, filt, np.zeros(op.dimension))

    def test_probe_points_within_stated_bound(self):
        _, op = bulk()
        a, b = op.gershgorin()
        filt = smoothed_indicator_filter(2.0, 20.0, 3.0, (a - 1, b + 1), 120)
        xs = np.linspace(a - 1, b + 1, 64)
        err = np.abs(filt.evaluate(xs) - filt.target(xs)).max()
        assert err <= filt.uniform_error + 1e-14


@pytest.fixture(scope="module")
def setup(dense_spectrum):
    lat, op = bulk(1, 6, 3)
    rep = dense_spectrum(op)
    return lat, op, rep


class TestProjection:
    def test_projection_onto_lowest_landau_group(self, setup):
        lat, op, rep = setup
        ival = certify_interval(rep, -1.0, 4 * np.pi)
        p = spectral_projection(op, ival, tol=1e-6)
        n = op.dimension
        assert np.linalg.norm(p @ p - p, 2) <= 1e-6
        h = op.matrix.toarray()
        assert np.linalg.norm(p @ h - h @ p, 2) <= 1e-6 * rep.norm_bound
        count = int(((rep.eigenvalues > -1.0) & (rep.eigenvalues < 4 * np.pi)).sum())
        assert count == 2 * lat.cells_x * lat.cells_y
        assert round(p.trace().real) == count

    def test_interval_containing_everything(self, setup):
        _, op, rep = setup
        ival = certify_interval(rep, rep.eigenvalues[0] - 5, rep.eigenvalues[-1] + 5)
        p = spectral_projection(op, ival, tol=1e-6)
        assert np.abs(p - np.eye(op.dimension)).max() <= 1e-6

    def test_interval_below_spectrum(self, setup):
        _, op, rep = setup
        ival = certify_interval(rep, rep.eigenvalues[0] - 20, rep.eigenvalues[0] - 4)
        p = spectral_projection(op, ival, tol=1e-6)
        assert np.abs(p).max() <= 1e-6

    def test_returned_projector_meets_frobenius_tolerance(self, setup):
        _, op, rep = setup
        ival = certify_interval(rep, -1.0, 4 * np.pi)
        p = spectral_projection(op, ival, tol=1e-9)
        assert np.linalg.norm(p @ p - p, "fro") <= 1e-9

    def test_tolerance_below_rounding_rejected(self, setup):
        _, op, rep = setup
        ival = certify_interval(rep, -1.0, 4 * np.pi)
        with pytest.raises(MarginTooSmall, match="sharpening"):
            spectral_projection(op, ival, tol=1e-20)

    def test_margin_zero_rejected(self, setup):
        _, op, _ = setup
        with pytest.raises(MarginTooSmall):
            spectral_projection(op, SpectralInterval(-1.0, 4 * np.pi, 0.0))


class TestPiFluxOracle:
    def test_closed_form_spectrum(self):
        # flux 1/2 per plaquette (k=1, q=2), pure hopping normalization:
        # E = +-2 sqrt(cos^2(pi a / (n/2)) + cos^2(2 pi b / n))
        lat = MagneticLattice(1, 2, 6, 6, "torus")
        op = assemble_bulk(lat, build_gauge(lat))
        dense = op.matrix.toarray()
        hopping = (dense - np.diag(np.diag(dense))) * lat.h ** 2
        ev = np.linalg.eigvalsh(hopping)
        n = lat.n_x
        vals = []
        for a in range(n // 2):
            for b in range(n):
                e = 2 * np.sqrt(np.cos(np.pi * a / (n // 2)) ** 2
                                + np.cos(2 * np.pi * b / n) ** 2)
                vals += [-e, e]
        assert np.abs(np.sort(vals) - ev).max() < 1e-12


class TestOperatorNorm:
    def test_known_norm(self, rng):
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        a = a + a.conj().T
        ref = np.abs(np.linalg.eigvalsh(a)).max()
        est = operator_norm(lambda x: a @ x, 40, hermitian=True, rtol=1e-6)
        assert abs(est - ref) <= 1e-4 * ref

    def test_zero_operator(self):
        est = operator_norm(lambda x: np.zeros_like(x), 17, hermitian=True)
        assert est == 0.0

    def test_nonhermitian_with_adjoint(self, rng):
        a = rng.standard_normal((30, 30))
        ref = np.linalg.norm(a, 2)
        est = operator_norm(lambda x: a @ x, 30, adjoint_fn=lambda x: a.T @ x,
                            rtol=1e-6)
        assert abs(est - ref) <= 1e-3 * ref


class TestMaterializedFilter:
    def test_hop_range_metadata_and_support(self):
        lat = MagneticLattice(1, 4, 2, 2, "masked")
        from gapfill.model import assemble_restricted, mask_all
        op = assemble_restricted(lat, build_gauge(lat), mask_all(lat))
        a, b = op.gershgorin()
        filt = polynomial_filter([0.0, 0.0, 1.0], (a, b))
        mat = materialize_filter(op, filt)
        assert mat.hop_range == 2
        coo = mat.matrix.tocoo()
        for r, c in zip(coo.row, coo.col):
            assert np.abs(op.sites[r] - op.sites[c]).sum() <= 2
