import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from gapfill import spectral
from gapfill.errors import (DenseCapExceeded, EnclosureViolation,
                            MarginTooSmall, ResidualNotCertified)
from gapfill.model import (HermitianOperator, MagneticLattice, assemble_bulk,
                           build_gauge)
from gapfill.spectral import (DENSE_CAP, SpectralInterval, _cheb_fit,
                              apply_filter, certify_interval, detect_gaps,
                              eigensolve, gaussian_filter,
                              materialize_filter, operator_norm,
                              polynomial_filter, smoothed_indicator_filter,
                              spectral_projection)


def toy_diagonal(values):
    n = len(values)
    matrix = sp.csr_matrix(sp.diags(np.asarray(values, complex)))
    sites = np.column_stack([np.zeros(n, int), np.arange(n)])
    ids = np.arange(n, dtype=np.int64).reshape(1, n)
    return HermitianOperator(matrix, sites, ids, 1.0, 0, {})


def bulk(k=1, q=6, cells=3):
    lat = MagneticLattice(k, q, cells, cells, "torus")
    return lat, assemble_bulk(lat, build_gauge(lat))


class TestEigensolveFull:
    def test_diagonal_toy(self):
        op = toy_diagonal([0.0, 8 * np.pi])
        rep = eigensolve(op)
        assert np.allclose(rep.eigenvalues, [0.0, 8 * np.pi])
        assert np.all(rep.residuals == 0.0)

    def test_degenerate_spectrum_has_no_gap(self):
        # spread 0 makes the default gap width 0; equal eigenvalues still
        # bound no gap
        rep = eigensolve(toy_diagonal([5.0, 5.0]))
        assert rep.gaps == ()
        assert detect_gaps(rep, 0.0) == []

    def test_residual_certificates(self):
        _, op = bulk()
        rep = eigensolve(op)
        assert rep.residuals.max() <= 1e-9 * rep.norm_bound
        # assertable by direct multiplication
        rep2 = eigensolve(op, keep_vectors=True)
        v = rep2.eigenvectors
        direct = np.linalg.norm(op.matrix @ v - v * rep2.eigenvalues, axis=0)
        assert np.abs(direct - rep2.residuals).max() < 1e-12

    def test_residual_certificate_can_fail(self, monkeypatch):
        # a pair shifted off the spectrum by 1e-3 has residual 1e-3, far
        # above 1e-9 * ||H|| for this operator
        _, op = bulk()
        eigh = scipy.linalg.eigh

        def perturbed(a, **kwargs):
            w, v = eigh(a, **kwargs)
            return w + 1e-3, v

        monkeypatch.setattr(spectral.scipy.linalg, "eigh", perturbed)
        with pytest.raises(ResidualNotCertified, match="dense residual"):
            eigensolve(op)

    def test_dense_cap(self, monkeypatch):
        # the cap is checked on the sparse operator: no dense array is built
        def no_dense(*args, **kwargs):
            raise AssertionError("dense array built above the cap")

        monkeypatch.setattr(sp.csr_matrix, "toarray", no_dense)
        monkeypatch.setattr(spectral.scipy.linalg, "eigh", no_dense)
        with pytest.raises(DenseCapExceeded, match=f"dimension {DENSE_CAP + 1} "):
            eigensolve(toy_diagonal(np.arange(DENSE_CAP + 1.0)))

    def test_landau_cluster_count(self, torus_reports):
        # one lowest-level state per flux quantum: 2k per cell x 16 cells
        rep = torus_reports(1, 8, 4, cluster_tol=0.1 * 8 * np.pi)
        a, b = rep.clusters[0]
        assert b - a == 32


class TestGaps:
    def test_two_eigenvalue_gap(self):
        rep = eigensolve(toy_diagonal([0.0, 8 * np.pi]))
        gaps = detect_gaps(rep, min_width=1.0)
        assert len(gaps) == 1
        g = gaps[0]
        assert abs(g.lower) < 1e-12 and abs(g.upper - 8 * np.pi) < 1e-12
        assert g.margin == pytest.approx(g.width / 4)

    def test_gap_soundness(self, torus_reports):
        rep = torus_reports(1, 8, 4)
        for g in detect_gaps(rep, min_width=0.5):
            inside = (rep.eigenvalues > g.lower) & (rep.eigenvalues < g.upper)
            assert not inside.any()

    def test_principal_gap_converges_to_continuum_interval(self, torus_reports):
        # W=0: endpoints approach (0, 8 pi) as h -> 0
        g8 = max(torus_reports(1, 8, 4).gaps, key=lambda g: g.width)
        g4 = max(torus_reports(1, 4, 4).gaps, key=lambda g: g.width)
        err8 = abs(g8.lower) + abs(g8.upper - 8 * np.pi)
        err4 = abs(g4.lower) + abs(g4.upper - 8 * np.pi)
        assert err8 < 0.4 * err4  # h^2 shrinkage

    def test_potential_keeps_certified_gap(self):
        # ||W||_inf = w > 0 shifts each band by at most w (bounded
        # perturbation), so the gap survives shrunk by at most w on each
        # side; at h -> 0 the unperturbed gap is (0, 8 pi k), recovering the
        # continuum statement that (w, 8 pi k - w) stays gapped.
        w = 0.8
        rng = np.random.default_rng(7)
        pot = w * (2 * rng.random((6, 6)) - 1)
        pot[0, 0] = w  # pin the sup norm
        lat0 = MagneticLattice(1, 6, 3, 3, "torus")
        rep0 = eigensolve(assemble_bulk(lat0, build_gauge(lat0)))
        gap0 = next(g for g in rep0.gaps if g.contains(4 * np.pi))
        lat = MagneticLattice(1, 6, 3, 3, "torus", pot)
        rep = eigensolve(assemble_bulk(lat, build_gauge(lat)))
        gap = next(g for g in rep.gaps if g.contains(4 * np.pi))
        assert gap.lower <= gap0.lower + w + 1e-9
        assert gap.upper >= gap0.upper - w - 1e-9

    def test_certify_interval_margin(self):
        rep = eigensolve(toy_diagonal([0.0, 10.0]))
        ival = certify_interval(rep, 2.0, 7.0)
        assert ival.margin == pytest.approx(2.0)


class TestFilters:
    def test_degree_zero_is_identity(self):
        _, op = bulk()
        a, b = op.gershgorin()
        filt = polynomial_filter([1.0], (a, b))
        v = np.zeros(op.dimension)
        v[7] = 1.0
        assert np.array_equal(apply_filter(op, filt, v), v.astype(complex))

    @pytest.mark.parametrize("degree", [1, 3, 7])
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
def setup():
    lat, op = bulk(1, 6, 3)
    rep = eigensolve(op)
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
