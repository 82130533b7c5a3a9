import numpy as np
import pytest
import scipy.linalg

from gapfill import bloch
from gapfill.bloch import (BandData, BlochGrid, band_structure, chern_fhs,
                           fiber_hamiltonian, invariant_pair,
                           invariant_pair_result, plaquette_berry_flux,
                           torus_spectrum)
from gapfill.errors import (FluxNotAdmissible, GaugeNotCellPeriodic,
                            LiftNotCertified, NonConstantRank, NoUniformGap,
                            ResidualNotCertified, SingularOverlap)
from gapfill.model import (MagneticLattice, assemble_bulk, build_gauge,
                           cell_lift_phases, twist_seams)
from gapfill.spectral import RESIDUAL_FACTOR, SpectralInterval, eigensolve


def hofstadter_frames(p, q, ngrid, n_bands):
    """Frames of the flux-p/q hopping model on a magnetic cell of q sites.

    Landau gauge, U_y(i) = exp(-2 pi i (p/q) i); same (s, t) conventions as
    the package fibers (+x crossing carries e^{2 pi i s}).
    """
    frames = np.empty((ngrid, ngrid, q, n_bands), complex)
    energies = np.empty((ngrid, ngrid, q))
    for a in range(ngrid):
        for b in range(ngrid):
            s, t = a / ngrid, b / ngrid
            m = np.zeros((q, q), complex)
            for i in range(q):
                m[i, i] = -2.0 * np.cos(2 * np.pi * (t - p * i / q))
                j = (i + 1) % q
                ph = np.exp(2j * np.pi * s) if i == q - 1 else 1.0
                if q == 1:
                    m[i, i] += -2.0 * np.cos(2 * np.pi * s)
                else:
                    m[i, j] += -ph
                    m[j, i] += -np.conj(ph)
            w, v = np.linalg.eigh(m)
            frames[a, b] = v[:, :n_bands]
            energies[a, b] = w
    return frames, energies


def wilson_loop_winding(frames):
    """Chern number as the winding of the Wilson-loop phase.

    Independent oracle: the Berry phase of the s-loop Wilson determinant is
    tracked as t sweeps the dual circle; the total principal increment is
    the first Chern number under the same orientation as the plaquette sum.
    """
    n_s, n_t = frames.shape[0], frames.shape[1]

    def loop_phase(b):
        w = np.eye(frames.shape[3], dtype=complex)
        for a in range(n_s):
            f0 = frames[a % n_s, b % n_t]
            f1 = frames[(a + 1) % n_s, b % n_t]
            w = w @ (f0.conj().T @ f1)
        return np.angle(np.linalg.det(w))

    winding = 0.0
    prev = loop_phase(0)
    for b in range(1, n_t + 1):
        cur = loop_phase(b)
        d = cur - prev
        d = (d + np.pi) % (2 * np.pi) - np.pi
        winding += d
        prev = cur
    return winding / (2 * np.pi)


def plaquette_flux_loop(frames):
    """Per-plaquette FHS fluxes, four link determinants per plaquette.

    Reference for the batched link route: same circulation
    p -> p+t -> p+s+t -> p+s -> p, every link formed from its own overlap.
    """
    n_s, n_t = frames.shape[0], frames.shape[1]
    flux = np.empty((n_s, n_t))

    def link(fa, fb):
        d = np.linalg.det(fa.conj().T @ fb)
        if abs(d) < 1e-8:
            raise SingularOverlap(f"overlap determinant modulus {abs(d):.2e} < 1e-8")
        return d / abs(d)

    for a in range(n_s):
        for b in range(n_t):
            f00 = frames[a, b]
            f01 = frames[a, (b + 1) % n_t]
            f11 = frames[(a + 1) % n_s, (b + 1) % n_t]
            f10 = frames[(a + 1) % n_s, b]
            flux[a, b] = np.angle(link(f00, f01) * link(f01, f11)
                                  * link(f11, f10) * link(f10, f00))
    return flux


def count_full_solves(monkeypatch):
    """Count the dense full eigendecompositions made through numpy.linalg.eigh."""
    calls = []
    full = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return full(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestFibers:
    def test_hermitian_exactly(self):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        g = build_gauge(lat)
        f = fiber_hamiltonian(lat, g, (0.23, 0.71))
        assert np.abs(f - f.conj().T).max() == 0.0

    def test_periodic_in_s(self):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        g = build_gauge(lat)
        f0 = fiber_hamiltonian(lat, g, (0.0, 0.0))
        f1 = fiber_hamiltonian(lat, g, (1.0, 0.0))
        assert np.abs(f0 - f1).max() < 1e-12

    def test_free_symbol_q1(self):
        # k=0, q=1: the 1x1 fiber is the free lattice Laplacian symbol at h=1
        lat = MagneticLattice(0, 1, 2, 2, "torus")
        g = build_gauge(lat)
        for (s, t) in [(0.1, 0.7), (0.5, 0.5), (0.0, 0.25)]:
            f = fiber_hamiltonian(lat, g, (s, t))
            expect = (2 - 2 * np.cos(2 * np.pi * s)) + (2 - 2 * np.cos(2 * np.pi * t))
            assert abs(f[0, 0] - expect) < 1e-12

    def test_pi_flux_fiber_closed_form(self):
        # flux 1/2 (k=1, q=2), pure hopping: eigenvalues are the doubly
        # degenerate pair +-2 sqrt(cos^2 pi s + cos^2 pi t) under this
        # module's momentum convention
        lat = MagneticLattice(1, 2, 2, 2, "torus")
        g = build_gauge(lat)
        for (s, t) in [(0.13, 0.27), (0.5, 0.1), (0.0, 0.0), (0.31, 0.93)]:
            f = fiber_hamiltonian(lat, g, (s, t))
            hop = (f - np.diag(np.diag(f))) * lat.h ** 2
            ev = np.linalg.eigvalsh(hop)
            e = 2 * np.sqrt(np.cos(np.pi * s) ** 2 + np.cos(np.pi * t) ** 2)
            assert np.abs(ev - [-e, -e, e, e]).max() < 1e-12

    @pytest.mark.parametrize("kind", ["landau", "symmetric"])
    def test_fiber_bulk_consistency(self, kind):
        # the second torus has Phi = 1/4 and a cell potential that is not
        # symmetric under ix <-> iy
        w = 0.7 * (np.arange(16).reshape(4, 4) % 5 - 2.0)
        for k, potential in ((1, None), (2, w)):
            lat = MagneticLattice(k, 4, 3, 3, "torus", potential)
            g = build_gauge(lat, kind)
            bulk = eigensolve(assemble_bulk(lat, g)).eigenvalues
            fib = np.sort(np.concatenate(
                [np.linalg.eigvalsh(fiber_hamiltonian(lat, g, (a / 3, b / 3)))
                 for a in range(3) for b in range(3)]))
            assert np.abs(fib - bulk).max() < 1e-8

    def test_doctored_gauge_rejected(self):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        g = build_gauge(lat)
        bad = g.phase_y.copy()
        bad[1, 1] *= np.exp(0.25j)
        from gapfill.model import GaugeField
        with pytest.raises(GaugeNotCellPeriodic):
            fiber_hamiltonian(lat, GaugeField(lat, "landau", g.phase_x, bad), (0, 0))


class TestTorusSpectrum:
    @pytest.mark.parametrize("kind", ["landau", "symmetric"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_parity_with_dense_eigensolve(self, kind, k):
        # a cell potential that is not symmetric under ix <-> iy
        w = 0.7 * (np.arange(16).reshape(4, 4) % 5 - 2.0)
        for cells in ((1, 1), (3, 2), (1, 4)):
            lat = MagneticLattice(k, 4, *cells, "torus", w)
            g = build_gauge(lat, kind)
            op = assemble_bulk(lat, g)
            dense = eigensolve(op)
            fib = torus_spectrum(lat, g, keep_vectors=True)
            scale = max(dense.norm_bound, 1.0)
            assert len(fib.eigenvalues) == op.dimension
            assert np.abs(fib.eigenvalues - dense.eigenvalues).max() <= 1e-10 * scale
            assert fib.residuals.max() <= RESIDUAL_FACTOR * max(fib.norm_bound, 1.0)
            v = fib.eigenvectors
            direct = np.linalg.norm(op.matrix @ v - v * fib.eigenvalues, axis=0)
            assert np.abs(direct - fib.residuals).max() < 1e-12
            assert np.abs(v.conj().T @ v - np.eye(op.dimension)).max() < 1e-12
            assert fib.clusters == dense.clusters
            ends = [np.array([(g.lower, g.upper) for g in rep.gaps]).reshape(-1, 2)
                    for rep in (fib, dense)]
            assert ends[0].shape == ends[1].shape
            assert np.abs(ends[0] - ends[1]).max(initial=0.0) <= 1e-10 * scale

    @pytest.mark.parametrize("q", [16, 10])
    def test_chunked_lift_residuals_are_bitwise(self, q):
        # q=10 leaves a last chunk of 36 columns; every residual equals the
        # one computed on the whole n x q^2 lifted block
        lat = MagneticLattice(1, q, 3, 2, "torus")
        g = build_gauge(lat)
        fib = torus_spectrum(lat, g, keep_vectors=True)
        op = assemble_bulk(lat, g)
        rows = (op.sites[:, 0] % q) * q + op.sites[:, 1] % q
        values, residuals, blocks = [], [], []
        for a in range(3):
            for b in range(2):
                w, v = np.linalg.eigh(fiber_hamiltonian(lat, g, (a / 3, b / 2)))
                chi = cell_lift_phases(g, bloch._fiber_gauge(lat, g.gauge_kind,
                                                             a / 3, b / 2))
                psi = (chi.ravel() / np.sqrt(6))[:, None] * v[rows]
                values.append(w)
                residuals.append(np.linalg.norm(op.matrix @ psi - psi * w, axis=0))
                blocks.append(psi)
        order = np.argsort(np.concatenate(values), kind="stable")
        assert np.array_equal(fib.residuals, np.concatenate(residuals)[order])
        assert np.array_equal(fib.eigenvectors, np.hstack(blocks)[:, order])

    def test_twisted_torus_seam_fails_certificate(self):
        # the fibers keep the untwisted cocycle, so every Wilson loop along x
        # of the torus differs by -1 and no lifted pair solves it
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        g = twist_seams(build_gauge(lat), -1.0, 1.0)
        with pytest.raises(LiftNotCertified, match="residual"):
            torus_spectrum(lat, g)


class TestBandStructure:
    def test_lowest_group_dims(self):
        # dim 2k per unit cell in the lowest Landau group
        for k, q in ((1, 8), (2, 8)):
            lat = MagneticLattice(k, q, 2, 2, "torus")
            bands = band_structure(lat, build_gauge(lat), BlochGrid(6, 6))
            lo, hi = bands.band_groups[0]
            assert hi - lo == 2 * k

    def test_gershgorin_envelope(self):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        bands = band_structure(lat, build_gauge(lat), BlochGrid(6, 6))
        op = assemble_bulk(lat, build_gauge(lat))
        gl, gu = op.gershgorin()
        assert bands.energies.min() >= gl - 1e-9
        assert bands.energies.max() <= gu + 1e-9

    def test_residual_certificate(self):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        bands = band_structure(lat, build_gauge(lat), BlochGrid(6, 6))
        assert bands.max_residual <= 1e-10 * np.abs(bands.energies).max()

    def test_shifted_eigenvalues_fail_certificate(self, monkeypatch):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0] + 1e-3, eigh(a)[1]))
        with pytest.raises(ResidualNotCertified, match="fiber residual"):
            band_structure(lat, build_gauge(lat), BlochGrid(6, 6))


class TestChern:
    def test_invariant_pair_k1_k2(self):
        # the class of the lowest Landau projection is (2k, -1)
        lat1 = MagneticLattice(1, 8, 2, 2, "torus")
        pair1 = invariant_pair(lat1, build_gauge(lat1),
                               SpectralInterval(-1.0, 4 * np.pi), BlochGrid(12, 12))
        assert pair1 == (2, -1)
        lat2 = MagneticLattice(2, 16, 2, 2, "torus")
        pair2 = invariant_pair(lat2, build_gauge(lat2),
                               SpectralInterval(-1.0, 8 * np.pi), BlochGrid(12, 12))
        assert pair2 == (4, -1)

    def test_interval_below_all_bands(self):
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        pair = invariant_pair(lat, build_gauge(lat),
                              SpectralInterval(-30.0, -20.0), BlochGrid(6, 6))
        assert pair == (0, 0)

    def test_nonconstant_rank(self, monkeypatch):
        # an interval ending inside a dispersive band has grid-dependent
        # count.  Bands 2-3 peak at 19.43 on the first fiber and dip to 19.04
        # elsewhere, so later fibers find their (N+1)-th value below 19.2
        # and are solved again in full
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        calls = count_full_solves(monkeypatch)
        with pytest.raises(NonConstantRank, match="in-interval count varies"):
            invariant_pair(lat, build_gauge(lat),
                           SpectralInterval(-2.0, 19.2), BlochGrid(8, 8))
        assert len(calls) > 1

    def test_nonconstant_rank_from_lowest_pairs(self, monkeypatch):
        # bands 4-5 bottom out at 34.12 on the first fiber and rise to 36.44
        # elsewhere, so later fibers count fewer pairs below 35.0; their
        # lowest N+1 values already show it, with no further full solve
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        calls = count_full_solves(monkeypatch)
        with pytest.raises(NonConstantRank, match="in-interval count varies"):
            invariant_pair(lat, build_gauge(lat),
                           SpectralInterval(-2.0, 35.0), BlochGrid(8, 8))
        assert calls == [(16, 16)]

    @pytest.mark.parametrize("k, q", [(1, 8), (2, 16)])
    def test_one_full_solve(self, monkeypatch, k, q):
        # a passing pair diagonalizes only the first fiber in full; every
        # other fiber's lowest N+1 pairs certify its counts
        lat = MagneticLattice(k, q, 2, 2, "torus")
        calls = count_full_solves(monkeypatch)
        res = invariant_pair_result(lat, build_gauge(lat),
                                    SpectralInterval(-1.0, 4 * np.pi * k), BlochGrid(6, 6))
        assert (res.dim, res.chern) == (2 * k, -1)
        assert calls == [(q * q, q * q)]

    @pytest.mark.parametrize("solver", ["full", "subset"])
    def test_kept_columns_residual_certificate(self, monkeypatch, solver):
        # a frame that is not an eigenframe of its fiber must be refused,
        # whether it comes from the full solve of the first fiber or from the
        # subset solve of a later one
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        module, name = (np.linalg, "eigh") if solver == "full" else (scipy.linalg, "eigh")
        exact = getattr(module, name)

        def perturbed(a, *args, **kwargs):
            w, v = exact(a, *args, **kwargs)
            return w, v + 1e-6 * np.roll(v, 1, axis=0)
        monkeypatch.setattr(module, name, perturbed)
        with pytest.raises(ResidualNotCertified, match="in-interval columns"):
            invariant_pair(lat, build_gauge(lat), SpectralInterval(-1.0, 4 * np.pi),
                           BlochGrid(6, 6))

    def test_full_family_is_trivial(self):
        # all bands together form a trivial bundle: chern 0
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        bands = band_structure(lat, build_gauge(lat), BlochGrid(8, 8))
        res = chern_fhs(bands, (0, lat.q ** 2))
        assert res.chern == 0

    def test_grid_stability(self):
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        g = build_gauge(lat)
        values = []
        for n in (12, 16, 24):
            bands = band_structure(lat, g, BlochGrid(n, n))
            res = chern_fhs(bands, bands.band_groups[0])
            assert res.max_flux < np.pi / 2
            values.append(res.chern)
        assert values == [-1, -1, -1]

    def test_gauge_independence_of_frames(self, rng):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        bands = band_structure(lat, build_gauge(lat), BlochGrid(8, 8))
        lo, hi = bands.band_groups[0]
        frames = bands.frames[:, :, :, lo:hi].copy()
        total0 = plaquette_berry_flux(frames).sum() / (2 * np.pi)
        for a in range(8):
            for b in range(8):
                z = rng.standard_normal((hi - lo, hi - lo)) \
                    + 1j * rng.standard_normal((hi - lo, hi - lo))
                u, _ = np.linalg.qr(z)
                frames[a, b] = frames[a, b] @ u
        total1 = plaquette_berry_flux(frames).sum() / (2 * np.pi)
        assert abs(total0 - total1) < 1e-8

    def test_additivity_over_adjacent_groups(self):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        bands = band_structure(lat, build_gauge(lat), BlochGrid(10, 10))
        assert len(bands.band_groups) >= 2
        (a0, a1), (b0, b1) = bands.band_groups[0], bands.band_groups[1]
        c_union = chern_fhs(bands, (a0, b1)).chern
        c_sum = chern_fhs(bands, (a0, a1)).chern + chern_fhs(bands, (b0, b1)).chern
        assert c_union == c_sum

    def test_uncertified_range_rejected(self):
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        bands = band_structure(lat, build_gauge(lat), BlochGrid(6, 6))
        with pytest.raises(NoUniformGap):
            chern_fhs(bands, (0, 1))  # splits the degenerate Landau pair

    def test_random_frames_not_admissible(self, rng):
        # frames with no continuity: the plaquette fluxes are spread over
        # (-pi, pi] and their total is still an integer, so only the
        # admissibility bound can reject them
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        bands = band_structure(lat, build_gauge(lat), BlochGrid(8, 8))
        z = rng.standard_normal(bands.frames.shape) \
            + 1j * rng.standard_normal(bands.frames.shape)
        frames = np.linalg.qr(z)[0]
        total = plaquette_berry_flux(frames[:, :, :, :2]).sum() / (2 * np.pi)
        assert abs(total - round(total)) < 1e-6
        doctored = BandData(bands.lattice, bands.construction_gauge, bands.grid,
                            bands.energies, frames, bands.uniform_gaps,
                            bands.group_threshold, bands.band_groups,
                            bands.max_residual)
        with pytest.raises(FluxNotAdmissible, match="margin"):
            chern_fhs(doctored, bands.band_groups[0])

    def test_endpoint_near_fiber_eigenvalue(self):
        # an endpoint 1e-13 above a fiber eigenvalue is not exactly on it,
        # but it is inside the fiber residual tolerance
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        g = build_gauge(lat)
        w = np.linalg.eigvalsh(fiber_hamiltonian(lat, g, (0.0, 0.0)))
        with pytest.raises(NonConstantRank, match="endpoint"):
            invariant_pair(lat, g, SpectralInterval(-1.0, w[2] + 1e-13),
                           BlochGrid(6, 6))

    def test_batched_links_match_plaquette_loop(self, rng):
        # random unitary frame families (no continuity, fluxes anywhere in
        # (-pi, pi]) and the flux-1/3 family; differences are taken modulo
        # 2 pi, since a flux at -pi may come out as +pi on either route
        families = [hofstadter_frames(1, 3, 12, 1)[0], hofstadter_frames(1, 3, 9, 2)[0]]
        for shape in ((4, 4, 2, 1), (5, 6, 8, 3), (6, 4, 16, 16)):
            z = rng.standard_normal(shape[:3] + (shape[2],)) \
                + 1j * rng.standard_normal(shape[:3] + (shape[2],))
            families.append(np.linalg.qr(z)[0][..., :shape[3]])
        for frames in families:
            diff = plaquette_berry_flux(frames) - plaquette_flux_loop(frames)
            assert np.abs(np.angle(np.exp(1j * diff))).max() <= 1e-14

    def test_singular_overlap(self):
        frames = np.zeros((4, 4, 2, 1), complex)
        frames[:, :, 0, 0] = 1.0
        frames[1, 0] = [[0.0], [1.0]]  # orthogonal to its s-neighbours
        with pytest.raises(SingularOverlap):
            plaquette_berry_flux(frames)


class TestFluxThirdOracle:
    def test_chern_minus_one_and_wilson_oracle(self):
        # flux-1/3 hopping model, lowest band; the plaquette sum and the
        # independent Wilson-loop winding must agree on -1
        frames, energies = hofstadter_frames(1, 3, 48, 1)
        total = plaquette_berry_flux(frames).sum() / (2 * np.pi)
        assert abs(total - round(total)) < 1e-6
        assert round(total) == -1
        assert wilson_loop_winding(frames) == pytest.approx(-1.0, abs=1e-6)
