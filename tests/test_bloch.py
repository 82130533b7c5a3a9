import numpy as np
import pytest
import scipy.linalg

from gapfill import bloch
from gapfill.bloch import (BlochGrid, band_energies, invariant_pair_result,
                           plaquette_berry_flux, torus_spectrum)
from gapfill.errors import (FluxNotAdmissible, LiftNotCertified, NonConstantRank,
                            ResidualNotCertified, SingularOverlap, UnknownGaugeKind)
from gapfill.model import (GaugeField, MagneticLattice, assemble_bulk, build_gauge,
                           cell_gauge, cell_lift_phases, twist_seams)
from gapfill.spectral import RESIDUAL_FACTOR, SpectralInterval
from reference import fiber_hamiltonian


def lifted_pairs(lat, g, op):
    """The torus pairs lifted from every fiber, in the order of torus_spectrum.

    Returns (values, residuals, vectors); each residual is computed on the
    whole n x q^2 lifted block of its fiber.
    """
    q, cells = lat.q, lat.cells_x * lat.cells_y
    rows = (op.sites[:, 0] % q) * q + op.sites[:, 1] % q
    values, residuals, blocks = [], [], []
    for orbit in bloch._fiber_family(lat, g.gauge_kind, lat.cells_x, lat.cells_y):
        w, v = np.linalg.eigh(orbit.fiber)
        moved = orbit.moved(v)
        for fiber_gauge, vecs in [(orbit.gauge, v)] + [(orbit.member(i), moved[i])
                                                       for i in range(len(moved))]:
            chi = cell_lift_phases(g, fiber_gauge)
            psi = (chi.ravel() / np.sqrt(cells))[:, None] * vecs[rows]
            values.append(w)
            residuals.append(np.linalg.norm(op.matrix @ psi - psi * w, axis=0))
            blocks.append(psi)
    order = np.argsort(np.concatenate(values), kind="stable")
    return (np.concatenate(values)[order], np.concatenate(residuals)[order],
            np.hstack(blocks)[:, order])


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


def count_solves(monkeypatch):
    """Count every fiber eigensolve: numpy eigh and eigvalsh, and scipy eigh."""
    calls = []

    def counted(module, name):
        solver = getattr(module, name)

        def wrapped(a, *args, **kwargs):
            calls.append(name)
            return solver(a, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)
    counted(np.linalg, "eigh")
    counted(np.linalg, "eigvalsh")
    counted(scipy.linalg, "eigh")
    return calls


def per_fiber_oracle(lat, gauge_kind, n):
    """Every fiber of an n x n grid diagonalized in full, with no orbit transport.

    Returns the interval [E.min() - 1, upper], upper in the middle of the
    widest fiber-uniform gap in the lower half of the spectrum; the counts
    below and inside it per fiber; (dim, c1, max |flux|) of the bands under
    it from the per-plaquette loop; and the energies (n, n, q^2).
    """
    m = lat.q ** 2
    energies = np.empty((n, n, m))
    vectors = np.empty((n, n, m, m), complex)
    for a in range(n):
        for b in range(n):
            energies[a, b], vectors[a, b] = np.linalg.eigh(
                fiber_hamiltonian(lat, gauge_kind, (a / n, b / n)))
    gaps = energies[:, :, 1:m // 2 + 1].min(axis=(0, 1)) \
        - energies[:, :, :m // 2].max(axis=(0, 1))
    j = int(np.argmax(gaps)) + 1
    lower = float(energies.min()) - 1.0
    upper = 0.5 * (energies[:, :, j - 1].max() + energies[:, :, j].min())
    below = (energies < lower).sum(axis=2)
    inside = ((energies > lower) & (energies < upper)).sum(axis=2)
    flux = plaquette_flux_loop(vectors[:, :, :, :j])
    return (SpectralInterval(lower, upper), below, inside,
            (j, int(np.rint(flux.sum() / (2 * np.pi))), float(np.abs(flux).max())), energies)


def member_reference(lat, kind, rep, point, shift, n):
    """One orbit member handled on its own: its fiber gauge, transport and dense fiber.

    The member's seams are twisted one scalar product at a time, its
    transport is the single-member formula (perm, chi, defect) and its
    fiber is the dense torus stencil of one cell under its gauge.
    """
    q = lat.q
    cell = cell_gauge(lat.k, q, kind)
    zx, zy = np.exp(2j * np.pi * point[0] / n), np.exp(2j * np.pi * point[1] / n)
    phase_x, phase_y = cell.phase_x.copy(), cell.phase_y.copy()
    phase_x[-1, :] = [p * zx for p in phase_x[-1, :]]
    phase_y[:, -1] = [p * zy for p in phase_y[:, -1]]
    member = GaugeField(cell.lattice, kind, phase_x, phase_y)
    i, j = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    pi, pj = (i - shift[0]) % q, (j - shift[1]) % q
    ux, uy = rep.phase_x[pi, pj], rep.phase_y[pi, pj]
    chi = cell_lift_phases(member, GaugeField(rep.lattice, kind, ux, uy))
    hop = float(q) ** 2
    ex = hop * np.abs(chi * ux * np.roll(chi, -1, axis=0).conj() - member.phase_x)
    ey = hop * np.abs(chi * uy * np.roll(chi, -1, axis=1).conj() - member.phase_y)
    w = lat.potential
    rows = (np.abs(w - w[pi, pj]) + ex + np.roll(ex, 1, axis=0)
            + ey + np.roll(ey, 1, axis=1))
    one_cell = MagneticLattice(lat.k, q, 1, 1, "torus", lat.potential)
    fiber = assemble_bulk(one_cell, member).matrix.toarray()
    return (pi * q + pj).ravel(), chi.ravel(), float(rows.max()), fiber


class TestFibers:
    def test_unknown_gauge_kind_is_named(self):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        with pytest.raises(UnknownGaugeKind, match="coulomb"):
            build_gauge(lat, "coulomb")
        with pytest.raises(UnknownGaugeKind, match="coulomb"):
            fiber_hamiltonian(lat, "coulomb", (0.0, 0.0))

    def test_hermitian_exactly(self):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        f = fiber_hamiltonian(lat, "landau", (0.23, 0.71))
        assert np.abs(f - f.conj().T).max() == 0.0

    def test_periodic_in_s(self):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        f0 = fiber_hamiltonian(lat, "landau", (0.0, 0.0))
        f1 = fiber_hamiltonian(lat, "landau", (1.0, 0.0))
        assert np.abs(f0 - f1).max() < 1e-12

    def test_free_symbol_q1(self):
        # k=0, q=1: the 1x1 fiber is the free lattice Laplacian symbol at h=1
        lat = MagneticLattice(0, 1, 2, 2, "torus")
        for (s, t) in [(0.1, 0.7), (0.5, 0.5), (0.0, 0.25)]:
            f = fiber_hamiltonian(lat, "landau", (s, t))
            expect = (2 - 2 * np.cos(2 * np.pi * s)) + (2 - 2 * np.cos(2 * np.pi * t))
            assert abs(f[0, 0] - expect) < 1e-12

    def test_pi_flux_fiber_closed_form(self):
        # flux 1/2 (k=1, q=2), pure hopping: eigenvalues are the doubly
        # degenerate pair +-2 sqrt(cos^2 pi s + cos^2 pi t) under this
        # module's momentum convention
        lat = MagneticLattice(1, 2, 2, 2, "torus")
        for (s, t) in [(0.13, 0.27), (0.5, 0.1), (0.0, 0.0), (0.31, 0.93)]:
            f = fiber_hamiltonian(lat, "landau", (s, t))
            hop = (f - np.diag(np.diag(f))) * lat.h ** 2
            ev = np.linalg.eigvalsh(hop)
            e = 2 * np.sqrt(np.cos(np.pi * s) ** 2 + np.cos(np.pi * t) ** 2)
            assert np.abs(ev - [-e, -e, e, e]).max() < 1e-12

    @pytest.mark.parametrize("kind", ["landau", "symmetric"])
    def test_fiber_bulk_consistency(self, dense_spectrum, kind):
        # the second torus has Phi = 1/4 and a cell potential that is not
        # symmetric under ix <-> iy
        w = 0.7 * (np.arange(16).reshape(4, 4) % 5 - 2.0)
        for k, potential in ((1, None), (2, w)):
            lat = MagneticLattice(k, 4, 3, 3, "torus", potential)
            bulk = dense_spectrum(assemble_bulk(lat, build_gauge(lat, kind))).eigenvalues
            fib = np.sort(np.concatenate(
                [np.linalg.eigvalsh(fiber_hamiltonian(lat, kind, (a / 3, b / 3)))
                 for a in range(3) for b in range(3)]))
            assert np.abs(fib - bulk).max() < 1e-8

    def test_doctored_gauge_rejected(self):
        # one y-link off by e^{0.25i} changes two plaquette fluxes: no lifted
        # fiber pair solves the torus
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        g = build_gauge(lat)
        bad = g.phase_y.copy()
        bad[1, 1] *= np.exp(0.25j)
        with pytest.raises(LiftNotCertified, match="residual"):
            torus_spectrum(lat, GaugeField(lat, "landau", g.phase_x, bad))


class TestTorusSpectrum:
    @pytest.mark.parametrize("kind", ["landau", "symmetric", "transformed"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_parity_with_dense_eigensolve(self, rng, dense_spectrum, kind, k):
        # a cell potential that is not symmetric under ix <-> iy; "transformed"
        # is the Landau gauge under random site phases z, U'(x -> y) =
        # conj(z(x)) U(x -> y) z(y): other link phases, the same plaquette
        # fluxes and Wilson loops, so the Landau fibers solve it
        w = 0.7 * (np.arange(16).reshape(4, 4) % 5 - 2.0)
        for cells in ((1, 1), (3, 2), (1, 4)):
            lat = MagneticLattice(k, 4, *cells, "torus", w)
            if kind == "transformed":
                g0 = build_gauge(lat)
                z = np.exp(2j * np.pi * rng.random((lat.n_x, lat.n_y)))
                g = GaugeField(lat, "landau",
                               z.conj() * g0.phase_x * np.roll(z, -1, axis=0),
                               z.conj() * g0.phase_y * np.roll(z, -1, axis=1))
            else:
                g = build_gauge(lat, kind)
            op = assemble_bulk(lat, g)
            dense = dense_spectrum(op)
            fib = torus_spectrum(lat, g)
            scale = max(dense.norm_bound, 1.0)
            if kind == "transformed":
                assert np.array_equal(fib.eigenvalues,
                                      torus_spectrum(lat, g0).eigenvalues)
            assert len(fib.eigenvalues) == op.dimension
            assert np.abs(fib.eigenvalues - dense.eigenvalues).max() <= 1e-10 * scale
            assert fib.residuals.max() <= RESIDUAL_FACTOR * max(fib.norm_bound, 1.0)
            values, _, v = lifted_pairs(lat, g, op)
            assert np.array_equal(values, fib.eigenvalues)
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
        # one computed on the whole n x q^2 lifted block of the same fiber
        # pairs (solved or orbit-transported)
        lat = MagneticLattice(1, q, 3, 2, "torus")
        g = build_gauge(lat)
        fib = torus_spectrum(lat, g)
        values, residuals, _ = lifted_pairs(lat, g, assemble_bulk(lat, g))
        assert np.array_equal(fib.eigenvalues, values)
        assert np.array_equal(fib.residuals, residuals)

    def test_twisted_torus_seam_fails_certificate(self):
        # the fibers keep the untwisted cocycle, so every Wilson loop along x
        # of the torus differs by -1 and no lifted pair solves it
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        g = twist_seams(build_gauge(lat), -1.0, 1.0)
        with pytest.raises(LiftNotCertified, match="residual"):
            torus_spectrum(lat, g)


class TestBandStructure:
    def test_lowest_group_dims(self, band_groups):
        # the lowest Landau group holds 2k bands per unit cell and carries
        # the pair (2k, -1)
        for k, q in ((1, 8), (2, 8)):
            lat = MagneticLattice(k, q, 2, 2, "torus")
            group, interval = band_groups(lat, band_energies(lat, "landau",
                                                             BlochGrid(6, 6)))[0]
            assert group == (0, 2 * k)
            res = invariant_pair_result(lat, "landau", interval, BlochGrid(6, 6))
            assert (res.dim, res.chern) == (2 * k, -1)

    def test_gershgorin_envelope(self):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        energies = band_energies(lat, "landau", BlochGrid(6, 6))
        op = assemble_bulk(lat, build_gauge(lat))
        gl, gu = op.gershgorin()
        assert energies.min() >= gl - 1e-9
        assert energies.max() <= gu + 1e-9


class TestChern:
    def test_invariant_pair_k1_k2(self):
        # the class of the lowest Landau projection is (2k, -1)
        lat1 = MagneticLattice(1, 8, 2, 2, "torus")
        res1 = invariant_pair_result(lat1, "landau",
                                     SpectralInterval(-1.0, 4 * np.pi), BlochGrid(12, 12))
        assert (res1.dim, res1.chern) == (2, -1)
        lat2 = MagneticLattice(2, 16, 2, 2, "torus")
        res2 = invariant_pair_result(lat2, "landau",
                                     SpectralInterval(-1.0, 8 * np.pi), BlochGrid(12, 12))
        assert (res2.dim, res2.chern) == (4, -1)

    def test_interval_below_all_bands(self):
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        res = invariant_pair_result(lat, "landau",
                                    SpectralInterval(-30.0, -20.0), BlochGrid(6, 6))
        assert (res.dim, res.chern) == (0, 0)

    def test_nonconstant_rank(self, monkeypatch):
        # an interval ending inside a dispersive band has grid-dependent
        # count.  Bands 2-3 peak at 19.43 on the first fiber and dip to 19.04
        # elsewhere, so later fibers find their (N+1)-th value below 19.2
        # and are solved again in full
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        calls = count_full_solves(monkeypatch)
        with pytest.raises(NonConstantRank, match="in-interval count varies"):
            invariant_pair_result(lat, "landau",
                                  SpectralInterval(-2.0, 19.2), BlochGrid(8, 8))
        assert len(calls) > 1

    def test_nonconstant_rank_from_lowest_pairs(self, monkeypatch):
        # bands 4-5 bottom out at 34.12 on the first fiber and rise to 36.44
        # elsewhere, so later fibers count fewer pairs below 35.0; their
        # lowest N+1 values already show it, with no further full solve
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        calls = count_full_solves(monkeypatch)
        with pytest.raises(NonConstantRank, match="in-interval count varies"):
            invariant_pair_result(lat, "landau",
                                  SpectralInterval(-2.0, 35.0), BlochGrid(8, 8))
        assert calls == [(16, 16)]

    def test_nonconstant_count_below(self, monkeypatch):
        # every fiber after the first loses its lowest pair: the in-interval
        # count and its columns stay right, the count below the interval drops
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        lowest = bloch._lowest_pairs

        def drop_lowest(fiber, last, upper):
            w, v = lowest(fiber, last, upper)
            return w[1:], v[:, 1:]
        monkeypatch.setattr(bloch, "_lowest_pairs", drop_lowest)
        interval = SpectralInterval(8.925119271497696, 26.774491783301663)
        with pytest.raises(NonConstantRank, match=r"count below the interval varies .*\(1\.\.2\)"):
            invariant_pair_result(lat, "landau", interval, BlochGrid(8, 8))

    @pytest.mark.parametrize("k, q", [(1, 8), (2, 16)])
    def test_one_full_solve(self, monkeypatch, k, q):
        # a passing pair diagonalizes only the first fiber in full; every
        # other fiber's lowest N+1 pairs certify its counts
        lat = MagneticLattice(k, q, 2, 2, "torus")
        calls = count_full_solves(monkeypatch)
        res = invariant_pair_result(lat, "landau",
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
            invariant_pair_result(lat, "landau", SpectralInterval(-1.0, 4 * np.pi),
                                  BlochGrid(6, 6))

    def test_full_family_is_trivial(self):
        # all bands together form a trivial bundle: chern 0
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        energies = band_energies(lat, "landau", BlochGrid(8, 8))
        res = invariant_pair_result(
            lat, "landau", SpectralInterval(energies.min() - 1.0, energies.max() + 1.0),
            BlochGrid(8, 8))
        assert res.band_group == (0, lat.q ** 2)
        assert (res.dim, res.chern) == (lat.q ** 2, 0)

    def test_grid_stability(self, band_groups):
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        values = []
        for n in (12, 16, 24):
            group, interval = band_groups(lat, band_energies(lat, "landau",
                                                             BlochGrid(n, n)))[0]
            res = invariant_pair_result(lat, "landau", interval, BlochGrid(n, n))
            assert res.band_group == group
            assert res.max_flux < np.pi / 2
            values.append(res.chern)
        assert values == [-1, -1, -1]

    def test_gauge_independence_of_frames(self, rng, band_groups):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        energies = np.empty((8, 8, 16))
        frames = np.empty((8, 8, 16, 16), complex)
        for a in range(8):
            for b in range(8):
                energies[a, b], frames[a, b] = np.linalg.eigh(
                    fiber_hamiltonian(lat, "landau", (a / 8, b / 8)))
        (lo, hi), _ = band_groups(lat, energies)[0]
        frames = frames[:, :, :, lo:hi].copy()
        total0 = plaquette_berry_flux(frames).sum() / (2 * np.pi)
        for a in range(8):
            for b in range(8):
                z = rng.standard_normal((hi - lo, hi - lo)) \
                    + 1j * rng.standard_normal((hi - lo, hi - lo))
                u, _ = np.linalg.qr(z)
                frames[a, b] = frames[a, b] @ u
        total1 = plaquette_berry_flux(frames).sum() / (2 * np.pi)
        assert abs(total0 - total1) < 1e-8

    def test_additivity_over_adjacent_groups(self, band_groups):
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        groups = band_groups(lat, band_energies(lat, "landau", BlochGrid(10, 10)))
        assert len(groups) >= 2
        (ga, ia), (gb, ib) = groups[0], groups[1]
        parts = [invariant_pair_result(lat, "landau", ival, BlochGrid(10, 10))
                 for ival in (ia, ib, SpectralInterval(ia.lower, ib.upper))]
        assert [res.band_group for res in parts] == [ga, gb, (ga[0], gb[1])]
        assert parts[2].chern == parts[0].chern + parts[1].chern

    def test_random_frames_not_admissible(self, rng):
        # frames with no continuity: the plaquette fluxes are spread over
        # (-pi, pi] and their total is still an integer, so only the
        # admissibility bound can reject them
        shape = (8, 8, 16, 16)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flux = plaquette_berry_flux(np.linalg.qr(z)[0][:, :, :, :2])
        total = flux.sum() / (2 * np.pi)
        assert abs(total - round(total)) < 1e-6
        with pytest.raises(FluxNotAdmissible, match="margin"):
            bloch._chern_result(flux, (0, 2), {})

    def test_endpoint_near_fiber_eigenvalue(self):
        # an endpoint 1e-13 above a fiber eigenvalue is not exactly on it,
        # but it is inside the fiber residual tolerance
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        w = np.linalg.eigvalsh(fiber_hamiltonian(lat, "landau", (0.0, 0.0)))
        with pytest.raises(NonConstantRank, match="endpoint"):
            invariant_pair_result(lat, "landau", SpectralInterval(-1.0, w[2] + 1e-13),
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


class TestFiberOrbits:
    def test_misrouted_transport_is_refused(self, monkeypatch):
        # a shift rule with the wrong sign of s pairs fibers that are not
        # unitarily equivalent: the transport certificate must refuse them
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        monkeypatch.setattr(bloch, "_momentum_shift",
                            lambda k, q, dx, dy: (2 * k * dy, 2 * k * dx))
        with pytest.raises(LiftNotCertified, match="orbit transport"):
            invariant_pair_result(lat, "landau", SpectralInterval(-1.0, 4 * np.pi),
                                  BlochGrid(8, 8))
        with pytest.raises(LiftNotCertified, match="orbit transport"):
            torus_spectrum(MagneticLattice(1, 8, 4, 4, "torus"),
                           build_gauge(MagneticLattice(1, 8, 4, 4, "torus")))

    def test_endpoint_margin_includes_the_transport_defect(self, monkeypatch):
        # an endpoint 1.5 tol above the highest band-1 value passes on its
        # own, but a member whose transport defect is 0.9 tol may hold an
        # eigenvalue within 2.4 tol of the representative's: refused (Weyl)
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        fiber = fiber_hamiltonian(lat, "landau", (0.0, 0.0))
        tol = bloch.FIBER_RESIDUAL_FACTOR * np.abs(fiber).sum(axis=1).max()
        top = band_energies(lat, "landau", BlochGrid(8, 8))[:, :, 1].max()
        interval = SpectralInterval(-1.0, top + 1.5 * tol)
        res = invariant_pair_result(lat, "landau", interval, BlochGrid(8, 8))
        assert (res.dim, res.chern) == (2, -1)
        transport = bloch._transport

        def inflated(*args):
            perm, chi, defect = transport(*args)
            return perm, chi, np.full_like(defect, 0.9 * tol)
        monkeypatch.setattr(bloch, "_transport", inflated)
        with pytest.raises(NonConstantRank, match="transport defect"):
            invariant_pair_result(lat, "landau", interval, BlochGrid(8, 8))

    def test_stabilizer_of_the_potential(self, rng):
        # W = 0: k=1, q=8 on 8x8 moves s and t in steps of 2 grid points,
        # orbits of 16; W depending on ix only keeps the row shifts, which
        # move s alone; a random W keeps only (0, 0)
        q = 8
        cases = [(np.zeros((q, q)), 4, 16),
                 (np.repeat(rng.standard_normal(q)[:, None], q, axis=1), 16, 4),
                 (rng.standard_normal((q, q)), 64, 1)]
        for w, n_orbits, size in cases:
            lat = MagneticLattice(1, q, 2, 2, "torus", w)
            orbits = bloch._fiber_orbits(lat, 8, 8)
            assert len(orbits) == n_orbits
            assert all(len(points) + 1 == len(shifts) + 1 == size
                       for _, points, shifts in orbits)
            points = [rep for rep, _, _ in orbits] + [tuple(p) for _, ps, _ in orbits
                                                      for p in ps.tolist()]
            assert sorted(points) == [(a, b) for a in range(8) for b in range(8)]
            if size == 4:
                assert all((ps[:, 1] == rep[1]).all() for rep, ps, _ in orbits)

    @pytest.mark.parametrize("potential", ["zero", "ix_only"])
    @pytest.mark.parametrize("k, q", [(1, 8), (2, 8), (1, 16), (2, 16)])
    def test_orbit_matches_member_by_member(self, rng, k, q, potential):
        # the batched orbit against each member on its own: perm, chi,
        # defect and the moved frames bitwise, each member's block of the
        # orbit operator equal to its dense fiber, and its residuals equal
        # to rounding
        w = None if potential == "zero" else np.repeat(rng.standard_normal(q)[:, None], q, 1)
        lat = MagneticLattice(k, q, 2, 2, "torus", w)
        n, m = 8, q * q
        orbits = bloch._fiber_orbits(lat, n, n)
        family = list(bloch._fiber_family(lat, "landau", n, n))
        assert [o.point for o in family] == [rep for rep, _, _ in orbits]
        checked = 0
        for orbit, (_, points, shifts) in zip(family, orbits):
            assert np.array_equal(orbit.points, points)
            ev, vecs = np.linalg.eigh(orbit.fiber)
            kept = vecs[:, :2 * k]
            moved = orbit.moved(kept)
            op = bloch._member_operator(orbit)
            residual = (op @ moved.reshape(-1, 2 * k)).reshape(moved.shape) - moved * ev[:2 * k]
            bound = np.abs(orbit.fiber).sum(axis=1).max()
            largest = 0.0
            for i, (point, shift) in enumerate(zip(points.tolist(), shifts.tolist())):
                perm, chi, defect, fiber = member_reference(lat, "landau", orbit.gauge,
                                                            point, shift, n)
                assert np.array_equal(orbit.perm[i], perm)
                assert orbit.chi[i].tobytes() == chi.tobytes()
                assert orbit.defect[i] == defect
                ref = chi[:, None] * kept[perm]
                assert moved[i].tobytes() == ref.tobytes()
                block = op[i * m:(i + 1) * m, i * m:(i + 1) * m].toarray()
                assert block.tobytes() == fiber.tobytes()
                ref_residual = fiber @ ref - ref * ev[:2 * k]
                assert np.abs(residual[i] - ref_residual).max() <= 1e-13 * bound
                largest = max(largest, np.linalg.norm(ref_residual, axis=0).max())
                checked += 1
            assert abs(bloch._member_residual(orbit, moved, ev[:2 * k]) - largest) \
                <= 1e-13 * bound
        assert checked + len(family) == n * n

    def test_random_potential_solves_every_fiber(self, monkeypatch, rng):
        # no shift survives, so every fiber is solved: one full solve and 35
        # subset solves, as on the fiber-by-fiber route
        lat = MagneticLattice(1, 8, 2, 2, "torus", 0.5 * rng.standard_normal((8, 8)))
        oracle = per_fiber_oracle(lat, "landau", 6)
        calls = count_solves(monkeypatch)
        res = invariant_pair_result(lat, "landau", oracle[0], BlochGrid(6, 6))
        assert calls == ["eigh"] * 36
        assert (res.solver["solved"], res.solver["max_transport_defect"]) == (36, 0.0)
        assert (res.dim, res.chern) == oracle[3][:2]

    @pytest.mark.parametrize("q, generic_w", [(3, False), (8, False), (4, True)])
    def test_each_fiber_assembled_once(self, monkeypatch, rng, q, generic_w):
        # a representative's dense fiber serves its solve and its residual
        # check; every other member's sparse fiber is built once, in its
        # orbit's block-diagonal operator, for its own residual check
        w = 0.5 * rng.standard_normal((q, q)) if generic_w else None
        lat = MagneticLattice(1, q, 2, 2, "torus", w)
        dense, sparse = [], []
        fiber, member_operator = bloch._fiber, bloch._member_operator

        def counted(orbit):
            sparse.append(len(orbit.points))
            return member_operator(orbit)
        monkeypatch.setattr(bloch, "_fiber", lambda *args: dense.append(1) or fiber(*args))
        monkeypatch.setattr(bloch, "_member_operator", counted)
        res = invariant_pair_result(lat, "landau", SpectralInterval(-20.0, 4 * np.pi),
                                    BlochGrid(16, 16))
        assert len(dense) == res.solver["solved"]
        assert len(dense) + sum(sparse) == 16 * 16

    def test_member_residual_is_certified(self, monkeypatch):
        # every member fiber, and no representative, is shifted by 1e-6 on
        # its diagonal: the representative's counts and frames still pass,
        # so only the residual of the transported columns on each member's
        # own fiber can refuse them
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        interval = SpectralInterval(-1.0, 4 * np.pi)
        invariant_pair_result(lat, "landau", interval, BlochGrid(8, 8))
        shifted = []
        member_operator = bloch._member_operator

        def shifted_operator(orbit):
            op = member_operator(orbit)
            op.setdiag(op.diagonal() + 1e-6)
            shifted.append(len(orbit.points))
            return op
        monkeypatch.setattr(bloch, "_member_operator", shifted_operator)
        with pytest.raises(ResidualNotCertified, match="in-interval columns"):
            invariant_pair_result(lat, "landau", interval, BlochGrid(8, 8))
        assert shifted == [15] * 4

    @pytest.mark.parametrize("k, n_solves", [(1, 1), (2, 4)])
    def test_route_guard(self, monkeypatch, k, n_solves):
        # k=1, q=16 on 8x8: one orbit; k=2: four orbits of 16
        lat = MagneticLattice(k, 16, 2, 2, "torus")
        calls = count_solves(monkeypatch)
        res = invariant_pair_result(lat, "landau",
                                    SpectralInterval(-1.0, 4 * np.pi * k), BlochGrid(8, 8))
        assert (res.dim, res.chern) == (2 * k, -1)
        assert len(calls) == res.solver["solved"] == n_solves

    @pytest.mark.parametrize("kind", ["landau", "symmetric"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("q", [4, 6, 8, 16])
    def test_against_per_fiber_oracle(self, kind, k, q):
        # grids 6, 8 and 12 in turn (at most 8 for q=16, to keep the oracle
        # cheap); the mix holds one-fiber orbits (k=1, q=6, n=8) as well as
        # a single orbit (k=1, q=16, n=8)
        n = (6, 8, 12)[(k + q + (kind == "symmetric")) % 3]
        if q == 16:
            n = min(n, 8)
        lat = MagneticLattice(k, q, 2, 2, "torus")
        interval, below, inside, (dim, c1, max_flux), _ = per_fiber_oracle(lat, kind, n)
        assert below.min() == below.max() == 0
        assert inside.min() == inside.max() == dim
        assert max_flux < np.pi / 2
        res = invariant_pair_result(lat, kind, interval, BlochGrid(n, n))
        assert res.band_group == (0, dim)
        assert (res.dim, res.chern) == (dim, c1)
        assert abs(res.max_flux - max_flux) <= 1e-12

    def test_torus_with_orbits_matches_dense(self, dense_spectrum):
        # W = 0, k=1, q=4 on 4x4 cells: 16 fibers, 4 solved, every lifted
        # pair certified on the torus
        lat = MagneticLattice(1, 4, 4, 4, "torus")
        g = build_gauge(lat)
        fib = torus_spectrum(lat, g)
        dense = dense_spectrum(assemble_bulk(lat, g))
        assert fib.solver["solved_blocks"] == 4
        assert np.abs(fib.eigenvalues - dense.eigenvalues).max() \
            <= 1e-10 * max(dense.norm_bound, 1.0)

    def test_band_energies_match_band_structure(self, monkeypatch):
        # k=2, q=8 on 8x8: orbits of 4, so 16 values-only solves; the oracle
        # diagonalizes all 64 fibers with no orbit transport
        lat = MagneticLattice(2, 8, 2, 2, "torus")
        calls = count_solves(monkeypatch)
        energies = band_energies(lat, "symmetric", BlochGrid(8, 8))
        assert calls == ["eigvalsh"] * 16
        ref = per_fiber_oracle(lat, "symmetric", 8)[4]
        assert np.abs(energies - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_band_energies_hold_no_frames(self):
        # k=1, q=8 on 16x16: the energies take 128 KiB, a full frame family
        # 16 MiB
        import tracemalloc
        lat = MagneticLattice(1, 8, 2, 2, "torus")
        tracemalloc.start()
        try:
            band_energies(lat, "landau", BlochGrid(16, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestFluxThirdOracle:
    def test_chern_minus_one_and_wilson_oracle(self):
        # flux-1/3 hopping model, lowest band; the plaquette sum and the
        # independent Wilson-loop winding must agree on -1
        frames, energies = hofstadter_frames(1, 3, 48, 1)
        total = plaquette_berry_flux(frames).sum() / (2 * np.pi)
        assert abs(total - round(total)) < 1e-6
        assert round(total) == -1
        assert wilson_loop_winding(frames) == pytest.approx(-1.0, abs=1e-6)
