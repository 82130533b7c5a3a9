from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from gapfill.errors import EmptyRegion, MaskMismatch, MissingPhase, NonTorusGeometry
from gapfill.model import (BallsShape, DiskShape, GraphShape, HalfPlaneShape,
                           MagneticLattice, assemble_bulk,
                           assemble_restricted, build_gauge, cell_gauge,
                           gauge_transform, make_mask, mask_all,
                           mask_from_sites, plaquette_products, twist_seams,
                           _assemble, _stencil_pattern)

PLAQ_TOL = 1e-12


def lattice(k=1, q=4, cells=3, geometry="torus", potential=None):
    return MagneticLattice(k, q, cells, cells, geometry, potential)


def _phase(exponent: Fraction) -> complex:
    """exp(2*pi*i*exponent), reducing the exponent mod 1 first."""
    return complex(np.exp(2j * np.pi * float(exponent % 1)))


def fraction_gauge(lat, kind):
    """Reference gauge: every exponent a Fraction, one _phase call per link."""
    q2, nx, ny, phi = lat.q * lat.q, lat.n_x, lat.n_y, lat.flux_per_plaquette
    if kind == "landau":
        ax = [[Fraction(0)] * ny for _ in range(nx)]
        ay = [[Fraction(-2 * lat.k * ix, q2)] * ny for ix in range(nx)]
    else:
        ax = [[Fraction(lat.k * iy, q2) for iy in range(ny)] for _ in range(nx)]
        ay = [[Fraction(-lat.k * ix, q2)] * ny for ix in range(nx)]
    if lat.periodic_x:
        for iy in range(ny):
            interior = sum(ax[ix][iy] for ix in range(nx - 1))
            ax[nx - 1][iy] = (phi * nx * iy - interior) % 1
    if lat.periodic_y:
        for ix in range(nx):
            interior = sum(ay[ix][:ny - 1])
            ay[ix][ny - 1] = (-phi * (ix % lat.q) * ny - interior) % 1
    phase_x = np.array([[_phase(a) for a in row] for row in ax])
    phase_y = np.array([[_phase(a) for a in row] for row in ay])
    if not lat.periodic_x:
        phase_x[nx - 1, :] = 1.0
    if not lat.periodic_y:
        phase_y[:, ny - 1] = 1.0
    return phase_x, phase_y


class TestLatticeInvariants:
    def test_spacing_is_exact_rational(self):
        lat = lattice(q=8)
        assert lat.q * lat.h == 1.0

    def test_flux_per_plaquette(self):
        lat = lattice(k=1, q=4)
        assert lat.flux_per_plaquette == 2 * 1 / 16 == 0.125

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MagneticLattice(-1, 4, 2, 2)
        with pytest.raises(ValueError):
            MagneticLattice(1, 0, 2, 2)
        with pytest.raises(ValueError):
            MagneticLattice(1, 4, 2, 2, "klein_bottle")


class TestGauge:
    @pytest.mark.parametrize("kind", ["landau", "symmetric"])
    @pytest.mark.parametrize("geometry", ["torus", "strip", "masked"])
    def test_plaquette_flux_everywhere(self, kind, geometry):
        lat = lattice(k=1, q=4, geometry=geometry)
        g = build_gauge(lat, kind)
        target = np.exp(-2j * np.pi * float(lat.flux_per_plaquette))
        assert np.abs(plaquette_products(g) - target).max() <= PLAQ_TOL

    def test_integer_flux_gives_trivial_plaquettes(self):
        # q=2, k=2: Phi = 2*2/4 = 1 flux quantum, all products 1
        lat = MagneticLattice(2, 2, 3, 3, "torus")
        g = build_gauge(lat, "landau")
        assert np.abs(plaquette_products(g) - 1.0).max() <= PLAQ_TOL

    def test_landau_pinned_values(self):
        # x-links 1; y-link leaving x-coordinate x carries exp(-2 pi i 2k h x)
        lat = lattice(k=1, q=4, geometry="masked")
        g = build_gauge(lat, "landau")
        assert np.all(g.phase_x[:-1, :] == 1.0)
        for ix in range(lat.n_x):
            expect = np.exp(-2j * np.pi * 2 * lat.k * lat.h * (ix * lat.h))
            assert abs(g.phase_y[ix, 0] - expect) < 1e-14

    def test_landau_plaquette_product_symbolic(self):
        # product of the four phases around any plaquette = exp(-2 pi i / 8)
        lat = MagneticLattice(1, 4, 2, 2, "masked")
        g = build_gauge(lat, "landau")
        pp = plaquette_products(g)
        assert np.abs(pp - np.exp(-2j * np.pi / 8)).max() <= PLAQ_TOL

    @pytest.mark.parametrize("kind", ["landau", "symmetric"])
    @pytest.mark.parametrize("geometry", ["torus", "strip"])
    def test_twist_seams_keeps_flux_and_twists_wilson_loops(self, kind, geometry):
        lat = MagneticLattice(1, 3, 2, 3, geometry)
        g = build_gauge(lat, kind)
        before = (g.phase_x.copy(), g.phase_y.copy())
        zx, zy = np.exp(0.7j), np.exp(-2.1j)
        tw = twist_seams(g, zx, zy)
        assert np.array_equal(g.phase_x, before[0])
        assert np.array_equal(g.phase_y, before[1])
        assert np.abs(plaquette_products(tw) - plaquette_products(g)).max() <= PLAQ_TOL
        # x Wilson loops run along rows, y Wilson loops along columns
        wx = tw.phase_x.prod(axis=0) / g.phase_x.prod(axis=0)
        assert np.abs(wx - zx).max() <= PLAQ_TOL
        if lat.periodic_y:
            wy = tw.phase_y.prod(axis=1) / g.phase_y.prod(axis=1)
            assert np.abs(wy - zy).max() <= PLAQ_TOL
        else:
            assert np.array_equal(tw.phase_y, g.phase_y)
        assert np.array_equal(tw.phase_x[:-1], g.phase_x[:-1])
        assert np.array_equal(tw.phase_y[:, :-1], g.phase_y[:, :-1])

    @pytest.mark.parametrize("geometry", ["torus", "strip"])
    def test_batched_twist_matches_scalar_twists_bitwise(self, rng, geometry):
        # each gauge of a batch is twisted as one scalar product per seam
        # link, as a gauge twisted on its own
        g = build_gauge(MagneticLattice(2, 8, 1, 2, geometry), "symmetric")
        zx, zy = np.exp(2j * np.pi * rng.random(5)), np.exp(2j * np.pi * rng.random(5))
        batch = twist_seams(g, zx, zy)
        assert batch.phase_x.shape == (5,) + g.phase_x.shape
        for i in range(5):
            phase_x, phase_y = g.phase_x.copy(), g.phase_y.copy()
            phase_x[-1, :] = [p * complex(zx[i]) for p in phase_x[-1, :]]
            if geometry == "torus":
                phase_y[:, -1] = [p * complex(zy[i]) for p in phase_y[:, -1]]
            one = twist_seams(g, zx[i], zy[i])
            for got in (batch.phase_x[i], one.phase_x):
                assert got.tobytes() == phase_x.tobytes()
            for got in (batch.phase_y[i], one.phase_y):
                assert got.tobytes() == phase_y.tobytes()

    def test_cell_gauge_is_cached_and_read_only(self):
        g = cell_gauge(2, 4, "symmetric", "strip", 3)
        assert cell_gauge(2, 4, "symmetric", "strip", 3) is g
        fresh = build_gauge(MagneticLattice(2, 4, 1, 3, "strip"), "symmetric")
        assert np.array_equal(g.phase_x, fresh.phase_x)
        assert np.array_equal(g.phase_y, fresh.phase_y)
        with pytest.raises(ValueError):
            g.phase_x[0, 0] = 1.0
        assert twist_seams(g, -1.0, 1.0).phase_x.flags.writeable

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("geometry", ["torus", "strip", "masked"])
    def test_integer_gauge_matches_fraction_oracle_bitwise(self, k, q, geometry):
        lat = MagneticLattice(k, q, 3, 2, geometry)
        for kind in ("landau", "symmetric"):
            g = build_gauge(lat, kind)
            ref_x, ref_y = fraction_gauge(lat, kind)
            assert g.phase_x.dtype == ref_x.dtype == complex
            assert g.phase_x.tobytes() == ref_x.tobytes()
            assert g.phase_y.tobytes() == ref_y.tobytes()


class TestAssembly:
    def test_hermitian_exactly(self):
        for kind in ("landau", "symmetric"):
            lat = lattice(k=2, q=4)
            op = assemble_bulk(lat, build_gauge(lat, kind))
            dev = (op.matrix - op.matrix.getH()).toarray()
            assert np.abs(dev).max() == 0.0

    def test_hop_range_one(self):
        lat = lattice()
        op = assemble_bulk(lat, build_gauge(lat))
        assert op.hop_range == 1
        coo = op.matrix.tocoo()
        for r, c in zip(coo.row, coo.col):
            if r == c:
                continue
            dx = np.abs(op.sites[r] - op.sites[c])
            dx = np.minimum(dx, [lat.n_x, lat.n_y] - dx)
            assert dx.sum() == 1

    @pytest.mark.parametrize("q", [1, 2, 3, 8])
    @pytest.mark.parametrize("geometry", ["torus", "strip", "masked"])
    def test_pattern_assembly_matches_coo_assembly_bitwise(self, rng, q, geometry):
        # the stencil written as COO entries (diagonal, then each +x and +y
        # link and its reverse) and summed by scipy; q = 1 and 2 on one cell
        # put several entries on one position of a periodic direction
        for cells, member in ((1, None), (2, None), (2, "random")):
            lat = MagneticLattice(1, q, cells, cells, geometry, rng.standard_normal((q, q)))
            g = twist_seams(build_gauge(lat, "symmetric"), np.exp(0.3j), np.exp(1.3j))
            keep = None if member is None else rng.random((lat.n_x, lat.n_y)) < 0.7
            if keep is not None:
                keep.ravel()[0] = True
            op = _assemble(lat, g, keep)
            ids = op.ids
            diag = 4.0 * q * q - 4.0 * np.pi + lat.potential[op.sites[:, 0] % q,
                                                             op.sites[:, 1] % q]
            rows, cols, vals = [np.arange(len(diag))], [np.arange(len(diag))], [diag + 0j]
            for axis, phase in ((0, g.phase_x), (1, g.phase_y)):
                for ix in range(lat.n_x):
                    for iy in range(lat.n_y):
                        to = [ix, iy]
                        to[axis] += 1
                        periodic = lat.periodic_x if axis == 0 else lat.periodic_y
                        if to[axis] == (lat.n_x, lat.n_y)[axis]:
                            if not periodic:
                                continue
                            to[axis] = 0
                        a, b = ids[ix, iy], ids[to[0], to[1]]
                        if a >= 0 and b >= 0:
                            v = -float(q) ** 2 * phase[ix, iy]
                            rows += [[a], [b]]
                            cols += [[b], [a]]
                            vals += [[v], [np.conj(v)]]
            ref = sp.csr_matrix((np.concatenate(vals),
                                 (np.concatenate(rows), np.concatenate(cols))),
                                shape=op.shape)
            ref.sum_duplicates()
            ref.sort_indices()
            assert op.matrix.data.tobytes() == ref.data.tobytes()
            assert np.array_equal(op.matrix.indices, ref.indices)
            assert np.array_equal(op.matrix.indptr, ref.indptr)
            pattern = _stencil_pattern(lat, keep)
            assert pattern.dense(op.matrix.data).tobytes() == ref.toarray().tobytes()

    def test_pattern_data_batches_gauges(self):
        lat = MagneticLattice(1, 4, 1, 1, "torus")
        g = twist_seams(build_gauge(lat), np.exp([0.1j, 0.2j, 0.3j]), np.exp([1j, 2j, 3j]))
        pattern = _stencil_pattern(lat, None)
        data = pattern.data(g.phase_x, g.phase_y)
        for i in range(3):
            one = pattern.data(g.phase_x[i], g.phase_y[i])
            assert data[i].tobytes() == one.tobytes()

    def test_bulk_requires_torus(self):
        lat = lattice(geometry="strip")
        with pytest.raises(NonTorusGeometry):
            assemble_bulk(lat, build_gauge(lat))

    def test_free_laplacian_closed_form(self):
        # k=0, W=0: discrete Fourier diagonalization oracle, minimum 0
        lat = MagneticLattice(0, 4, 3, 2, "torus")
        op = assemble_bulk(lat, build_gauge(lat))
        ev = np.linalg.eigvalsh(op.matrix.toarray())
        nx, ny = lat.n_x, lat.n_y
        expect = []
        for a in range(nx):
            for b in range(ny):
                expect.append(lat.q ** 2 * (4 - 2 * np.cos(2 * np.pi * a / nx)
                                            - 2 * np.cos(2 * np.pi * b / ny)))
        assert np.abs(np.sort(expect) - ev).max() < 1e-9
        assert abs(ev[0]) < 1e-9

    def test_constant_potential_shifts_spectrum(self):
        c = 0.37
        lat0 = lattice(k=1, q=4)
        latc = lattice(k=1, q=4, potential=np.full((4, 4), c))
        g = build_gauge(lat0)
        ev0 = np.linalg.eigvalsh(assemble_bulk(lat0, g).matrix.toarray())
        evc = np.linalg.eigvalsh(assemble_bulk(latc, build_gauge(latc)).matrix.toarray())
        assert np.abs(evc - (ev0 + c)).max() < 1e-10

    def test_landau_level_structure(self, torus_reports):
        # lowest cluster near 0, next near 8 pi, as h -> 0
        rep = torus_reports(1, 8, 4)
        ev = rep.eigenvalues
        assert abs(ev[0]) < 0.5
        n_lll = int((ev < 4 * np.pi).sum())
        assert n_lll == 2 * 16
        assert abs(ev[n_lll] - 8 * np.pi) < 1.6


class TestRestriction:
    def test_mask_all_open_window_matches_masked_bulk(self):
        lat = lattice(geometry="masked")
        g = build_gauge(lat)
        full = assemble_restricted(lat, g, mask_all(lat))
        assert full.dimension == lat.n_x * lat.n_y
        # diagonal is the full stencil diagonal even at the window edge
        d = full.matrix.diagonal()
        assert np.allclose(d, 4 * lat.q ** 2 - 4 * np.pi * lat.k)

    def test_single_site(self):
        lat = lattice(geometry="masked")
        g = build_gauge(lat)
        op = assemble_restricted(lat, g, mask_from_sites(lat, [(3, 3)]))
        expect = 4 * lat.q ** 2 - 4 * np.pi * lat.k
        assert op.matrix.shape == (1, 1)
        assert abs(op.matrix[0, 0] - expect) < 1e-12

    @pytest.mark.parametrize("site", [(-1, 0), (9, 9)])
    def test_site_outside_the_window(self, site):
        # q = 2 on 2 x 2 cells: a 4 x 4 window, which holds neither site;
        # numpy indexing would wrap (-1, 0) onto site (3, 0)
        lat = MagneticLattice(1, 2, 2, 2, "masked")
        with pytest.raises(MaskMismatch, match=rf"site \({site[0]}, {site[1]}\) lies "
                                               r"outside the 4 x 4 site window"):
            mask_from_sites(lat, [site])

    def test_restriction_is_principal_submatrix(self):
        lat = lattice(geometry="masked")
        g = build_gauge(lat)
        full = assemble_restricted(lat, g, mask_all(lat))
        mask = make_mask(lat, HalfPlaneShape(1.5))
        sub = assemble_restricted(lat, g, mask)
        keep = np.flatnonzero(mask.member.ravel())
        expect = full.matrix[keep][:, keep]
        assert (sub.matrix - expect).nnz == 0

    def test_empty_region(self):
        lat = lattice(geometry="masked")
        with pytest.raises(EmptyRegion):
            assemble_restricted(lat, build_gauge(lat),
                                make_mask(lat, HalfPlaneShape(-5.0)))


class TestMasks:
    def test_half_plane_membership_exact(self):
        lat = lattice(q=4, geometry="masked")
        mask = make_mask(lat, HalfPlaneShape(1.0))
        for ix in range(lat.n_x):
            for iy in range(lat.n_y):
                assert mask.member[ix, iy] == (iy * lat.h <= 1.0)

    def test_boundary_distance_zero_iff_at_boundary(self):
        lat = lattice(q=4, geometry="masked")
        mask = make_mask(lat, HalfPlaneShape(1.0))
        bd = mask.boundary_distance
        for ix in range(lat.n_x):
            for iy in range(lat.n_y):
                has_out = not mask.member[ix, iy]
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    jx, jy = ix + dx, iy + dy
                    if 0 <= jx < lat.n_x and 0 <= jy < lat.n_y:
                        has_out |= not mask.member[jx, jy]
                assert (bd[ix, iy] == 0.0) == (has_out or not mask.member[ix, iy])

    def test_all_mask_distance_infinite(self):
        lat = lattice(geometry="masked")
        mask = mask_all(lat)
        assert np.all(np.isinf(mask.boundary_distance))

    def test_graph_and_ball_shapes(self):
        lat = lattice(q=4, geometry="masked")
        gm = make_mask(lat, GraphShape((1.0, 1.25, 1.5, 1.25)))
        assert gm.n_inside > 0
        bm = make_mask(lat, BallsShape(HalfPlaneShape(0.5), 1 / 3,
                                       ((1.0, 1.5), (2.0, 1.5))))
        assert bm.n_inside > make_mask(lat, HalfPlaneShape(0.5)).n_inside
        dm = make_mask(lat, DiskShape((1.5, 1.5), 1.0))
        assert dm.n_inside > 0


class TestGaugeTransform:
    def test_identity_phases(self):
        lat = lattice()
        op = assemble_bulk(lat, build_gauge(lat))
        out = gauge_transform(op, np.ones(op.dimension, complex))
        assert (out.matrix - op.matrix).nnz == 0

    def test_random_phases_preserve_spectrum(self, rng):
        lat = lattice()
        op = assemble_bulk(lat, build_gauge(lat))
        phases = np.exp(2j * np.pi * rng.random(op.dimension))
        out = gauge_transform(op, phases)
        ev0 = np.linalg.eigvalsh(op.matrix.toarray())
        ev1 = np.linalg.eigvalsh(out.matrix.toarray())
        assert np.abs(ev0 - ev1).max() < 1e-10
        dev = (out.matrix - out.matrix.getH()).toarray()
        assert np.abs(dev).max() == 0.0

    def test_missing_phase(self):
        lat = lattice()
        op = assemble_bulk(lat, build_gauge(lat))
        with pytest.raises(MissingPhase):
            gauge_transform(op, np.ones(op.dimension - 1, complex))

    def test_path_integrated_gauge_change_symmetric_to_landau(self):
        # on a simply connected window the two assemblies are related by a
        # diagonal phase field obtained by integrating the link-phase ratios
        lat = lattice(k=1, q=4, geometry="masked")
        gs = build_gauge(lat, "symmetric")
        gl = build_gauge(lat, "landau")
        hs = assemble_restricted(lat, gs, mask_all(lat))
        hl = assemble_restricted(lat, gl, mask_all(lat))
        nx, ny = lat.n_x, lat.n_y
        p = np.zeros((nx, ny), complex)
        p[0, 0] = 1.0
        for iy in range(1, ny):  # walk up the first column
            p[0, iy] = p[0, iy - 1] * gl.phase_y[0, iy - 1] / gs.phase_y[0, iy - 1]
        for ix in range(1, nx):  # then across every row
            p[ix, :] = p[ix - 1, :] * gl.phase_x[ix - 1, :] / gs.phase_x[ix - 1, :]
        out = gauge_transform(hs, p.ravel())
        assert np.abs((out.matrix - hl.matrix).toarray()).max() < 1e-12
