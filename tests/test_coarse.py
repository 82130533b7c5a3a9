import numpy as np
import pytest
import scipy.sparse as sp

from gapfill import coarse
from gapfill.coarse import affiliation_check, ideal_multiplicativity, wideness_check
from gapfill.errors import HopRangeViolation, MaskMismatch
from gapfill.model import (BallsShape, DiskShape, GraphShape, HalfPlaneShape,
                           HermitianOperator, MagneticLattice,
                           assemble_restricted, build_gauge, gauge_transform,
                           make_mask, mask_all, mask_from_member, mask_from_sites)
from gapfill.spectral import (apply_filter, materialize_filter,
                              polynomial_filter, smoothed_indicator_filter)


@pytest.fixture(scope="module")
def window():
    """Open k=1, q=4 window with a half-plane region Z = {y <= 4}."""
    lat = MagneticLattice(1, 4, 6, 6, "masked")
    g = build_gauge(lat)
    bulk = assemble_restricted(lat, g, mask_all(lat))
    mask = make_mask(lat, HalfPlaneShape(4.0))
    edge_op = assemble_restricted(lat, g, mask)
    a, b = bulk.gershgorin()
    return lat, g, bulk, mask, edge_op, (a - 1.0, b + 1.0)


class TestPropagation:
    def test_identity_polynomial_one_hop(self, window):
        lat, _, bulk, _, _, encl = window
        filt = polynomial_filter([0.0, 1.0], encl)
        probe = bulk.ids[lat.n_x // 2, lat.n_y // 2]
        v = np.zeros(bulk.dimension)
        v[probe] = 1.0
        out = apply_filter(bulk, filt, v)
        dist = lat.h * np.linalg.norm(bulk.sites - bulk.sites[probe], axis=1)
        one_hop = np.isclose(dist, lat.h)
        assert np.all(out[one_hop] != 0.0)
        assert np.all(out[dist > lat.h * (1 + 1e-9)] == 0.0)  # bitwise


class TestAffiliation:
    @pytest.mark.parametrize("degree", [3, 8])
    def test_polynomial_filter_bitwise_zero(self, window, degree):
        lat, _, bulk, mask, edge_op, encl = window
        coeffs = np.linspace(1.0, 0.3, degree + 1)
        filt = polynomial_filter(coeffs, encl)
        radii = [0.0, degree * lat.h + lat.h, degree * lat.h + 2 * lat.h]
        rep = affiliation_check(bulk, edge_op, mask, filt, radii)
        assert rep.exact_zero_radius == pytest.approx(degree * lat.h)
        assert rep.deviations[1] == 0.0  # bitwise through the norm estimate
        assert rep.deviations[2] == 0.0

    def test_trivial_mask_gives_zero(self, window):
        lat, g, bulk, _, _, encl = window
        full = mask_all(lat)
        same = assemble_restricted(lat, g, full)
        filt = polynomial_filter([0.0, 1.0, 0.2, 0.1], encl)
        rep = affiliation_check(bulk, same, full, filt, [0.0, 1.0])
        assert np.all(rep.deviations == 0.0)

    def test_smooth_filter_decays_monotonically(self, window):
        lat, _, bulk, mask, edge_op, encl = window
        filt = smoothed_indicator_filter(2.0, 8 * np.pi - 2.0, 3.0, encl, 120)
        rep = affiliation_check(bulk, edge_op, mask, filt,
                                [0.5, 1.5, 2.5, 3.5], verify_bitwise=False)
        assert np.all(np.diff(rep.deviations) <= 1e-9)
        assert rep.deviations[-1] < 1e-4
        assert rep.exact_zero_radius is None

    def test_gauge_symmetry(self, window):
        # simultaneous gauge transformation leaves the deviations unchanged
        lat, g, bulk, mask, edge_op, encl = window
        filt = smoothed_indicator_filter(2.0, 8 * np.pi - 2.0, 3.0, encl, 100)
        radii = [1.0, 2.0]
        rep0 = affiliation_check(bulk, edge_op, mask, filt, radii,
                                 verify_bitwise=False)
        rng = np.random.default_rng(5)
        phases = np.exp(2j * np.pi * rng.random(bulk.dimension))
        bulk_t = gauge_transform(bulk, phases)
        keep = np.flatnonzero(mask.member.ravel())
        edge_t = gauge_transform(edge_op, phases[keep])
        rep1 = affiliation_check(bulk_t, edge_t, mask, filt, radii,
                                 verify_bitwise=False)
        # agreement to the norm estimator's relative certification (1e-3)
        assert np.allclose(rep0.deviations, rep1.deviations, rtol=5e-3, atol=1e-9)

    def test_mask_mismatch(self, window):
        lat, g, bulk, mask, edge_op, encl = window
        other = make_mask(lat, HalfPlaneShape(2.0))
        filt = polynomial_filter([0.0, 1.0], encl)
        with pytest.raises(MaskMismatch):
            affiliation_check(bulk, edge_op, other, filt, [1.0])


def _far_sites(edge_op, mask, cone):
    bd = mask.boundary_distance[edge_op.sites[:, 0], edge_op.sites[:, 1]]
    return np.flatnonzero(bd > cone + 1e-12)


def _far_differences(bulk, edge_op, mask, filt, basis):
    """Far rows of (q(p(D)) - p(D')) basis, as affiliation_check forms them."""
    a, b = filt.enclosure
    z_to_bulk = coarse._mask_alignment(bulk, edge_op, mask)
    vb = np.zeros((bulk.dimension, basis.shape[1]), complex)
    vb[z_to_bulk] = basis
    w_bulk = coarse._cheb_apply(bulk.matrix, filt.coefficients, a, b, vb)[z_to_bulk]
    w_edge = coarse._cheb_apply(edge_op.matrix, filt.coefficients, a, b, basis)
    far = _far_sites(edge_op, mask, filt.degree * edge_op.h)
    return (w_bulk - w_edge)[far]


def _block_width(bulk):
    """Probe columns per block of the bitwise verify: one block of about
    VERIFY_BLOCK_BYTES, at least one column."""
    return max(1, coarse.VERIFY_BLOCK_BYTES // (16 * bulk.dimension))


def _per_column_differences(bulk, edge_op, mask, filt):
    """The reference verify: one unit column per far site, in blocks as wide
    as the verify's.

    Returns the far x far block of the difference; the verdict is that it
    is exactly zero.
    """
    far = _far_sites(edge_op, mask, filt.degree * edge_op.h)
    width = _block_width(bulk)
    blocks = []
    for start in range(0, far.size, width):
        cols = far[start:start + width]
        basis = np.zeros((edge_op.dimension, cols.size), complex)
        basis[cols, np.arange(cols.size)] = 1.0
        blocks.append(_far_differences(bulk, edge_op, mask, filt, basis))
    return np.hstack(blocks)


def _one_ulp_up(op, site):
    """op with its diagonal entry at row `site` moved one ULP up."""
    m = op.matrix.copy()
    k = m.indptr[site] + np.searchsorted(m.indices[m.indptr[site]:m.indptr[site + 1]],
                                         site)
    m.data[k] = complex(np.nextafter(m.data[k].real, np.inf), m.data[k].imag)
    return HermitianOperator(m, op.sites, op.ids, op.h, op.hop_range)


@pytest.fixture(scope="module")
def strip_window():
    """Strip (periodic in x) k=1, q=4 window of 5 x 4 cells, Z = {y <= 3}.

    Its 20 x-columns are not a multiple of the degree-3 class modulus 8, so
    classes meet across the seam.
    """
    lat = MagneticLattice(1, 4, 5, 4, "strip")
    g = build_gauge(lat)
    bulk = assemble_restricted(lat, g, mask_all(lat))
    mask = make_mask(lat, HalfPlaneShape(3.0))
    edge_op = assemble_restricted(lat, g, mask)
    a, b = bulk.gershgorin()
    return lat, g, bulk, mask, edge_op, (a - 1.0, b + 1.0)


class TestBitwiseVerify:
    """The probe verify of affiliation_check on the 6x6-cell window.

    A degree-3 filter leaves 312 far sites past its cone; they fall into
    the 32 diagonal-residue classes modulo 8, one probe each.
    """

    far_sites = staticmethod(_far_sites)

    def test_one_ulp_in_the_last_probe_block_fails(self, window):
        # degree 8 puts the 192 far sites in 144 probes, two blocks of at
        # most 113 columns on this 576-site bulk; the perturbed site lies
        # in a probe of the second block, and that block's own probe
        # columns show it.  Sites of the first block lie one hop from it,
        # so the verify may refuse it there already; that every block is
        # applied is checked by test_verify_blocks_fit_the_byte_budget
        lat, _, bulk, mask, edge_op, encl = window
        filt = polynomial_filter(np.linspace(1.0, 0.3, 9), encl)
        cone = filt.degree * lat.h
        far = self.far_sites(edge_op, mask, cone)
        probes = coarse._probes(far, edge_op.sites[far], lat, filt.degree)
        width = _block_width(bulk)
        last = probes[(len(probes) - 1) // width * width:]
        assert len(probes) > width and len(last) < len(probes)
        site = last[-1][-1]
        perturbed = _one_ulp_up(edge_op, site)
        basis = np.zeros((edge_op.dimension, len(last)), complex)
        for c, p in enumerate(last):
            basis[p, c] = 1.0
        shown = _far_differences(bulk, perturbed, mask, filt, basis)
        assert shown[np.searchsorted(far, site), -1] != 0
        assert not _far_differences(bulk, edge_op, mask, filt, basis).any()
        assert affiliation_check(bulk, edge_op, mask, filt, [1.0]).exact_zero_radius == cone
        assert affiliation_check(bulk, perturbed, mask, filt, [1.0]).exact_zero_radius is None

    def test_verify_blocks_fit_the_byte_budget(self, window, monkeypatch):
        lat, _, bulk, mask, edge_op, encl = window
        widths, probes = [], []
        apply = coarse._cheb_apply

        def spy(matrix, coefficients, a, b, v):
            if v.ndim == 2:
                widths.append(v.shape[1])
                if matrix is edge_op.matrix:
                    probes.extend(np.flatnonzero(col) for col in v.T)
            return apply(matrix, coefficients, a, b, v)

        monkeypatch.setattr(coarse, "_cheb_apply", spy)
        # degree 8 puts 192 far sites in 144 probes: two blocks of at most
        # 113 columns per recurrence
        width = _block_width(bulk)
        assert width == 113
        assert width * 16 * bulk.dimension <= coarse.VERIFY_BLOCK_BYTES
        for degree in (3, 8):
            widths.clear()
            probes.clear()
            filt = polynomial_filter(np.linspace(1.0, 0.3, degree + 1), encl)
            rep = affiliation_check(bulk, edge_op, mask, filt, [1.0])
            assert rep.exact_zero_radius == pytest.approx(filt.degree * lat.h)
            # every far site is in exactly one probe
            far = self.far_sites(edge_op, mask, filt.degree * lat.h)
            assert np.array_equal(np.sort(np.concatenate(probes)), far)
            # the sites of one probe lie pairwise more than 2 * degree * hop_range apart
            for p in probes:
                pts = edge_op.sites[p]
                hops = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
                assert np.all(hops[~np.eye(len(p), dtype=bool)]
                              > 2 * degree * edge_op.hop_range)
            # each probe goes through both recurrences exactly once
            assert sum(widths) == 2 * len(probes)
            assert max(widths) <= width
            assert len(widths) == 2 * -(-len(probes) // width)
            assert len(probes) < far.size

    @pytest.mark.parametrize("columns", [1, 7, None])
    @pytest.mark.parametrize("shape", ["open", "strip"])
    def test_verdict_does_not_depend_on_the_block_width(self, window, strip_window,
                                                        monkeypatch, shape, columns):
        # 1 column, 7 columns, or every probe in one block
        lat, _, bulk, mask, edge_op, encl = window if shape == "open" else strip_window
        filt = polynomial_filter(np.linspace(1.0, 0.3, 4), encl)
        cone = filt.degree * lat.h
        far = self.far_sites(edge_op, mask, cone)
        n_probes = len(coarse._probes(far, edge_op.sites[far], lat, filt.degree))
        columns = n_probes if columns is None else columns
        monkeypatch.setattr(coarse, "VERIFY_BLOCK_BYTES", columns * 16 * bulk.dimension)
        widths = []
        apply = coarse._cheb_apply

        def spy(matrix, coefficients, a, b, v):
            if v.ndim == 2:
                widths.append(v.shape[1])
            return apply(matrix, coefficients, a, b, v)

        monkeypatch.setattr(coarse, "_cheb_apply", spy)
        rep = affiliation_check(bulk, edge_op, mask, filt, [1.0])
        assert rep.exact_zero_radius == cone
        assert max(widths) == columns
        assert len(widths) == 2 * -(-n_probes // columns)
        perturbed = _one_ulp_up(edge_op, far[far.size // 2])
        assert affiliation_check(bulk, perturbed, mask, filt, [1.0]).exact_zero_radius is None

    @pytest.mark.parametrize("site", [None, "first", "middle", "last"])
    @pytest.mark.parametrize("shape", ["open", "strip"])
    def test_probe_verdict_matches_per_column_verdict(self, window, strip_window,
                                                      shape, site):
        lat, _, bulk, mask, edge_op, encl = window if shape == "open" else strip_window
        filt = polynomial_filter(np.linspace(1.0, 0.3, 4), encl)
        cone = filt.degree * lat.h
        far = self.far_sites(edge_op, mask, cone)
        if site is not None:
            edge_op = _one_ulp_up(edge_op, far[{"first": 0, "middle": far.size // 2,
                                                "last": -1}[site]])
        per_column = _per_column_differences(bulk, edge_op, mask, filt)
        assert (not per_column.any()) == (site is None)
        rep = affiliation_check(bulk, edge_op, mask, filt, [1.0])
        assert (rep.exact_zero_radius is not None) == (not per_column.any())
        # bitwise: each probe's difference holds its sites' own column
        # entries, at most one of them nonzero in any far row
        probes = coarse._probes(far, edge_op.sites[far], lat, filt.degree)
        basis = np.zeros((edge_op.dimension, len(probes)), complex)
        for c, p in enumerate(probes):
            basis[p, c] = 1.0
        probed = _far_differences(bulk, edge_op, mask, filt, basis)
        column_of = {j: c for c, j in enumerate(far)}
        for c, p in enumerate(probes):
            own = per_column[:, [column_of[j] for j in p]]
            assert np.all(np.count_nonzero(own, axis=1) <= 1)
            assert np.array_equal(probed[:, c], own.sum(axis=1))
        if shape == "strip":
            # a class that meets itself across the seam is split
            classes = {((ix + iy) % 8, (ix - iy) % 8) for ix, iy in edge_op.sites[far]}
            assert len(probes) > len(classes)

    def test_entry_beyond_the_hop_range_is_refused(self, window):
        lat, _, bulk, mask, edge_op, encl = window
        filt = polynomial_filter(np.linspace(1.0, 0.3, 4), encl)
        far = self.far_sites(edge_op, mask, filt.degree * lat.h)
        i = far[0]
        j = edge_op.ids[edge_op.sites[i, 0] + 2, edge_op.sites[i, 1] + 1]
        assert j in far
        pair = sp.csr_matrix(([1e-3j, -1e-3j], ([i, j], [j, i])), shape=edge_op.shape)
        m = (edge_op.matrix + pair).tocsr()
        m.sort_indices()
        bad = HermitianOperator(m, edge_op.sites, edge_op.ids, edge_op.h, edge_op.hop_range)
        with pytest.raises(HopRangeViolation, match="3 hops apart"):
            affiliation_check(bulk, bad, mask, filt, [1.0])


class TestIdealMultiplicativity:
    def test_diagonal_operators_commute_with_compression(self, window):
        lat, _, bulk, mask, _, encl = window
        filt = polynomial_filter([1.0], encl)  # identity: diagonal
        ident = materialize_filter(bulk, filt)
        prof = ideal_multiplicativity(ident, ident, mask, [0.0, 1.0])
        assert np.all(prof.deviations == 0.0)

    def test_stencil_defect_within_two_hops(self, window):
        lat, _, bulk, mask, _, encl = window
        prof = ideal_multiplicativity(bulk, bulk, mask, [0.0, 1.0, 2.0])
        assert prof.exact_zero_beyond == pytest.approx(2 * lat.h)
        assert prof.deviations[0] > 0.0
        assert prof.deviations[1] == 0.0
        assert prof.deviations[2] == 0.0

    def test_filter_pair_support_arithmetic(self):
        # degree-10 and degree-15 filters: defect vanishes beyond 25 h, bitwise
        lat = MagneticLattice(1, 4, 10, 10, "masked")
        g = build_gauge(lat)
        bulk = assemble_restricted(lat, g, mask_all(lat))
        mask = make_mask(lat, HalfPlaneShape(8.0))
        a, b = bulk.gershgorin()
        encl = (a - 1, b + 1)
        c10 = np.zeros(11); c10[-1] = 1.0; c10[2] = 0.5
        c15 = np.zeros(16); c15[-1] = 1.0; c15[3] = -0.25
        f10 = materialize_filter(bulk, polynomial_filter(c10, encl))
        f15 = materialize_filter(bulk, polynomial_filter(c15, encl))
        prof = ideal_multiplicativity(f10, f15, mask, [25 * lat.h + lat.h])
        assert prof.exact_zero_beyond == pytest.approx(25 * lat.h)
        assert prof.deviations[0] == 0.0

    def test_window_mismatch(self, window):
        lat, g, bulk, mask, edge_op, _ = window
        with pytest.raises(MaskMismatch):
            ideal_multiplicativity(bulk, edge_op, mask, [1.0])


class TestWideness:
    def test_half_plane_proved(self, window):
        lat = window[0]
        cert = wideness_check(HalfPlaneShape(3.0), 1.0, lat, seed=11)
        assert cert.verdict == "wide_proved"
        assert cert.spot_checks_passed == cert.spot_checks_total == 100

    def test_half_plane_rule_formula(self, window):
        # witness rule translates into the deep interior
        lat = window[0]
        cert = wideness_check(HalfPlaneShape(3.0), 2.0, lat, seed=2)
        assert "translate below" in cert.witness
        assert cert.verdict == "wide_proved"

    def test_graph_region_proved(self, window):
        lat = window[0]
        cert = wideness_check(GraphShape((3.0, 3.25, 2.75, 3.0)), 1.0, lat, seed=3)
        assert cert.verdict == "wide_proved"
        assert cert.spot_checks_passed == 100

    def test_balls_on_graph_base_proved(self, window):
        # the complement of the decorated region lies above the base graph,
        # so the graph rule at its lowest sample applies
        lat = window[0]
        shape = BallsShape(GraphShape((3.0,) * 4), 0.3, ((1.0, 3.2),))
        cert = wideness_check(shape, 1.0, lat)
        assert cert.verdict == "wide_proved"
        assert cert.details == {"rule_base_level": 3.0}
        assert "base min f" in cert.witness

    def test_disk_counterexample(self, window):
        lat = window[0]
        cert = wideness_check(DiskShape((3.0, 3.0), 2.0), 1.0, lat, y_diameter=8.0)
        assert cert.verdict == "counterexample_found"

    def test_explicit_bounded_mask_counterexample(self, window):
        lat = window[0]
        mask = make_mask(lat, DiskShape((3.0, 3.0), 2.0))
        cert = wideness_check(mask, 0.5, lat, y_diameter=5.0, seed=4)
        assert cert.verdict == "counterexample_found"

    def test_explicit_mask_search_success_is_inconclusive(self, window):
        lat = window[0]
        mask = make_mask(lat, HalfPlaneShape(4.0))
        cert = wideness_check(mask, 0.5, lat, y_diameter=0.5, seed=5)
        assert cert.verdict == "inconclusive"
        assert "not a proof" in cert.witness

    def test_explicit_mask_touching_edge_window_too_small(self, window):
        lat = window[0]
        member = np.zeros((lat.n_x, lat.n_y), bool)
        member[:, :3] = True  # thin slab along the window edge
        mask = mask_from_member(lat, member)
        cert = wideness_check(mask, 1.0, lat, y_diameter=4.0, seed=6)
        assert cert.verdict == "inconclusive"
        assert "window too small" in cert.witness

    @pytest.mark.parametrize("case", ["one-site-60x60", "disk", "edge-slab"])
    def test_mask_search_matches_brute_force(self, case):
        # one-site region deep in a 60x60-cell window: every window translation
        # of a one-site Y must be searched, not a prefix of them
        if case == "one-site-60x60":
            lat = MagneticLattice(1, 1, 60, 60, "masked")
            mask, r, y_diameter, seed = mask_from_sites(lat, [(55, 55)]), 0.5, 0.5, 0
        elif case == "disk":
            lat = MagneticLattice(1, 4, 6, 6, "masked")
            mask, r, y_diameter, seed = make_mask(lat, DiskShape((3.0, 3.0), 2.0)), 0.5, 3.0, 4
        else:
            lat = MagneticLattice(1, 4, 6, 6, "masked")
            member = np.zeros((lat.n_x, lat.n_y), bool)
            member[:, :9] = True
            mask, r, y_diameter, seed = mask_from_member(lat, member), 0.6, 1.5, 6
        cert = wideness_check(mask, r, lat, y_diameter=y_diameter, seed=seed)

        rho = 0
        while (rho + 1) * lat.h <= r:
            rho += 1
        ball = [(dx, dy) for dx in range(-rho, rho + 1) for dy in range(-rho, rho + 1)
                if abs(dx) + abs(dy) <= rho]

        def deep(jx, jy):
            return all(not (0 <= jx + dx < lat.n_x and 0 <= jy + dy < lat.n_y)
                       or mask.member[jx + dx, jy + dy] for (dx, dy) in ball)

        def fits(y_sites):
            return any(all(0 <= ix + gx * lat.q < lat.n_x and 0 <= iy + gy * lat.q < lat.n_y
                           and mask.member[ix + gx * lat.q, iy + gy * lat.q]
                           and deep(ix + gx * lat.q, iy + gy * lat.q) for (ix, iy) in y_sites)
                       for gx in range(-lat.cells_x, lat.cells_x + 1)
                       for gy in range(-lat.cells_y, lat.cells_y + 1))

        rng = np.random.default_rng(seed)
        for _ in range(coarse.N_SEARCH_SETS):
            y_sites = coarse._sample_bounded_set(rng, lat, y_diameter)
            if not fits(y_sites):
                assert cert.details["failed_y"] == y_sites
                assert cert.verdict == ("counterexample_found" if case == "disk"
                                        else "inconclusive")
                break
        else:
            assert "failed_y" not in cert.details
            assert cert.verdict == "inconclusive"
