import numpy as np
import pytest

from gapfill.bloch import torus_spectrum
from gapfill.edge import (gap_filling_check, lift_block_vector,
                          localization_profile, make_strip, strip_bands,
                          strip_block, strip_mask, strip_operator)
from gapfill.errors import BandConnectionAmbiguous, UnsupportedShape
from gapfill.model import (BallsShape, GraphShape, HalfPlaneShape,
                           MagneticLattice, build_gauge, make_mask,
                           mask_all)
from gapfill.spectral import certify_interval, eigensolve


@pytest.fixture(scope="module")
def small_gap():
    """Certified principal gap of the k=1, h=1/4 bulk torus."""
    lat = MagneticLattice(1, 4, 4, 4, "torus")
    rep = torus_spectrum(lat, build_gauge(lat))
    gap = next(g for g in rep.gaps if g.contains(4 * np.pi))
    return rep, certify_interval(rep, gap.lower + 0.02 * gap.width,
                                 gap.upper - 0.02 * gap.width)


class TestStripConstruction:
    def test_block_decomposition_matches_assembled_strip(self):
        # the second strip has Phi = 1/4 and a cell potential that is not
        # symmetric under ix <-> iy
        w = 0.7 * (np.arange(16).reshape(4, 4) % 5 - 2.0)
        for k, potential in ((1, None), (2, w)):
            strip = make_strip(k, 4, 6, 3, potential=potential)
            full = eigensolve(strip_operator(strip)).eigenvalues
            blocks = np.sort(np.concatenate(
                [eigensolve(strip_block(strip, 2 * np.pi * m / 3)).eigenvalues
                 for m in range(3)]))
            assert np.abs(full - blocks).max() < 1e-8

    def test_block_decomposition_with_graph_shape(self):
        f = tuple(0.25 * np.sin(2 * np.pi * np.arange(4) / 4))
        strip = make_strip(1, 4, 6, 2, shape=GraphShape(f))
        full = eigensolve(strip_operator(strip)).eigenvalues
        blocks = np.sort(np.concatenate(
            [eigensolve(strip_block(strip, 2 * np.pi * m / 2)).eigenvalues
             for m in range(2)]))
        assert np.abs(full - blocks).max() < 1e-8

    @pytest.mark.parametrize("n_samples", [3, 5])
    def test_graph_shape_sample_count(self, n_samples):
        # strip and window masks name the same miscount (q = 4)
        shape = GraphShape((0.1,) * n_samples)
        with pytest.raises(UnsupportedShape, match=f"q = 4 samples .* got {n_samples}"):
            strip_mask(make_strip(1, 4, 6, 2, shape=shape))
        with pytest.raises(UnsupportedShape, match=f"q = 4 samples .* got {n_samples}"):
            make_mask(MagneticLattice(1, 4, 2, 2, "masked"), shape)

    def test_mask_has_vacuum_on_both_sides(self):
        strip = make_strip(1, 4, 6, 2)
        mask = strip_mask(strip)
        assert not mask.member[:, 0].any()
        assert not mask.member[:, -1].any()
        assert np.isfinite(mask.boundary_distance[mask.member]).all()

    def test_lifted_vector_is_eigenvector(self):
        strip = make_strip(1, 4, 6, 3)
        mask = strip_mask(strip)
        kappa = 2 * np.pi / 3
        block = strip_block(strip, kappa, mask)
        rep = eigensolve(block, keep_vectors=True)
        j = len(rep.eigenvalues) // 2
        vec = lift_block_vector(strip, block, kappa, rep.eigenvectors[:, j], mask)
        op = strip_operator(strip)
        res = np.linalg.norm(op.matrix @ vec - rep.eigenvalues[j] * vec)
        assert res < 1e-8


class TestGapFilling:
    def test_all_samples_pass(self, small_gap):
        _, gap = small_gap
        strip = make_strip(1, 4, 8, 24)
        report = gap_filling_check(strip, gap, n_samples=8, delta=1.0)
        assert report.all_pass
        assert report.max_distance <= 1.0

    def test_samples_below_spectrum_all_fail(self, small_gap):
        from gapfill.spectral import SpectralInterval
        _, _ = small_gap
        strip = make_strip(1, 4, 8, 6)
        fake_gap = SpectralInterval(-10.0, -5.0, 0.5)
        report = gap_filling_check(strip, fake_gap, n_samples=5, delta=0.5)
        assert not report.verdicts.any()

    def test_width_doubling_does_not_increase_distance(self, small_gap):
        _, gap = small_gap
        r1 = gap_filling_check(make_strip(1, 4, 8, 24), gap, 8, 1.0,
                               n_localization=0)
        r2 = gap_filling_check(make_strip(1, 4, 16, 24), gap, 8, 1.0,
                               n_localization=0)
        assert r2.max_distance <= r1.max_distance + 1e-6

    def test_bulk_torus_has_no_gap_filling(self, small_gap):
        # without a boundary the certified gap interior stays empty
        rep, gap = small_gap
        eps = 0.05 * gap.width
        samples = np.linspace(gap.lower + eps, gap.upper - eps, 8)
        dist = np.abs(rep.eigenvalues[None, :] - samples[:, None]).min(axis=1)
        assert (dist > 1.0).all()

    def test_width_precondition_satisfied(self, small_gap):
        # 8 magnetic lengths = 8/sqrt(4 pi k) < 4 cells for every k >= 1,
        # so any constructible strip satisfies the precondition
        strip = make_strip(1, 4, 4, 4)
        assert strip.width_cells >= 8 * strip.lattice.magnetic_length


class TestLocalization:
    def test_boundary_supported_vector(self):
        strip = make_strip(1, 4, 6, 2)
        mask = strip_mask(strip)
        op = strip_operator(strip)
        bd = mask.boundary_distance[mask.member]
        vec = np.where(bd == 0.0, 1.0, 0.0).astype(complex)
        prof = localization_profile(op, (1.0, vec), mask)
        assert prof.cumulative_mass[0] == pytest.approx(1.0)
        assert prof.distances[0] == 0.0

    def test_uniform_vector_matches_site_fraction(self):
        strip = make_strip(1, 4, 6, 2)
        mask = strip_mask(strip)
        op = strip_operator(strip)
        n = mask.n_inside
        vec = np.ones(n, complex)
        prof = localization_profile(op, (0.0, vec), mask)
        bd = mask.boundary_distance[mask.member]
        for d, c in zip(prof.distances, prof.cumulative_mass):
            assert c == pytest.approx((bd <= d).sum() / n)

    def test_mass_curve_monotone_ends_at_one(self, small_gap):
        _, gap = small_gap
        report = gap_filling_check(make_strip(1, 4, 8, 12), gap, 4, 1.0)
        assert report.localization
        for prof in report.localization:
            assert np.all(np.diff(prof.cumulative_mass) >= -1e-12)
            assert prof.cumulative_mass[-1] == pytest.approx(1.0)

    def test_midgap_state_is_boundary_localized(self):
        # calibrated on the dense run at h = 1/8 (where h resolves the
        # magnetic length): >= 75% of the mass within 1.5 units, and the
        # first-e-folding decay rate within 50% of 1/magnetic_length
        lat = MagneticLattice(1, 8, 4, 4, "torus")
        rep = torus_spectrum(lat, build_gauge(lat))
        gap = next(g for g in rep.gaps if g.contains(4 * np.pi))
        gap = certify_interval(rep, gap.lower + 0.02 * gap.width,
                               gap.upper - 0.02 * gap.width)
        strip = make_strip(1, 8, 16, 8)
        report = gap_filling_check(strip, gap, 4, 1.5)
        rate_ref = 1.0 / strip.lattice.magnetic_length
        assert report.localization
        for prof in report.localization:
            assert prof.mass_within(1.5) >= 0.75
            assert 0.5 * rate_ref <= prof.decay_rate <= 1.5 * rate_ref


class TestPerturbation:
    def test_decorated_strip_still_fills_gap(self, small_gap):
        # half-plane plus 1/3-balls one unit above the edge: same delta passes
        _, gap = small_gap
        shape = BallsShape(HalfPlaneShape(0.0), 1.0 / 3.0,
                           tuple((float(c), 1.0) for c in range(24)))
        strip = make_strip(1, 4, 8, 24, shape=shape)
        report = gap_filling_check(strip, gap, 8, 1.0, n_localization=0)
        assert report.all_pass


@pytest.fixture(scope="module")
def flow():
    return strip_bands(make_strip(1, 4, 8, 2), n_kappa=24, e_ref=9.0)


class TestSpectralFlow:
    def test_net_flow_lower_edge_is_plus_one(self, flow):
        assert flow.net_flow == 1

    def test_opposite_edges_cancel(self, flow):
        assert flow.net_flow + flow.net_flow_upper == 0

    def test_crossings_carry_at_least_60_percent_mass(self, flow):
        assert flow.crossings
        for c in flow.crossings:
            if c.edge == "lower":
                assert c.mass_lower >= 0.6
            elif c.edge == "upper":
                assert c.mass_lower <= 0.4

    def test_reversed_designation_negates(self):
        f2 = strip_bands(make_strip(1, 4, 8, 2), n_kappa=24, e_ref=9.0,
                         designated_edge="upper")
        assert f2.net_flow == -1

    def test_reference_below_spectrum(self):
        flow = strip_bands(make_strip(1, 4, 8, 2), n_kappa=12, e_ref=-50.0,
                           window_halfwidth=5.0)
        assert flow.net_flow == 0 and not flow.crossings

    def test_ambiguous_connection_raises(self):
        with pytest.raises(BandConnectionAmbiguous):
            strip_bands(make_strip(1, 4, 8, 2), n_kappa=3, e_ref=9.0)

    def test_flow_magnitude_matches_chern(self, flow):
        # |net_flow| = |c1| of the bands below the gap
        from gapfill.bloch import BlochGrid, invariant_pair
        from gapfill.spectral import SpectralInterval
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        pair = invariant_pair(lat, build_gauge(lat),
                              SpectralInterval(-2.0, 9.0), BlochGrid(12, 12))
        assert abs(flow.net_flow) == abs(pair[1])
