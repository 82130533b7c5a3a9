import re

import numpy as np
import pytest
import scipy.linalg

from gapfill import edge
from gapfill.bloch import torus_spectrum
from gapfill.coarse import wideness_check
from gapfill.edge import (gap_filling_check, localization_profile, make_strip,
                          strip_bands, strip_block, strip_chains, strip_mask)
from gapfill.errors import (BandConnectionAmbiguous, CountNotCertified, LiftNotCertified,
                            MarginTooSmall, ResidualNotCertified, UnsupportedShape)
from gapfill.model import (BallsShape, DiskShape, GaugeField, GraphShape, HalfPlaneShape,
                           MagneticLattice, _assemble, build_gauge, cell_lift_phases,
                           make_mask, mask_all)
from gapfill.spectral import (BandedOperator, ChainOperator, banded, certify_counts,
                              certify_interval, residual_tolerance)
from reference import chain_entries, lift_block_vector, strip_operator


def _shape(kind, q, length):
    if kind == "graph":
        return GraphShape(tuple(0.25 * np.sin(2 * np.pi * np.arange(q) / q)))
    if kind in ("balls", "period2"):
        step = 2 if kind == "period2" else 1
        return BallsShape(HalfPlaneShape(0.0), 1.0 / 3.0,
                          tuple((float(c), 1.0) for c in range(0, length + 1, step)))
    if kind == "one_ball":
        return BallsShape(HalfPlaneShape(0.0), 1.0 / 3.0, ((0.5, 1.0),))
    return None


def _period(kind, length):
    """x-period in cells of the strip mask of _shape(kind, q, length), length even."""
    return {"period2": 2, "one_ball": length}.get(kind, 1)


# strip shapes: flat and graph edges, and balls on a flat edge once per
# cell, every other cell and once per strip (x-periods 1, 2, length_cells)
KINDS = ["flat", "graph", "balls", "period2", "one_ball"]


@pytest.fixture(scope="module")
def small_gap():
    """Certified principal gap of the k=1, h=1/4 bulk torus."""
    lat = MagneticLattice(1, 4, 4, 4, "torus")
    rep = torus_spectrum(lat, build_gauge(lat))
    gap = next(g for g in rep.gaps if g.contains(4 * np.pi))
    return rep, certify_interval(rep, gap.lower + 0.02 * gap.width,
                                 gap.upper - 0.02 * gap.width)


class TestStripConstruction:
    def test_block_decomposition_matches_assembled_strip(self, dense_spectrum):
        # the second strip has Phi = 1/4 and a cell potential that is not
        # symmetric under ix <-> iy
        w = 0.7 * (np.arange(16).reshape(4, 4) % 5 - 2.0)
        for k, potential in ((1, None), (2, w)):
            strip = make_strip(k, 4, 6, 3, potential=potential)
            full = dense_spectrum(strip_operator(strip)).eigenvalues
            blocks = np.sort(np.concatenate(
                [dense_spectrum(strip_block(strip, 2 * np.pi * m / 3)).eigenvalues
                 for m in range(3)]))
            assert np.abs(full - blocks).max() < 1e-8

    def test_block_decomposition_with_graph_shape(self, dense_spectrum):
        f = tuple(0.25 * np.sin(2 * np.pi * np.arange(4) / 4))
        strip = make_strip(1, 4, 6, 2, shape=GraphShape(f))
        full = dense_spectrum(strip_operator(strip)).eigenvalues
        blocks = np.sort(np.concatenate(
            [dense_spectrum(strip_block(strip, 2 * np.pi * m / 2)).eigenvalues
             for m in range(2)]))
        assert np.abs(full - blocks).max() < 1e-8

    def test_balls_on_graph_base(self, dense_spectrum):
        # the base graph is raised as in a graph strip and the balls add
        # sites above it; the strip still splits into momentum blocks
        f = tuple(0.25 * np.sin(2 * np.pi * np.arange(4) / 4))
        graph = make_strip(1, 4, 6, 2, shape=GraphShape(f))
        strip = make_strip(1, 4, 6, 2, shape=BallsShape(GraphShape(f), 1.0 / 3.0,
                                                        ((0.0, 1.0), (1.0, 1.0), (2.0, 1.0))))
        assert strip.shape.base == graph.shape
        assert strip.lattice.cells_y == graph.lattice.cells_y + 1
        g_mem, b_mem = strip_mask(graph).member, strip_mask(strip).member
        assert not (g_mem & ~b_mem[:, :g_mem.shape[1]]).any()
        assert b_mem.sum() > g_mem.sum()
        full = dense_spectrum(strip_operator(strip)).eigenvalues
        blocks = np.sort(np.concatenate(
            [dense_spectrum(strip_block(strip, 2 * np.pi * m / 2)).eigenvalues
             for m in range(2)]))
        assert np.abs(full - blocks).max() < 1e-8

    def test_balls_on_other_base_unsupported(self):
        shape = BallsShape(DiskShape((0.5, 0.5), 0.3), 1.0 / 3.0, ((0.0, 1.0),))
        with pytest.raises(UnsupportedShape, match="unsupported strip shape"):
            make_strip(1, 4, 6, 2, shape=shape)

    @pytest.mark.parametrize("n_samples", [3, 5])
    def test_graph_shape_sample_count(self, n_samples):
        # strip masks, window masks and wideness spot checks name the same
        # miscount (q = 4)
        shape = GraphShape((0.1,) * n_samples)
        window = MagneticLattice(1, 4, 2, 2, "masked")
        with pytest.raises(UnsupportedShape, match=f"q = 4 samples .* got {n_samples}"):
            strip_mask(make_strip(1, 4, 6, 2, shape=shape))
        with pytest.raises(UnsupportedShape, match=f"q = 4 samples .* got {n_samples}"):
            make_mask(window, shape)
        with pytest.raises(UnsupportedShape, match=f"q = 4 samples .* got {n_samples}"):
            wideness_check(shape, 1.0, window)

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
        w, v = np.linalg.eigh(block.matrix.toarray())
        j = len(w) // 2
        vec = lift_block_vector(strip, block, kappa, v[:, j], mask)
        op = strip_operator(strip)
        res = np.linalg.norm(op.matrix @ vec - w[j] * vec)
        assert res < 1e-8


class TestGapFilling:
    def test_all_samples_pass(self, small_gap):
        _, gap = small_gap
        strip = make_strip(1, 4, 8, 24)
        report = gap_filling_check(strip, gap, n_samples=8, delta=1.0)
        assert report.all_pass
        assert report.max_distance <= 1.0

    def test_uncertified_gap_is_refused(self):
        from gapfill.spectral import SpectralInterval
        with pytest.raises(MarginTooSmall, match="certified"):
            gap_filling_check(make_strip(1, 4, 8, 2), SpectralInterval(1.0, 20.0), 4, 1.0)

    def test_detected_gap_is_refused(self, small_gap):
        # a detected gap ends on eigenvalues, so it carries no certified
        # margin and cannot stand in for the certified bulk gap
        rep, _ = small_gap
        raw = max(rep.gaps, key=lambda g: g.width)
        assert certify_interval(rep, raw.lower, raw.upper).margin == 0.0
        with pytest.raises(MarginTooSmall, match="certified"):
            gap_filling_check(make_strip(1, 4, 8, 2), raw, 4, 1.0)

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

    def test_non_periodic_strip_is_one_banded_block(self, small_gap, dense_spectrum):
        # one ball on a 6-cell strip has the x-period of the whole strip:
        # one momentum block at kappa = 0, the strip operator itself
        _, gap = small_gap
        strip = make_strip(1, 4, 8, 6, shape=_shape("one_ball", 4, 6))
        report = gap_filling_check(strip, gap, n_samples=8, delta=1.0)
        assert report.solver == {"route": "banded", "blocks": 1, "period_cells": 6,
                                 "block_dim": strip_mask(strip).n_inside,
                                 "bandwidth": strip.lattice.n_x}
        ev = dense_spectrum(strip_operator(strip)).eigenvalues
        nearest = np.abs(ev[None, :] - report.samples[:, None]).min(axis=1)
        np.testing.assert_allclose(report.distances, nearest, rtol=0, atol=1e-12)
        assert np.array_equal(report.verdicts, report.distances <= 1.0)
        assert report.n_strip_eigenvalues == len(ev)
        assert len(report.localization) == 3

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

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_profiles_match_lifted_strip_profiles(self, small_gap, monkeypatch,
                                                        kind):
        # each profile is measured on its momentum block; lifted to the whole
        # strip, the same state is an eigenvector with the same mass curve
        # and decay rate, and the block spectra make up the strip spectrum
        _, gap = small_gap
        strip = make_strip(1, 4, 8, 6, shape=_shape(kind, 4, 6))
        calls, kappa_of = [], {}
        profile, blocks_at = edge.localization_profile, edge._strip_blocks

        def record(op, eigenpair, mask):
            calls.append((op, eigenpair))
            return profile(op, eigenpair, mask)

        def record_blocks(strip, mask, kappas):
            blocks = blocks_at(strip, mask, kappas)
            kappa_of.update((id(b.op), kappa) for b, kappa in zip(blocks, kappas))
            return blocks
        monkeypatch.setattr(edge, "localization_profile", record)
        monkeypatch.setattr(edge, "_strip_blocks", record_blocks)
        report = gap_filling_check(strip, gap, 4, 1.0)
        mask = strip_mask(strip)
        strip_op = strip_operator(strip)
        assert len(report.localization) == len(calls) == 3
        for prof, (block, (energy, vec)) in zip(report.localization, calls):
            period = (block.sites[:, 0].max() + 1) // strip.lattice.q
            assert period == _period(kind, 6)
            assert block.dimension == mask.n_inside * period // strip.length_cells
            lifted = lift_block_vector(strip, block, kappa_of[id(block)], vec, mask)
            want = profile(strip_op, (energy, lifted), mask)
            assert want.residual < 1e-8
            assert prof.energy == want.energy
            assert np.array_equal(prof.distances, want.distances)
            np.testing.assert_allclose(prof.cumulative_mass, want.cumulative_mass,
                                       rtol=0, atol=1e-12)
            assert abs(prof.mass_within(1.5) - want.mass_within(1.5)) <= 1e-12
            assert abs(prof.decay_rate - want.decay_rate) <= 1e-12
        n_blocks = strip.length_cells // _period(kind, 6)
        blocks = np.sort(np.concatenate(
            [banded(strip_block(strip, 2 * np.pi * m / n_blocks, mask)).eigenvalues
             for m in range(n_blocks)]))
        assert np.abs(blocks - np.linalg.eigvalsh(strip_op.matrix.toarray())).max() < 1e-8

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

    def test_reference_below_spectrum(self):
        flow = strip_bands(make_strip(1, 4, 8, 2), n_kappa=12, e_ref=-50.0)
        assert flow.net_flow == 0 and not flow.crossings

    def test_default_reference_is_mid_gap(self):
        # e_ref defaults to 4*pi*k, mid-way between the two lowest Landau
        # levels, as the shipped k1-bands config relies on
        flow = strip_bands(make_strip(1, 8, 6, 2), n_kappa=24)
        assert flow.e_ref == 4.0 * np.pi
        assert (flow.net_flow, flow.net_flow_upper) == (1, -1)

    def test_degenerate_pair_masses_do_not_depend_on_its_basis(self, monkeypatch):
        # at kappa = 0 bands 23 and 24 of the shipped bands strip are the
        # lower and the upper edge state of one Harper chain, 5.6e-13 apart;
        # the solve's basis of the pair and that basis turned by 45 degrees
        # give the same masses, one state on each edge
        strip = make_strip(1, 8, 12, 2)
        vectors = ChainOperator.vectors

        def turned(c, select):
            v, res = vectors(c, select)
            w = c.eigenvalues
            if abs(w[24] - w[23]) < 1e-9:
                pair = np.flatnonzero(np.isin(select, (23, 24)))
                v[:, pair] = v[:, pair] @ (np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0))
            return v, res
        masses = []
        for solve in (vectors, turned):
            monkeypatch.setattr(ChainOperator, "vectors", solve)
            flow = strip_bands(strip, n_kappa=48)
            pair = np.isin(flow.window_bands[0], (23, 24))
            masses.append(flow.window_mass_lower[0][pair])
        assert np.abs(masses[1] - masses[0]).max() < 1e-9
        assert np.abs(np.sort(masses[0]) - [0.0, 1.0]).max() < 1e-9

    def test_turned_cluster_needs_its_residuals(self, monkeypatch):
        # a cluster width of 1 joins window eigenvalues the operator
        # separates; turning their vectors into one mass basis mixes
        # eigenvalues, and the residuals refuse the result
        monkeypatch.setattr(edge, "residual_tolerance", lambda norm: 1.0)
        with pytest.raises(ResidualNotCertified, match="inverse-iteration residual"):
            strip_bands(make_strip(1, 4, 8, 2), n_kappa=6, e_ref=19.3)

    def test_ambiguous_connection_raises(self):
        with pytest.raises(BandConnectionAmbiguous):
            strip_bands(make_strip(1, 4, 8, 2), n_kappa=3, e_ref=9.0)

    def test_flow_magnitude_matches_chern(self, flow):
        # net_flow = -c1 of the bands below the gap, under the declared
        # orientation and flow conventions
        from gapfill.bloch import BlochGrid, invariant_pair_result
        from gapfill.spectral import SpectralInterval
        lat = MagneticLattice(1, 4, 2, 2, "torus")
        res = invariant_pair_result(lat, "landau", SpectralInterval(-2.0, 9.0),
                                    BlochGrid(12, 12))
        assert flow.net_flow == -res.chern == 1


# ---------------------------------------------------------------------------
# banded route against a dense oracle

# a cell potential that is not symmetric under ix <-> iy (q = 4 and q = 8)
def _potential(q):
    return 0.7 * (np.arange(q * q).reshape(q, q) % 5 - 2.0)


# the longer periods at q = 4 only: at q = 8 the dense solves of a
# whole-strip block take about 30 s per case
STRIPS = [(k, q, kind, pot) for k in (1, 2) for q in (4, 8)
          for kind in KINDS for pot in (False, True)
          if q == 4 or _period(kind, 4) == 1]


class DenseBlock:
    """A momentum block solved by numpy's dense eigh of the assembled matrix,
    with the members of the banded and chain blocks."""

    def __init__(self, op):
        self.op = op
        self.record = {"route": "dense", "block_dim": op.dimension}
        self.eigenvalues, self._frames = np.linalg.eigh(op.matrix.toarray())

    def vectors(self, select):
        v = self._frames[:, select]
        return v, np.linalg.norm(self.op.matrix @ v - v * self.eigenvalues[select], axis=0)

    def counts(self, sigmas):
        return np.searchsorted(self.eigenvalues, np.atleast_1d(sigmas))


def use_dense_oracle(monkeypatch):
    """Solve edge's momentum blocks, banded or Harper chains, as DenseBlocks."""
    monkeypatch.setattr(edge, "_strip_blocks", lambda strip, mask, kappas: [
        DenseBlock(strip_block(strip, kappa, mask)) for kappa in kappas])


def use_banded_route(monkeypatch):
    """Solve every strip on banded blocks, flat strips included."""
    monkeypatch.setattr(edge, "_chain_route", lambda mask: False)


class TestBandedRoute:
    @pytest.mark.parametrize("k,q,kind,pot", STRIPS)
    def test_parity_with_dense_eigensolve(self, dense_spectrum, k, q, kind, pot):
        strip = make_strip(k, q, 4, 4, shape=_shape(kind, q, 4),
                           potential=_potential(q) if pot else None)
        mask = strip_mask(strip)
        for kappa in (0.0, np.pi, 2.0 * np.pi * 0.2718):
            block = strip_block(strip, kappa, mask)
            b = banded(block)
            assert (block.sites[:, 0].max() + 1) // q == _period(kind, 4)
            assert b.bandwidth <= q * _period(kind, 4)
            w = b.eigenvalues
            dense = dense_spectrum(block).eigenvalues
            assert np.abs(w - dense).max() <= 1e-10 * max(np.abs(dense).max(), 1.0)
            # the lowest Landau group is a near-degenerate cluster
            select = np.r_[np.arange(6), np.argsort(np.abs(w - 4 * np.pi * k))[:4]]
            v, res = b.vectors(select)
            assert np.abs(v.conj().T @ v - np.eye(len(select))).max() < 1e-10
            assert res.max() <= residual_tolerance(np.abs(w).max())
            # a shift between each pair of separated neighbours counts
            # every eigenvalue below it
            split = np.flatnonzero(np.diff(dense) > 1e-6)
            shifts = np.r_[dense[0] - 1.0, 0.5 * (dense[split] + dense[split + 1])]
            assert list(b.counts(shifts)) == [0] + list(split + 1)

    @pytest.mark.parametrize("kappa", [0.0, np.pi])
    def test_inertia_next_to_leading_submatrix_eigenvalues(self, kappa):
        # a shift 1e-11 from an eigenvalue of a leading y-row submatrix makes
        # a pivot block nearly singular; deferring its small directions into
        # the next pivot keeps the count exact
        block = strip_block(make_strip(1, 4, 4, 2), kappa)
        b = banded(block)
        h = block.matrix.toarray()[np.ix_(b.order, b.order)]
        dense = np.linalg.eigvalsh(h)
        near = np.concatenate([np.linalg.eigvalsh(h[:z, :z]) for (_, z) in b.rows[:-1]])
        shifts = np.r_[near - 1e-11, near + 1e-11]
        shifts = shifts[np.abs(dense[None, :] - shifts[:, None]).min(axis=1) > 1e-6]
        assert (b.counts(shifts) == np.searchsorted(dense, shifts)).all()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("delta", [1.0, 0.05])
    def test_gap_fill_verdicts_match_dense_oracle(self, small_gap, monkeypatch,
                                                  kind, delta):
        _, gap = small_gap
        # one ball makes the whole strip one block: a short strip keeps its
        # dense oracle small
        length = 4 if kind == "one_ball" else 12
        strip = make_strip(1, 4, 8, length, shape=_shape(kind, 4, length))
        got = gap_filling_check(strip, gap, 8, delta)
        with monkeypatch.context() as m:
            use_dense_oracle(m)
            want = gap_filling_check(strip, gap, 8, delta)
        period = _period(kind, length)
        if kind == "flat":
            assert got.solver == {"route": "harper_chains", "blocks": length,
                                  "period_cells": 1, "chains": 4,
                                  "chain_dim": want.solver["block_dim"] // 4,
                                  "block_dim": want.solver["block_dim"]}
        else:
            assert got.solver == {"route": "banded", "blocks": length // period,
                                  "period_cells": period,
                                  "block_dim": want.solver["block_dim"],
                                  "bandwidth": 4 * period}
        assert list(got.verdicts) == list(want.verdicts)
        assert np.abs(got.distances - want.distances).max() < 1e-10
        assert got.n_strip_eigenvalues == want.n_strip_eigenvalues \
            == strip_mask(strip).n_inside
        assert [p.energy for p in got.localization] == pytest.approx(
            [p.energy for p in want.localization], abs=1e-10)

    @pytest.mark.parametrize("k,kind", [(1, "flat"), (2, "graph"), (1, "balls")])
    def test_flow_matches_dense_oracle(self, monkeypatch, k, kind):
        strip = make_strip(k, 4, 8, 2, shape=_shape(kind, 4, 2))
        got = strip_bands(strip, n_kappa=24, e_ref=9.0 * k)
        with monkeypatch.context() as m:
            use_dense_oracle(m)
            want = strip_bands(strip, n_kappa=24, e_ref=9.0 * k)
        assert np.abs(got.dispersion - want.dispersion).max() < 1e-10 * np.abs(
            want.dispersion).max()
        assert (got.net_flow, got.net_flow_upper) == (want.net_flow, want.net_flow_upper)
        assert [(c.sign, c.edge) for c in got.crossings] == \
            [(c.sign, c.edge) for c in want.crossings]
        assert [c.kappa for c in got.crossings] == pytest.approx(
            [c.kappa for c in want.crossings], abs=1e-9)
        assert [c.mass_lower for c in got.crossings] == pytest.approx(
            [c.mass_lower for c in want.crossings], abs=1e-9)

    @pytest.mark.parametrize("kind, length", [("one_ball", 2), ("period2", 4)])
    def test_flow_on_strips_of_longer_period(self, kind, length):
        # the edge count does not depend on the subgroup of x-translations
        # that the decorations leave: kappa is the momentum of one x-period
        strip = make_strip(1, 4, 8, length, shape=_shape(kind, 4, length))
        flow = strip_bands(strip, n_kappa=24, e_ref=9.0)
        assert flow.solver["block_dim"] == strip_mask(strip).n_inside * _period(
            kind, length) // length
        # kappa is the momentum per x-period, whose length the solver records
        assert flow.solver["period_cells"] == _period(kind, length)
        assert "x-period of solver.period_cells cells" in flow.conventions["kappa_wrap_phase"]
        assert (flow.net_flow, flow.net_flow_upper) == (1, -1)


class TestBandedCertificates:
    def test_perturbed_vector_fails_residual(self, monkeypatch):
        solve = scipy.linalg.solve_banded

        def perturbed(*args, **kwargs):
            x = solve(*args, **kwargs)
            x[0] += 1e-3 * np.linalg.norm(x)
            return x
        monkeypatch.setattr(scipy.linalg, "solve_banded", perturbed)
        b = banded(strip_block(make_strip(1, 4, 6, 3), 1.0))
        with pytest.raises(ResidualNotCertified, match="inverse-iteration residual"):
            b.vectors([len(b.eigenvalues) // 2])

    def test_dropped_window_eigenvalue_fails_count(self, monkeypatch):
        use_banded_route(monkeypatch)
        eig_banded = scipy.linalg.eig_banded

        def dropped(*args, **kwargs):
            w = eig_banded(*args, **kwargs)
            return np.delete(w, np.argmin(np.abs(w - 9.0)))
        monkeypatch.setattr(scipy.linalg, "eig_banded", dropped)
        with pytest.raises(CountNotCertified, match="inertia counts"):
            strip_bands(make_strip(1, 4, 8, 2), n_kappa=24, e_ref=9.0)

    def test_failing_samples_have_zero_inertia_count(self, small_gap):
        _, gap = small_gap
        strip = make_strip(1, 4, 8, 4)
        report = gap_filling_check(strip, gap, 8, 0.05, n_localization=0)
        failing = report.samples[~report.verdicts]
        assert len(failing)
        mask = strip_mask(strip)
        nu = sum(banded(strip_block(strip, 2 * np.pi * m / 4, mask)).counts(
            np.r_[failing - 0.05, failing + 0.05]) for m in range(4))
        assert not (nu[len(failing):] - nu[:len(failing)]).any()

    def test_dropped_sample_eigenvalues_fail_count(self, small_gap, monkeypatch):
        # the banded solve loses every eigenvalue within delta of mid-gap:
        # the middle sample then fails by distance, and the inertia count
        # refuses that verdict
        _, gap = small_gap
        use_banded_route(monkeypatch)
        strip = make_strip(1, 4, 8, 12)
        assert gap_filling_check(strip, gap, 9, 0.5, n_localization=0).verdicts[4]
        eig_banded = scipy.linalg.eig_banded

        def dropped(*args, **kwargs):
            w = eig_banded(*args, **kwargs)
            return w[np.abs(w - gap.midpoint) > 0.5]
        monkeypatch.setattr(scipy.linalg, "eig_banded", dropped)
        with pytest.raises(CountNotCertified, match="inertia count finds"):
            gap_filling_check(strip, gap, 9, 0.5, n_localization=0)

    def test_passing_sample_needs_its_residual(self, small_gap, monkeypatch):
        # with residuals that no longer fit within delta no sample near the
        # edge bands is certified to pass, and the inertia count refuses
        # to let it fail
        _, gap = small_gap
        for cls in (BandedOperator, ChainOperator):
            def inflated(b, select, vectors=cls.vectors):
                v, res = vectors(b, select)
                return v, res + 1.0
            monkeypatch.setattr(cls, "vectors", inflated)
        with pytest.raises(CountNotCertified, match="no eigenpair certified within 0.5"):
            gap_filling_check(make_strip(1, 4, 8, 12), gap, 9, 0.5, n_localization=0)


# ---------------------------------------------------------------------------
# Harper chains against the dense solve of the assembled block

def _row_potential(q):
    """A cell potential that varies in iy only (W[ix, iy] = g(iy))."""
    return np.tile(0.7 * (np.arange(q) % 5 - 2.0), (q, 1))


CHAIN_STRIPS = [(k, q, pot) for k in (1, 2) for q in (4, 8) for pot in (False, True)]


class TestHarperChains:
    @pytest.mark.parametrize("k,q,pot", CHAIN_STRIPS)
    def test_parity_with_dense_eigensolve(self, dense_spectrum, k, q, pot):
        strip = make_strip(k, q, 4, 4, potential=_row_potential(q) if pot else None)
        mask = strip_mask(strip)
        for kappa in (0.0, np.pi, 2.0 * np.pi * 0.2718):
            c = strip_chains(strip, kappa, mask)
            assert c.diagonal.shape == (q, c.op.dimension // q)
            dense = dense_spectrum(c.op).eigenvalues
            w = c.eigenvalues
            assert np.abs(w - dense).max() <= 1e-10 * max(np.abs(dense).max(), 1.0)
            # a shift between each pair of separated neighbours counts every
            # eigenvalue below it, and so does a shift 1e-11 from an
            # eigenvalue of a leading chain submatrix, where a pivot is
            # nearly zero
            split = np.flatnonzero(np.diff(dense) > 1e-6)
            shifts = np.r_[dense[0] - 1.0, 0.5 * (dense[split] + dense[split + 1])]
            assert list(c.counts(shifts)) == [0] + list(split + 1)
            chains = [np.diag(d) + np.diag(b, -1) + np.diag(b.conj(), 1)
                      for d, b in zip(c.diagonal, c.coupling)]
            near = np.concatenate([np.linalg.eigvalsh(m[:z, :z]) for m in chains
                                   for z in range(1, len(m))])
            shifts = np.r_[near - 1e-11, near + 1e-11]
            shifts = shifts[np.abs(dense[None, :] - shifts[:, None]).min(axis=1) > 1e-6]
            assert (c.counts(shifts) == np.searchsorted(dense, shifts)).all()
            # the lowest Landau group is a near-degenerate cluster
            select = np.r_[np.arange(6), np.argsort(np.abs(w - 4 * np.pi * k))[:4]]
            v, res = c.vectors(select)
            assert np.abs(v.conj().T @ v - np.eye(len(select))).max() < 1e-10
            assert res.max() <= residual_tolerance(np.abs(w).max())

    @pytest.mark.parametrize("potential", [None, _row_potential(4)])
    def test_flat_strips_take_the_chain_route(self, small_gap, potential):
        _, gap = small_gap
        strip = make_strip(1, 4, 8, 4, potential=potential)
        report = gap_filling_check(strip, gap, 4, 1.0, n_localization=1)
        flow = strip_bands(strip, n_kappa=6, e_ref=-50.0)
        n = strip_mask(strip).n_inside // 4
        assert report.solver == {"route": "harper_chains", "blocks": 4, "period_cells": 1,
                                 "chains": 4, "chain_dim": n // 4, "block_dim": n}
        assert flow.solver == dict(report.solver, blocks=6)

    @pytest.mark.parametrize("kind,pot", [("flat", True), ("graph", False),
                                          ("balls", False), ("one_ball", False)])
    def test_other_strips_keep_the_banded_route(self, small_gap, kind, pot):
        _, gap = small_gap
        strip = make_strip(1, 4, 8, 4, shape=_shape(kind, 4, 4),
                           potential=_potential(4) if pot else None)
        report = gap_filling_check(strip, gap, 4, 1.0, n_localization=0)
        assert report.solver["route"] == "banded"

    def test_x_varying_potential_fails_the_split(self):
        strip = make_strip(1, 4, 6, 2, potential=_potential(4))
        with pytest.raises(LiftNotCertified, match=r"one-site translation defect 2.800e\+00"):
            strip_chains(strip, 0.5, strip_mask(strip))

    def test_perturbed_link_phase_fails_the_split(self, monkeypatch):
        # the gauge of momentum 0.5 carries a perturbed link phase: its split
        # fails alone, and in a batch, whose other members split, the error
        # names that momentum
        block_gauge = edge._block_gauge

        def perturbed(cells, kappas):
            g = block_gauge(cells, kappas)
            phase_y = g.phase_y.copy()
            phase_y[np.asarray(kappas) == 0.5, 2, 9] *= np.exp(0.01j)
            return GaugeField(g.lattice, g.gauge_kind, g.phase_x, phase_y)
        strip = make_strip(1, 4, 6, 2)
        mask = strip_mask(strip)
        kappas = [0.0, 1.5, 0.5, 3.0]
        assert len(edge._strip_blocks(strip, mask, kappas)) == 4
        monkeypatch.setattr(edge, "_block_gauge", perturbed)
        with pytest.raises(LiftNotCertified, match="one-site translation defect 1.600e-01"):
            strip_chains(strip, 0.5, mask)
        with pytest.raises(LiftNotCertified, match=re.escape(
                "at kappa 0.5: one-site translation defect 1.600e-01")):
            edge._strip_blocks(strip, mask, kappas)

    def test_split_defect_bounds_the_norm(self, monkeypatch):
        # two turned x-link phases give rows of TH - HT with two entries
        # each: the defect the split names bounds ||TH - HT|| (0.226),
        # which their elementwise maximum (0.160) does not
        block_gauge = edge._block_gauge

        def perturbed(cells, kappas):
            g = block_gauge(cells, kappas)
            phase_x = g.phase_x.copy()
            phase_x[..., [1, 2], 9] *= np.exp(0.01j)
            return GaugeField(g.lattice, g.gauge_kind, phase_x, g.phase_y)
        monkeypatch.setattr(edge, "_block_gauge", perturbed)
        monkeypatch.setattr(edge, "residual_tolerance", lambda norm: 0.0)
        strip = make_strip(1, 4, 6, 2)
        mask = strip_mask(strip)
        with pytest.raises(LiftNotCertified) as err:
            strip_chains(strip, 0.5, mask)
        defect = float(re.search(r"one-site translation defect (\S+) ", str(err.value))[1])
        # T[i, src[i]] = chi_i, formed from the perturbed block gauge
        pattern, gauge, data = edge._momentum_blocks(mask, [0.5])
        shifted = GaugeField(pattern.lattice, gauge.gauge_kind,
                             np.roll(gauge.phase_x, 1, axis=-2),
                             np.roll(gauge.phase_y, 1, axis=-2))
        ix, iy = pattern.sites.T
        src = np.roll(pattern.ids, 1, axis=0)[ix, iy]
        t = np.zeros((len(ix), len(ix)), complex)
        t[np.arange(len(ix)), src] = cell_lift_phases(gauge, shifted)[0][ix, iy]
        h = pattern.dense(data[0])
        norm = np.linalg.norm(t @ h - h @ t, 2)
        assert norm > 0.2 and np.abs(t @ h - h @ t).max() < norm
        assert defect >= norm

    @pytest.mark.parametrize("kind", ["graph", "balls"])
    def test_shifted_mask_is_refused(self, small_gap, monkeypatch, kind):
        # the one-site x-shift moves a graph or balls mask, so it is no
        # translation of the block: the split refuses it before it forms the
        # lift phases, called directly or on a forced chain route
        _, gap = small_gap
        strip = make_strip(1, 4, 8, 4, shape=_shape(kind, 4, 4))

        def unreached(*args):
            raise AssertionError("lift phases formed for a mask the shift moves")
        monkeypatch.setattr(edge, "cell_lift_phases", unreached)
        with pytest.raises(LiftNotCertified, match="one-site x-shift moves the strip mask"):
            strip_chains(strip, 0.5, strip_mask(strip))
        monkeypatch.setattr(edge, "_chain_route", lambda mask: True)
        with pytest.raises(LiftNotCertified, match="one-site x-shift moves the strip mask"):
            gap_filling_check(strip, gap, 4, 1.0)

    def test_forced_split_is_refused(self, small_gap, monkeypatch):
        _, gap = small_gap
        monkeypatch.setattr(edge, "_chain_route", lambda mask: True)
        strip = make_strip(1, 4, 8, 4, potential=_potential(4))
        with pytest.raises(LiftNotCertified, match="exceeds"):
            gap_filling_check(strip, gap, 4, 1.0)

    def test_shifted_chain_eigenvalues_fail_count(self, monkeypatch):
        values = ChainOperator.eigenvalues.fget
        monkeypatch.setattr(ChainOperator, "eigenvalues", property(lambda c: values(c) + 2.0))
        with pytest.raises(CountNotCertified, match="inertia counts"):
            strip_bands(make_strip(1, 4, 8, 2), n_kappa=24, e_ref=9.0)

    def test_dropped_sample_eigenvalues_fail_count(self, small_gap, monkeypatch):
        # as on the banded route, the chain solve loses every eigenvalue
        # within delta of mid-gap, and the Sturm counts of the failing
        # samples find the lost ones
        _, gap = small_gap
        strip = make_strip(1, 4, 8, 12)
        eigvalsh_tridiagonal = scipy.linalg.eigvalsh_tridiagonal

        def dropped(*args, **kwargs):
            w = eigvalsh_tridiagonal(*args, **kwargs)
            return w[np.abs(w - gap.midpoint) > 0.5]
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", dropped)
        with pytest.raises(CountNotCertified, match="inertia count finds"):
            gap_filling_check(strip, gap, 9, 0.5, n_localization=0)

    def test_chain_vectors_are_translation_eigenvectors(self):
        # every vector lies in the range of one chain's basis B_m, so it is an
        # eigenvector of the one-site translation; the bulk level at
        # 23.6122675974442 is a cluster of 25 eigenvalues 2.3e-12 wide that
        # spans all 8 chains
        strip = make_strip(1, 8, 16, 1)
        c = strip_chains(strip, 0.3, strip_mask(strip))
        w = c.eigenvalues
        cluster = np.flatnonzero(np.abs(w - 23.6122675974442) < 1e-9)
        select = np.unique(np.r_[np.arange(4), cluster, np.argsort(np.abs(w - 12.0))[:4]])
        v, _ = c.vectors(select)
        proj = np.zeros((c.diagonal.shape[1], c.diagonal.shape[0], len(select)), complex)
        np.add.at(proj, c.line, c.basis.conj()[:, :, None] * v[:, None, :])
        mass = (np.abs(proj) ** 2).sum(axis=0)  # sum over rows of |B_m^H v|^2
        assert np.abs(mass.max(axis=0) - 1.0).max() < 1e-10
        assert len(np.unique(mass[:, np.isin(select, cluster)].argmax(axis=0))) > 1

    def test_perturbed_chain_vector_fails_residual(self, monkeypatch):
        solve = scipy.linalg.solve_banded

        def perturbed(*args, **kwargs):
            x = solve(*args, **kwargs)
            x[0] += 1e-3 * np.linalg.norm(x)
            return x
        strip = make_strip(1, 4, 6, 3)
        c = strip_chains(strip, 1.0, strip_mask(strip))
        w = c.eigenvalues
        monkeypatch.setattr(scipy.linalg, "solve_banded", perturbed)
        with pytest.raises(ResidualNotCertified, match="inverse-iteration residual"):
            c.vectors([len(w) // 2])


class TestBlockProtocol:
    @pytest.mark.parametrize("route,solver,calls", [("banded", "eig_banded", 1),
                                                    ("harper_chains", "eigvalsh_tridiagonal", 4)],
                             ids=["banded", "harper_chains"])
    def test_flat_block_is_solved_once(self, monkeypatch, route, solver, calls):
        # eigenvalues, vectors and certify_counts all read the one solve of
        # the block: one banded solve, or one tridiagonal solve per chain
        monkeypatch.setattr(edge, "_chain_route", lambda mask: route == "harper_chains")
        solve = getattr(scipy.linalg, solver)
        ran = []

        def counted(*args, **kwargs):
            ran.append(solver)
            return solve(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, solver, counted)
        strip = make_strip(1, 4, 8, 2)
        b = edge._strip_blocks(strip, strip_mask(strip), [0.5])[0]
        assert b.record["route"] == route
        w = b.eigenvalues
        window = np.flatnonzero(np.abs(w - 9.0) < 3.0)
        v, res = b.vectors(window)
        assert res.max() <= residual_tolerance(np.abs(w).max())
        nu = certify_counts(b, (6.0, 12.0))
        assert list(nu) == list(np.searchsorted(w, (6.0, 12.0)))
        assert b.eigenvalues is w
        assert len(ran) == calls

    @pytest.mark.parametrize("kind,pot,route", [("flat", False, "harper_chains"),
                                                ("flat", True, "harper_chains"),
                                                ("graph", False, "banded"),
                                                ("balls", False, "banded")],
                             ids=["flat", "row_potential", "graph", "balls"])
    def test_batch_equals_one_momentum(self, kind, pot, route):
        # every block of a batch, and its Harper chains, is bit for bit the
        # block of its momentum alone: assembled from one unbatched gauge,
        # split by strip_chains, chains summed entry by entry
        strip = make_strip(1, 4, 8, 4, shape=_shape(kind, 4, 4),
                           potential=_row_potential(4) if pot else None)
        mask = strip_mask(strip)
        cells = edge._period_lattice(mask)
        kappas = np.array([0.0, np.pi, 2.0 * np.pi * 0.2718])
        batch = edge._strip_blocks(strip, mask, kappas)
        assert [b.record["route"] for b in batch] == [route] * 3

        def same_bits(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for b, kappa in zip(batch, kappas):
            alone = _assemble(cells, edge._block_gauge(cells, kappa), mask.member[:cells.n_x])
            for op in (alone, strip_block(strip, kappa, mask)):
                assert all(same_bits(getattr(b.op.matrix, a), getattr(op.matrix, a))
                           for a in ("data", "indices", "indptr"))
            if route == "harper_chains":
                one = strip_chains(strip, kappa, mask)
                assert all(same_bits(getattr(b, a), getattr(one, a))
                           for a in ("diagonal", "coupling", "basis", "line"))
                diagonal, coupling = chain_entries(alone, b.basis, b.line)
                assert same_bits(b.diagonal, diagonal) and same_bits(b.coupling, coupling)
