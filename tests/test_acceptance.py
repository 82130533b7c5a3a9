"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured values.  Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from gapfill.bloch import BlochGrid, invariant_pair, torus_spectrum
from gapfill.coarse import (affiliation_check, ideal_multiplicativity,
                            wideness_check)
from gapfill.edge import (BallsShape, gap_filling_check, make_strip,
                          strip_bands)
from gapfill.model import (DiskShape, HalfPlaneShape, MagneticLattice,
                           assemble_bulk, assemble_restricted, build_gauge,
                           gauge_transform, make_mask, mask_all,
                           plaquette_products)
from gapfill.spectral import (SpectralInterval, certify_interval,
                              detect_gaps, eigensolve, materialize_filter,
                              polynomial_filter, smoothed_indicator_filter,
                              spectral_projection)

EIGHT_PI = 8.0 * np.pi


def announce(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    return ok


@pytest.fixture(scope="module")
def landau_runs():
    """Full torus spectra for k in {1,2}, h in {1/4,1/8,1/16}, 4x4 cells."""
    cache = {}
    for k in (1, 2):
        for q in (4, 8, 16):
            lat = MagneticLattice(k, q, 4, 4, "torus")
            cache[(k, q)] = torus_spectrum(lat, build_gauge(lat),
                                           cluster_tol=0.1 * EIGHT_PI * k)
    return cache


def gap_upper_edge(report, k):
    gap = next(g for g in report.gaps if g.contains(4 * np.pi * k))
    return gap.upper


class TestAcceptance:
    def test_01_landau_level_convergence(self, landau_runs):
        t0 = time.perf_counter()
        edges = {q: gap_upper_edge(landau_runs[(1, q)], 1) for q in (4, 8, 16)}
        rich_48 = (4 * edges[8] - edges[4]) / 3.0
        rich_816 = (4 * edges[16] - edges[8]) / 3.0
        errs = [abs(r - EIGHT_PI) / EIGHT_PI for r in (rich_48, rich_816)]
        ok = max(errs) < 0.02
        assert announce(1, "Landau-level convergence", ok,
                        f"gap upper edges {edges[4]:.4f}/{edges[8]:.4f}/"
                        f"{edges[16]:.4f}, Richardson {rich_48:.4f}, {rich_816:.4f} "
                        f"vs 8pi={EIGHT_PI:.4f} (rel err {max(errs):.2e}; "
                        f"{time.perf_counter()-t0:.0f}s)")

    def test_02_kernel_degeneracy(self, landau_runs):
        t0 = time.perf_counter()
        ok = True
        details = []
        for k in (1, 2):
            for q in (4, 8, 16):
                rep = landau_runs[(k, q)]
                a, b = rep.clusters[0]
                width = rep.eigenvalues[b - 1] - rep.eigenvalues[a]
                good = (b - a == 2 * k * 16) and width < 0.1 * EIGHT_PI * k
                ok &= good
                details.append(f"k={k},q={q}: {b - a} states, width {width:.3f}")
        assert announce(2, "kernel degeneracy", ok,
                        "; ".join(details) + f" ({time.perf_counter()-t0:.0f}s)")

    def test_03_invariant_pair(self):
        t0 = time.perf_counter()
        ok = True
        details = []
        for k, q in ((1, 8), (2, 16)):
            lat = MagneticLattice(k, q, 2, 2, "torus")
            gauge = build_gauge(lat)
            ival = SpectralInterval(-1.0, EIGHT_PI * k * 0.5)
            pairs = [invariant_pair(lat, gauge, ival, BlochGrid(n, n))
                     for n in (12, 16, 24)]
            ok &= all(p == (2 * k, -1) for p in pairs)
            details.append(f"k={k}: {pairs}")
        assert announce(3, "invariant pair (dim, c1)", ok,
                        "; ".join(details) + f" ({time.perf_counter()-t0:.0f}s)")

    def test_04_gap_filling(self, landau_runs):
        t0 = time.perf_counter()
        rep = landau_runs[(1, 8)]
        gap = next(g for g in rep.gaps if g.contains(4 * np.pi))
        cert = certify_interval(rep, gap.lower + 0.02 * gap.width,
                                gap.upper - 0.02 * gap.width)
        base = gap_filling_check(make_strip(1, 8, 16, 48), cert, 16, 0.5,
                                 n_localization=1)
        doubled = gap_filling_check(make_strip(1, 8, 32, 48), cert, 16, 0.5,
                                    n_localization=0)
        ok = (base.all_pass and doubled.all_pass
              and doubled.max_distance <= base.max_distance + 1e-6)
        assert announce(4, "gap filling", ok,
                        f"width 16: max distance {base.max_distance:.4f} "
                        f"(delta 0.5, 16 samples); width 32: "
                        f"{doubled.max_distance:.4f} "
                        f"({time.perf_counter()-t0:.0f}s)")

    def test_05_perturbation_robustness(self, landau_runs):
        t0 = time.perf_counter()
        rep = landau_runs[(1, 8)]
        gap = next(g for g in rep.gaps if g.contains(4 * np.pi))
        cert = certify_interval(rep, gap.lower + 0.02 * gap.width,
                                gap.upper - 0.02 * gap.width)
        shape = BallsShape(HalfPlaneShape(0.0), 1.0 / 3.0,
                           tuple((float(c), 1.0) for c in range(48)))
        report = gap_filling_check(make_strip(1, 8, 16, 48, shape=shape), cert,
                                   16, 0.5, n_localization=0)
        ok = report.all_pass
        assert announce(5, "perturbation robustness (1/3-balls)", ok,
                        f"max distance {report.max_distance:.4f} at delta 0.5 "
                        f"({time.perf_counter()-t0:.0f}s)")

    def test_06_spectral_flow_equals_chern(self):
        t0 = time.perf_counter()
        ok = True
        details = []
        for k in (1, 2):
            flow = strip_bands(make_strip(k, 8, 12, 2), n_kappa=48,
                               e_ref=4.0 * np.pi)
            ok &= flow.net_flow == 1
            ok &= flow.net_flow + flow.net_flow_upper == 0
            details.append(f"k={k}: net_flow={flow.net_flow:+d} "
                           f"(upper {flow.net_flow_upper:+d})")
        assert announce(6, "spectral flow = -c1", ok,
                        "; ".join(details) + f" ({time.perf_counter()-t0:.0f}s)")

    def test_07_affiliation(self):
        t0 = time.perf_counter()
        lat = MagneticLattice(1, 8, 6, 6, "masked")
        g = build_gauge(lat)
        bulk = assemble_restricted(lat, g, mask_all(lat))
        mask = make_mask(lat, HalfPlaneShape(4.5))
        edge_op = assemble_restricted(lat, g, mask)
        a, b = bulk.gershgorin()
        encl = (a - 1.0, b + 1.0)
        # exact polynomial: bitwise zero beyond d*h
        d = 5
        coeffs = np.linspace(0.7, 0.2, d + 1)
        poly = polynomial_filter(coeffs, encl)
        rep_poly = affiliation_check(bulk, edge_op, mask, poly,
                                     [d * lat.h + lat.h, 2.0, 3.0])
        poly_ok = (rep_poly.exact_zero_radius == pytest.approx(d * lat.h)
                   and np.all(rep_poly.deviations == 0.0))
        # degree-200 smooth bump: deviation at R=3 below 1e-6
        bump = smoothed_indicator_filter(2.0, EIGHT_PI - 2.0, 4.5, encl, 200)
        rep_bump = affiliation_check(bulk, edge_op, mask, bump, [1.0, 2.0, 3.0],
                                     verify_bitwise=False)
        bump_ok = rep_bump.deviations[-1] < 1e-6
        ok = poly_ok and bump_ok
        assert announce(7, "affiliation finite propagation", ok,
                        f"poly deg {d} deviations "
                        f"{[float(v) for v in rep_poly.deviations]} "
                        f"(bitwise beyond {d * lat.h}); bump deviation@R=3 = "
                        f"{rep_bump.deviations[-1]:.2e} "
                        f"({time.perf_counter()-t0:.0f}s)")

    def test_08_ideal_defect_support(self):
        t0 = time.perf_counter()
        lat = MagneticLattice(1, 4, 8, 8, "masked")
        g = build_gauge(lat)
        bulk = assemble_restricted(lat, g, mask_all(lat))
        mask = make_mask(lat, HalfPlaneShape(6.0))
        prof1 = ideal_multiplicativity(bulk, bulk, mask, [2 * lat.h + lat.h])
        a, b = bulk.gershgorin()
        encl = (a - 1, b + 1)
        c3 = np.zeros(4); c3[-1] = 1.0
        c5 = np.zeros(6); c5[-1] = 1.0; c5[1] = 0.3
        f3 = materialize_filter(bulk, polynomial_filter(c3, encl))
        f5 = materialize_filter(bulk, polynomial_filter(c5, encl))
        prof2 = ideal_multiplicativity(f3, f5, mask, [8 * lat.h + lat.h])
        ok = (prof1.exact_zero_beyond == pytest.approx(2 * lat.h)
              and prof1.deviations[0] == 0.0
              and prof2.exact_zero_beyond == pytest.approx(8 * lat.h)
              and prof2.deviations[0] == 0.0)
        assert announce(8, "ideal defect support", ok,
                        f"stencil pair zero beyond {prof1.exact_zero_beyond}; "
                        f"deg 3+5 filters zero beyond {prof2.exact_zero_beyond} "
                        f"(bitwise) ({time.perf_counter()-t0:.0f}s)")

    def test_09_wideness_verdicts(self):
        t0 = time.perf_counter()
        lat = MagneticLattice(1, 4, 6, 6, "masked")
        half = wideness_check(HalfPlaneShape(3.0), 1.0, lat, seed=0)
        disk = wideness_check(DiskShape((3.0, 3.0), 2.0), 1.0, lat,
                              y_diameter=8.0)
        ok = (half.verdict == "wide_proved"
              and half.spot_checks_passed == half.spot_checks_total == 100
              and disk.verdict == "counterexample_found")
        assert announce(9, "wideness verdicts", ok,
                        f"half-plane {half.verdict} "
                        f"{half.spot_checks_passed}/{half.spot_checks_total}; "
                        f"disk {disk.verdict} ({time.perf_counter()-t0:.0f}s)")

    def test_10_oracle_equivalence(self):
        t0 = time.perf_counter()
        # flux-1/2 hopping model on a 24x24 torus vs the 2x2-fiber closed form
        lat = MagneticLattice(1, 2, 12, 12, "torus")
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
        dev_pi = np.abs(np.sort(vals) - ev).max()
        # fiber-bulk multiset consistency
        from gapfill.bloch import fiber_hamiltonian
        lat2 = MagneticLattice(1, 4, 6, 6, "torus")
        g2 = build_gauge(lat2)
        bulk = eigensolve(assemble_bulk(lat2, g2)).eigenvalues
        fib = np.sort(np.concatenate(
            [np.linalg.eigvalsh(fiber_hamiltonian(lat2, g2, (a / 6, b / 6)))
             for a in range(6) for b in range(6)]))
        dev_fb = np.abs(fib - bulk).max()
        ok = dev_pi < 1e-8 and dev_fb < 1e-8
        assert announce(10, "oracle equivalence", ok,
                        f"flux-1/2 closed form dev {dev_pi:.2e}; fiber-bulk "
                        f"multiset dev {dev_fb:.2e} "
                        f"({time.perf_counter()-t0:.0f}s)")

    def test_11_property_suite(self, tmp_path, band_groups):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240809)
        cases = 0
        failures = []

        # 60 cases: Hermiticity exact + plaquette flux, random models
        for _ in range(60):
            k = int(rng.integers(0, 3))
            q = int(rng.integers(2, 5))
            cells = int(rng.integers(2, 4))
            kind = ("landau", "symmetric")[int(rng.integers(0, 2))]
            geom = ("torus", "strip", "masked")[int(rng.integers(0, 3))]
            pot = 0.5 * (2 * rng.random((q, q)) - 1)
            lat = MagneticLattice(k, q, cells, cells, geom, pot)
            gauge = build_gauge(lat, kind)
            target = np.exp(-2j * np.pi * float(lat.flux_per_plaquette))
            if np.abs(plaquette_products(gauge) - target).max() > 1e-12:
                failures.append(f"flux {k},{q},{kind},{geom}")
            op = (assemble_bulk(lat, gauge) if geom == "torus"
                  else assemble_restricted(lat, gauge, mask_all(lat)))
            if np.abs((op.matrix - op.matrix.getH()).toarray()).max() != 0.0:
                failures.append(f"hermiticity {k},{q},{kind},{geom}")
            cases += 1

        # 60 cases: gauge invariance of spectra at 1e-10
        for _ in range(60):
            k = int(rng.integers(0, 3))
            q = int(rng.integers(2, 4))
            lat = MagneticLattice(k, q, 2, 2, "torus")
            op = assemble_bulk(lat, build_gauge(lat))
            phases = np.exp(2j * np.pi * rng.random(op.dimension))
            ev0 = np.linalg.eigvalsh(op.matrix.toarray())
            ev1 = np.linalg.eigvalsh(gauge_transform(op, phases).matrix.toarray())
            if np.abs(ev0 - ev1).max() > 1e-10:
                failures.append(f"gauge {k},{q}")
            cases += 1

        # 40 cases: FHS integrality at 1e-6 on a random band group, any one
        # of them and not only those from band 0, through the interval
        # between its bounding mid-gaps; the grid is fine enough for the
        # admissibility bound (on 8x8 some q=3 bands reach plaquette flux 2.7)
        from gapfill.bloch import band_energies, invariant_pair_result
        for _ in range(40):
            k = int(rng.integers(1, 3))
            q = int(rng.integers(2, 4))
            lat = MagneticLattice(k, q, 2, 2, "torus")
            gauge = build_gauge(lat)
            groups = band_groups(lat, band_energies(lat, gauge, BlochGrid(16, 16)))
            group, interval = groups[int(rng.integers(0, len(groups)))]
            res = invariant_pair_result(lat, gauge, interval, BlochGrid(16, 16))
            if res.band_group != group or abs(res.total_over_2pi - res.chern) > 1e-6:
                failures.append(f"fhs {k},{q},{group}")
            cases += 1

        # 30 cases: projector idempotence at the configured tolerance 1e-4
        for _ in range(30):
            q = (4, 6)[int(rng.integers(0, 2))]
            lat = MagneticLattice(1, q, 2, 2, "torus")
            gauge = build_gauge(lat)
            op = assemble_bulk(lat, gauge)
            rep = torus_spectrum(lat, gauge)
            gaps = [g for g in rep.gaps if g.width > 2.0]
            gap = gaps[int(rng.integers(0, len(gaps)))]
            ival = certify_interval(rep, rep.eigenvalues[0] - 1.0, gap.midpoint)
            p = spectral_projection(op, ival, tol=1e-4)
            if np.linalg.norm(p @ p - p, 2) > 1e-4:
                failures.append(f"projector {q} {gap.midpoint:.2f}")
            cases += 1

        # 10 cases: determinism of CLI verdicts with a fixed seed
        from gapfill.cli import main
        for i in range(5):
            cfg = tmp_path / f"det{i}.json"
            cfg.write_text(json.dumps({
                "model": {"k": 1, "q": 4, "cells_x": 2 + i % 2, "cells_y": 2,
                          "geometry": "torus", "gauge": "landau"},
                "task": "gaps", "params": {}, "seed": 11 + i,
            }))
            outs = []
            for run in (0, 1):
                out = tmp_path / f"det{i}-{run}"
                main(["gaps", "--config", str(cfg), "--out", str(out)])
                outs.append((out / "spectrum.csv").read_bytes()
                            + (out / "gaps.json").read_bytes())
                cases += 1
            if outs[0] != outs[1]:
                failures.append(f"determinism {i}")

        ok = not failures and cases >= 200
        assert announce(11, "property suite", ok,
                        f"{cases} randomized cases, failures: "
                        f"{failures or 'none'} ({time.perf_counter()-t0:.0f}s)")
