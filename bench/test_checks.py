"""Tests of the benchmark's artifact checks and span arithmetic.

    python3 -m pytest -q bench/test_checks.py

Each check must pass on good artifacts and fail on doctored ones: a
shifted eigenvalue, a flipped c1 sign, a sample distance above delta, a
nonzero far deviation.
"""

import csv
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _write(out, name, doc):
    (out / name).write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def torus_run(tmp_path_factory):
    from gapfill.cli import main
    d = tmp_path_factory.mktemp("torus")
    cfg = {"model": {"k": 1, "q": 8, "cells_x": 2, "cells_y": 2,
                     "geometry": "torus", "gauge": "landau"},
           "task": "gaps", "params": {}}
    (d / "cfg.json").write_text(json.dumps(cfg))
    assert main(["gaps", "--config", str(d / "cfg.json"), "--out", str(d / "out")]) == 0
    return d / "out", cfg


def _shift_eigenvalue(out, index, by):
    path = out / "spectrum.csv"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    rows[1 + index][1] = repr(float(rows[1 + index][1]) + by)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


class TestTorusSpectrum:
    def test_program_output_passes(self, torus_run):
        out, cfg = torus_run
        assert checks.check_gaps(str(out), cfg) == []

    @pytest.mark.parametrize("index, by", [(0, 1e-3), (100, -0.5), (255, 1.0)])
    def test_shifted_eigenvalue_fails(self, torus_run, tmp_path, index, by):
        out, cfg = torus_run
        doctored = tmp_path / "out"
        doctored.mkdir()
        for name in ("spectrum.csv", "gaps.json"):
            (doctored / name).write_text((out / name).read_text())
        _shift_eigenvalue(doctored, index, by)
        assert checks.check_gaps(str(doctored), cfg)

    def test_eigenvalue_moved_across_the_gap_fails_the_count(self, torus_run):
        out, cfg = torus_run
        ev = checks.read_spectrum(str(out))
        # moving a low state up and a top state down keeps the trace
        ev[7] += 20.0
        ev[-1] -= 20.0
        errs = checks.check_torus_spectrum(ev, cfg["model"])
        assert any("below 4*pi*k" in e for e in errs)

    def test_wrong_size_fails(self, torus_run):
        out, cfg = torus_run
        assert checks.check_torus_spectrum(checks.read_spectrum(str(out))[:-1],
                                           cfg["model"])


class TestChern:
    cfg = {"model": {"k": 2}}

    def test_pair_passes(self, tmp_path):
        _write(tmp_path, "chern.json", {"dim": 4, "chern": -1})
        assert checks.check_chern(str(tmp_path), self.cfg) == []

    @pytest.mark.parametrize("dim, chern", [(4, 1), (2, -1), (4, 0)])
    def test_flipped_or_wrong_pair_fails(self, tmp_path, dim, chern):
        _write(tmp_path, "chern.json", {"dim": dim, "chern": chern})
        assert checks.check_chern(str(tmp_path), self.cfg)


class TestEdgeFill:
    cfg = {"model": {"q": 8},
           "params": {"width_cells": 16, "length_cells": 48, "n_samples": 3,
                      "delta": 0.5}}

    def _doc(self, distances):
        return {"bulk_gap": {"lower": 0.2, "upper": 23.1, "margin": 0.4},
                "samples": [[s, d] for s, d in zip((1.0, 11.0, 22.0), distances)],
                "n_strip_eigenvalues": 49536, "all_pass": True}

    def test_good_report_passes(self, tmp_path):
        _write(tmp_path, "edge_report.json", self._doc([0.1, 0.5, 0.0]))
        assert checks.check_edge_fill(str(tmp_path), self.cfg) == []

    def test_sample_distance_above_delta_fails(self, tmp_path):
        _write(tmp_path, "edge_report.json", self._doc([0.1, 0.5000001, 0.0]))
        assert checks.check_edge_fill(str(tmp_path), self.cfg)

    def test_wrong_eigenvalue_count_fails(self, tmp_path):
        doc = self._doc([0.1, 0.2, 0.3])
        doc["n_strip_eigenvalues"] = 49535
        _write(tmp_path, "edge_report.json", doc)
        assert checks.check_edge_fill(str(tmp_path), self.cfg)

    def test_member_count_matches_the_program_mask(self):
        from gapfill.edge import make_strip, strip_mask
        assert checks.flat_strip_sites(8, 16, 48) == 49536
        for q, w, length in ((4, 6, 3), (8, 5, 2)):
            n = strip_mask(make_strip(1, q, w, length)).n_inside
            assert checks.flat_strip_sites(q, w, length) == n


class TestFlow:
    def test_flow_pair(self, tmp_path):
        _write(tmp_path, "flow.json", {"net_flow": 1, "net_flow_upper": -1})
        assert checks.check_bands(str(tmp_path), {}) == []
        _write(tmp_path, "flow.json", {"net_flow": -1, "net_flow_upper": 1})
        assert checks.check_bands(str(tmp_path), {})


class TestAffiliation:
    def _cfg(self, filt, radii):
        return {"model": {"q": 8, "cells_x": 8, "cells_y": 8,
                          "mask_descriptor": {"kind": "half_plane", "level": 5.5}},
                "params": {"filter": filt, "radii": radii}}

    poly = {"type": "polynomial", "power_coefficients": [0.0] * 8 + [1.0]}
    smooth = {"type": "smoothed_indicator", "degree": 400}

    def test_far_counts_match_the_program_mask(self):
        from gapfill.model import HalfPlaneShape, MagneticLattice, make_mask
        for cells, level in ((6, 4.5), (8, 5.5), (5, 2.3)):
            model = {"q": 8, "cells_x": cells, "cells_y": cells,
                     "mask_descriptor": {"kind": "half_plane", "level": level}}
            mask = make_mask(MagneticLattice(1, 8, cells, cells, "masked"),
                             HalfPlaneShape(level))
            bd = mask.boundary_distance[mask.member]
            radii = [0.5, 1.0, 2.0, 3.0]
            assert checks.half_plane_far_counts(model, radii) == \
                [int((bd >= r).sum()) for r in radii]

    def test_bitwise_zero_passes(self, tmp_path):
        _write(tmp_path, "affiliation.json",
               {"deviations": [0.0, 0.0, 0.0], "exact_zero_radius": 1.0,
                "far_counts": [2368, 1856, 1344]})
        assert checks.check_affiliation(str(tmp_path),
                                        self._cfg(self.poly, [1.0, 2.0, 3.0])) == []

    @pytest.mark.parametrize("deviations, radius", [
        ([0.0, 5e-324, 0.0], 1.0), ([0.0, 0.0, 0.0], None), ([1e-17, 0.0, 0.0], 1.0)])
    def test_nonzero_far_deviation_fails(self, tmp_path, deviations, radius):
        _write(tmp_path, "affiliation.json",
               {"deviations": deviations, "exact_zero_radius": radius,
                "far_counts": [2368, 1856, 1344]})
        assert checks.check_affiliation(str(tmp_path),
                                        self._cfg(self.poly, [1.0, 2.0, 3.0]))

    def test_smooth_decay(self, tmp_path):
        cfg = self._cfg(self.smooth, [1.0, 2.0, 3.0])
        good = {"deviations": [5e-3, 2e-6, 1e-9], "exact_zero_radius": None,
                "far_counts": [2368, 1856, 1344]}
        _write(tmp_path, "affiliation.json", good)
        assert checks.check_affiliation(str(tmp_path), cfg) == []
        for bad in ([5e-3, 2e-6, 3e-6], [5e-3, 2e-6, 2e-6 + 1e-9]):
            _write(tmp_path, "affiliation.json", dict(good, deviations=bad))
            assert checks.check_affiliation(str(tmp_path), cfg)
        _write(tmp_path, "affiliation.json", dict(good, far_counts=[2368, 1856, 1345]))
        assert checks.check_affiliation(str(tmp_path), cfg)


class TestWidenessAndReport:
    def test_expected_verdicts(self, tmp_path):
        disk = {"model": {"mask_descriptor": {"kind": "disk"}}}
        half = {"model": {"mask_descriptor": {"kind": "half_plane"}}}
        assert checks.expected_status("wideness", disk) == 2
        assert checks.expected_status("wideness", half) == 0
        _write(tmp_path, "wideness.json",
               {"verdict": "wide_proved", "spot_checks": [100, 100]})
        assert checks.check_wideness(str(tmp_path), half) == []
        assert checks.check_wideness(str(tmp_path), disk)
        _write(tmp_path, "wideness.json",
               {"verdict": "wide_proved", "spot_checks": [99, 100]})
        assert checks.check_wideness(str(tmp_path), half)

    def test_report_verdict(self, tmp_path):
        _write(tmp_path, "report.json", {"verdict": "PASS", "message": ""})
        assert checks.check_report(str(tmp_path), {}) == []
        _write(tmp_path, "report.json", {"verdict": "FAIL", "message": "x"})
        assert checks.check_report(str(tmp_path), {})


class TestSpanArithmetic:
    def _span(self, sid, name, start, end, parent=None, counts=None):
        return {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "thread": 1, "task": None, "counts": counts or {}}

    def test_self_time_and_outermost(self):
        spans = [
            self._span(2, "model.mask_from_member", 1.0, 2.0, parent=1,
                       counts={"sites": 10}),
            self._span(1, "model.make_mask", 0.0, 3.0, counts={"sites": 10}),
            self._span(3, "coarse.affiliation_check", 3.0, 10.0),
            self._span(4, "spectral.operator_norm", 4.0, 6.0, parent=3),
            self._span(5, "spectral.operator_norm", 6.0, 9.0, parent=3),
        ]
        assert tracing._total(spans, tracing.MASK_FUNCS) == 3.0
        assert [s["id"] for s in tracing._outermost(spans, tracing.MASK_FUNCS)] == [1]
        assert tracing._self_time(spans, "coarse.affiliation_check") == 2.0
        m = tracing.layer_metrics(spans, {"affiliation": 10.0}, 9.0, 10.0, 9.5)
        assert set(m) == {name for name, _ in tracing.PER_LAYER}
        assert m["model.mask_sites"] == 10
        assert m["coarse.affiliation_self_s"] == 2.0
        assert m["trace.overhead_s"] == pytest.approx(0.5)
        assert m["edge.blocks"] == 0 and m["cli.gaps_s"] == 0.0

    def test_tracer_wraps_imported_bindings(self):
        import gapfill
        import gapfill.cli
        import gapfill.coarse
        import gapfill.spectral
        original = gapfill.spectral.operator_norm
        tracer = tracing.Tracer()
        tracer.install(gapfill)
        try:
            assert gapfill.coarse.operator_norm is gapfill.spectral.operator_norm
            assert gapfill.coarse.operator_norm is not original
            assert gapfill.cli.write_json is gapfill._output.write_json
            gapfill.coarse.operator_norm(lambda x: 2.0 * x, 4, hermitian=True)
        finally:
            tracer.uninstall()
        assert gapfill.spectral.operator_norm is original
        (span,) = tracer.spans
        assert span["name"] == "spectral.operator_norm"
        assert span["counts"]["applies"] >= 1


class TestVerdict:
    """A wrong exit status makes the run incorrect, even over good artifacts."""

    cfg = TestEdgeFill.cfg

    class FakeCli:
        def __init__(self, status):
            self.status = status

        def main(self, argv):
            out = argv[argv.index("--out") + 1]
            os.makedirs(out)
            doc = TestEdgeFill()._doc([0.1, 0.2, 0.3])
            with open(os.path.join(out, "edge_report.json"), "w") as fh:
                json.dump(doc, fh)
            if isinstance(self.status, Exception):
                raise self.status
            return self.status

    def _round(self, tmp_path, status):
        op = workloads.Op("edge-fill", "edge-fill", self.cfg, "chain")
        return worker.run_round(self.FakeCli(status), [op], {"edge-fill": "cfg.json"},
                                str(tmp_path / "round"), seed=1)

    def test_expected_status_and_good_artifacts_are_correct(self, tmp_path):
        v = run.verdict([self._round(tmp_path, 0)])
        assert v == {"correct": True, "attempted": 1, "failed": 0}

    @pytest.mark.parametrize("status", [2, 1, RuntimeError("crash")])
    def test_wrong_status_is_incorrect(self, tmp_path, status):
        rnd = self._round(tmp_path, status)
        assert run.verdict([rnd]) == {"correct": False, "attempted": 1, "failed": 1}
        (failure,) = rnd["failures"]
        assert "exit status" in failure["problems"][0]


def test_mask_sites_counts_members():
    from gapfill.model import HalfPlaneShape, MagneticLattice, make_mask
    mask = make_mask(MagneticLattice(1, 8, 4, 4, "masked"), HalfPlaneShape(2.5))
    counts = tracing._counts("model.make_mask", (), mask)
    assert 0 < counts["sites"] == int(mask.member.sum()) < mask.member.size


def test_task_medians_are_per_operation():
    rounds = [{"times": [("gaps", 1.0), ("chern", 5.0)]},
              {"times": [("gaps", 9.0), ("chern", 4.0)]},
              {"times": [("gaps", 2.0), ("chern", 6.0)]}]
    assert run.task_medians(rounds) == [2.0, 5.0]


def test_round_seeds_are_distinct_and_repeatable():
    seeds = [worker.round_seed(s, i) for s in (1, 2) for i in range(20)]
    assert len(set(seeds)) == len(seeds)
    assert worker.round_seed(7, 3) == worker.round_seed(7, 3)
