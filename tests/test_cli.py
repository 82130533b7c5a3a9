import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gapfill
from gapfill import bloch, cli, edge, spectral
from gapfill.cli import TASKS, load_config, main
from gapfill.model import assemble_restricted, build_gauge

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_config(path, model=None, task="gaps", params=None, seed=0,
                 **extra):
    cfg = {
        "model": model or {"k": 1, "q": 4, "cells_x": 4, "cells_y": 4,
                           "geometry": "torus", "gauge": "landau"},
        "task": task,
        "params": params or {},
        "seed": seed,
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return path


def read_spectrum(out):
    """Eigenvalues and residual fields of spectrum.csv."""
    rows = [line.split(",") for line in (out / "spectrum.csv").read_text().splitlines()[1:]]
    return np.array([float(r[1]) for r in rows]), [r[2] for r in rows]


def window_operator(cfg_path):
    """The restricted operator the gaps task solves for a masked config."""
    cfg = load_config(str(cfg_path))
    lat = cli._lattice(cfg)
    return assemble_restricted(lat, build_gauge(lat, cfg["model"]["gauge"]),
                               cli._mask(cfg, lat))


class TestConfigValidation:
    def test_empty_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("")
        assert main(["gaps", "--config", str(cfg)]) == 1

    def test_unknown_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"k": 1, "q": 4, "cells_x": 2, "cells_y": 2,
                      "geometry": "torus", "gauge": "landau"},
            "task": "gaps",
            "frobnicate": True,
        }))
        assert main(["gaps", "--config", str(cfg)]) == 1

    def test_wrong_potential_length(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"k": 1, "q": 4, "cells_x": 2, "cells_y": 2,
                      "geometry": "torus", "gauge": "landau",
                      "potential": [0.0, 1.0]},
            "task": "gaps",
        }))
        assert main(["gaps", "--config", str(cfg)]) == 1

    def test_task_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", task="chern")
        assert main(["gaps", "--config", str(cfg)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["gaps", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("n_samples", [3, 5])
    def test_graph_mask_sample_count(self, tmp_path, capsys, n_samples):
        # q = 4: a graph shape samples f once per site column of one cell
        cfg = write_config(tmp_path / "cfg.json", task="wideness",
                           model={"k": 1, "q": 4, "cells_x": 6, "cells_y": 6,
                                  "geometry": "masked", "gauge": "landau",
                                  "mask_descriptor": {
                                      "kind": "graph",
                                      "f_samples": [3.0] * n_samples}})
        assert main(["wideness", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: model/mask_descriptor/f_samples")

    @pytest.mark.parametrize("n_samples", [3, 5])
    def test_graph_strip_shape_sample_count(self, tmp_path, capsys, n_samples):
        cfg = write_config(tmp_path / "cfg.json", task="bands",
                           params={"width_cells": 6, "length_cells": 2,
                                   "n_kappa": 12,
                                   "shape": {"kind": "graph",
                                             "f_samples": [0.1] * n_samples}})
        assert main(["bands", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: params/shape/f_samples")

    @pytest.mark.parametrize("task, model, params, named", [
        ("wideness", {"mask_descriptor": {"kind": "disk", "radius": 1.0}}, {"r": 1.0},
         "model/mask_descriptor: 'center' is a required property"),
        ("affiliation", {"mask_descriptor": {"kind": "half_plane", "level": 1.0}},
         {"filter": {"type": "gaussian", "center": 0.0, "degree": 10}},
         "params/filter: 'sigma' is a required property"),
        ("affiliation", {"mask_descriptor": {"kind": "half_plane", "level": 1.0}},
         {"filter": {"power_coefficients": [0.0, 1.0]}},
         "params/filter: 'type' is a required property"),
        ("affiliation", {"mask_descriptor": {"kind": "half_plane", "level": 1.0}},
         {"filter": {"type": "lorentzian", "degree": 80}},
         "params/filter/type: 'lorentzian' is not one of"),
        ("bands", {"geometry": "torus"}, {"length_cells": 2},
         "params: 'width_cells' is a required property"),
        ("edge-fill", {"geometry": "torus"}, {"width_cells": 6},
         "params: 'length_cells' is a required property"),
        ("gaps", {"mask_descriptor": {"kind": "sites", "sites": [[9, 9]]}}, {},
         "model/mask_descriptor/sites: site [9, 9] lies outside the 4 x 4 site window"),
        ("gaps", {"mask_descriptor": {"kind": "sites", "sites": [[1, 1], [-1, 0]]}}, {},
         "model/mask_descriptor/sites: site [-1, 0] lies outside"),
        ("affiliation", {"mask_descriptor": {"kind": "half_plane", "level": 1.0}},
         {"filter": {"type": "smoothed_indicator", "lo": 2.0, "hi": 20.0, "smoothing": 4.5,
                     "degree": -1}},
         "params/filter/degree: -1 is less than the minimum of 0"),
        ("affiliation", {"mask_descriptor": {"kind": "half_plane", "level": 1.0}},
         {"filter": {"type": "gaussian", "center": 0.0, "sigma": 1.0,
                     "degree": spectral.DEGREE_CAP_DEFAULT + 1}},
         f"params/filter/degree: {spectral.DEGREE_CAP_DEFAULT + 1} is greater than the maximum"),
        ("affiliation", {"mask_descriptor": {"kind": "half_plane", "level": 1.0}},
         {"filter": {"type": "polynomial", "power_coefficients": []}},
         "params/filter/power_coefficients: []"),
        ("affiliation", {"mask_descriptor": {"kind": "half_plane", "level": 1.0}},
         {"filter": {"type": "gaussian", "center": 0.0, "sigma": 0, "degree": 10}},
         "params/filter/sigma: 0 is less than or equal to the minimum of 0"),
        ("affiliation", {"mask_descriptor": {"kind": "half_plane", "level": 1.0}},
         {"filter": {"type": "smoothed_indicator", "lo": 2.0, "hi": 20.0, "smoothing": 0,
                     "degree": 10}},
         "params/filter/smoothing: 0 is less than or equal to the minimum of 0"),
        ("affiliation", {"mask_descriptor": {"kind": "half_plane", "level": 1.0}},
         {"filter": {"type": "smoothed_indicator", "lo": 5.0, "hi": 5.0, "smoothing": 1.0,
                     "degree": 10}},
         "params/filter: need lo < hi, got [5.0, 5.0]"),
        ("affiliation", {"mask_descriptor": {"kind": "half_plane", "level": 1.0}},
         {"radii": []}, "params/radii: []"),
        # every flow reports both edges: the removed edge option is refused
        ("bands", {"geometry": "torus"},
         {"width_cells": 6, "length_cells": 2, "designated_edge": "upper"},
         "params: Additional properties are not allowed ('designated_edge' was unexpected)"),
    ], ids=["disk-center", "gaussian-sigma", "filter-type", "unknown-filter", "bands-width",
            "edge-fill-length", "site-past-window", "negative-site", "negative-degree",
            "degree-past-cap", "no-power-coefficients", "zero-sigma", "zero-smoothing",
            "lo-not-below-hi", "no-radii", "edge-option"])
    def test_missing_or_out_of_range_field_exit_1(self, tmp_path, capsys, task, model,
                                                  params, named):
        # q = 2 on 2 x 2 cells: the site window is 4 x 4
        model = dict({"k": 1, "q": 2, "cells_x": 2, "cells_y": 2, "geometry": "masked",
                      "gauge": "landau"}, **model)
        cfg = write_config(tmp_path / "cfg.json", model=model, task=task, params=params)
        assert main([task, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: ") and named in err


def test_import_leaves_optimize_and_ndimage_unloaded():
    # each is imported where its one function is called, not with the CLI
    code = ("import sys, gapfill.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.ndimage', 'scipy.sparse.csgraph') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gapfill.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_flat_edge_bands_leave_optimize_unloaded(tmp_path):
    # the shipped bands config takes the Harper chains, a balls strip the
    # banded blocks: one flow, which pairs no vectors by assignment, runs
    # both, and neither loads scipy.optimize
    code = ("import sys; from gapfill.cli import main; from gapfill import edge, model; "
            f"status = main(['bands', '--config', {os.path.join(CONFIG_DIR, 'k1-bands.json')!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            "flat = 'scipy.optimize' in sys.modules; "
            "edge.strip_bands(edge.make_strip(1, 4, 8, 2, shape=model.BallsShape("
            "model.HalfPlaneShape(0.0), 1 / 3, ((0.0, 1.0), (1.0, 1.0), (2.0, 1.0)))), 6); "
            "print(status, flat, 'scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gapfill.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "False", "False"]
    with open(tmp_path / "flow.json") as fh:
        assert json.load(fh)["solver"]["route"] == "harper_chains"


class TestShippedConfigs:
    def test_configs_load_and_name_their_task(self):
        paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
        assert paths
        out_dirs = {}
        for path in paths:
            cfg = load_config(path)
            # k1-edge-fill-balls.json names the task edge-fill
            stem = os.path.basename(path)[:-len(".json")].split("-", 1)[1]
            assert cfg["task"] in TASKS
            assert stem == cfg["task"] or stem.startswith(cfg["task"] + "-"), path
            out_dirs.setdefault(cfg["task"], []).append(cfg.get("output_dir"))
        for task, dirs in out_dirs.items():
            assert len(set(dirs)) == len(dirs), f"{task} configs share an output_dir"


class TestBulkSpectrumTask:
    def test_artifacts_and_gap_row(self, tmp_path):
        # k=1, h=1/8, 4x4: the gap report contains a row near (0, 8 pi)
        cfg = write_config(tmp_path / "cfg.json",
                           model={"k": 1, "q": 8, "cells_x": 4, "cells_y": 4,
                                  "geometry": "torus", "gauge": "landau"})
        out = tmp_path / "out"
        assert main(["gaps", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "spectrum.csv").exists()
        assert (out / "spectrum.svg").exists()
        assert (out / "manifest.json").exists()
        gaps = json.loads((out / "gaps.json").read_text())["gaps"]
        principal = max(gaps, key=lambda g: g["upper"] - g["lower"])
        assert abs(principal["lower"]) < 1.0
        assert abs(principal["upper"] - 8 * np.pi) < 2.0
        header = (out / "spectrum.csv").read_text().splitlines()[0]
        assert header == "index,eigenvalue,residual,cluster_id"

    def test_solver_route_recorded(self, tmp_path, dense_spectrum):
        # an unmasked torus goes through its 16 Bloch fibers, of which W = 0
        # leaves 4 magnetic-translation orbits (k=1, q=4: a shift by dy rows
        # moves s by dy/2, a shift by dx columns moves t by dx/2); a masked
        # one is solved banded, one band per row of 16 sites, with no
        # residuals and the gaps of the dense reference
        torus = {"k": 1, "q": 4, "cells_x": 4, "cells_y": 4,
                 "geometry": "torus", "gauge": "landau"}
        masked = dict(torus, mask_descriptor={"kind": "half_plane", "level": 2.0})
        routes = []
        for name, model in (("torus", torus), ("masked", masked)):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.json", model=model, task="gaps")
            assert main(["gaps", "--config", str(cfg), "--out", str(out)]) == 0
            routes.append(json.loads((out / "gaps.json").read_text())["solver"])
        doc = json.loads((tmp_path / "masked" / "gaps.json").read_text())
        assert routes == [{"route": "bloch_fibers", "blocks": 16, "block_dim": 16,
                           "solved_blocks": 4},
                          {"route": "banded", "blocks": 1,
                           "block_dim": doc["n_eigenvalues"], "bandwidth": 16}]
        w, residuals = read_spectrum(tmp_path / "masked")
        dense = dense_spectrum(window_operator(tmp_path / "masked.json"))
        assert set(residuals) == {""}
        assert len(doc["gaps"]) == len(dense.gaps) == 28
        assert np.abs(w - dense.eigenvalues).max() <= 1e-10 * max(dense.norm_bound, 1.0)

    def test_manifest_records_conventions(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["gaps", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        conv = manifest["conventions"]
        assert conv["orientation"] == "ds_wedge_dt_positive"
        assert "spectral_flow" in conv
        # the recorded thresholds are the ones the code compares against
        assert conv["fhs_integrality_tolerance"] == bloch.FHS_INTEGRALITY_TOL
        assert conv["gap_sample_inset_fraction"] == edge.GAP_SAMPLE_INSET
        assert manifest["tasks"]["gaps"] == {
            "config_sha256": hashlib.sha256(cfg.read_bytes()).hexdigest(), "seed": 0}

    def test_manifest_keeps_one_entry_per_task(self, tmp_path):
        # gaps then chern into one directory: both entries remain, each with
        # the hash of its own config; rerunning gaps replaces only its entry
        out = tmp_path / "out"
        gaps = write_config(tmp_path / "gaps.json", task="gaps")
        chern = write_config(tmp_path / "chern.json", task="chern", seed=3,
                             params={"grid": [8, 8]})
        assert main(["gaps", "--config", str(gaps), "--out", str(out)]) == 0
        assert main(["chern", "--config", str(chern), "--out", str(out)]) == 0
        digest = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                  for name, path in (("gaps", gaps), ("chern", chern))}
        tasks = json.loads((out / "manifest.json").read_text())["tasks"]
        assert tasks == {"gaps": {"config_sha256": digest["gaps"], "seed": 0},
                         "chern": {"config_sha256": digest["chern"], "seed": 3}}
        assert digest["gaps"] != digest["chern"]
        assert main(["gaps", "--config", str(gaps), "--out", str(out), "--seed", "5"]) == 0
        tasks = json.loads((out / "manifest.json").read_text())["tasks"]
        assert tasks["gaps"]["seed"] == 5 and tasks["chern"]["seed"] == 3

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", seed=7)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["gaps", "--config", str(cfg), "--out", str(out1)])
        main(["gaps", "--config", str(cfg), "--out", str(out2)])
        for name in ("spectrum.csv", "gaps.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_constant_potential_shifts_the_spectrum(self, tmp_path):
        # W = 1.5 on every site of the cell adds 1.5 to every eigenvalue
        spectra = []
        for name, extra in (("free", {}), ("shifted", {"potential": [1.5] * 16})):
            model = dict({"k": 1, "q": 4, "cells_x": 2, "cells_y": 2,
                          "geometry": "torus", "gauge": "landau"}, **extra)
            cfg = write_config(tmp_path / f"{name}.json", model=model, task="gaps")
            out = tmp_path / name
            assert main(["gaps", "--config", str(cfg), "--out", str(out)]) == 0
            rows = (out / "spectrum.csv").read_text().splitlines()[1:]
            spectra.append(np.array([float(row.split(",")[1]) for row in rows]))
        assert np.abs(spectra[1] - spectra[0] - 1.5).max() < 1e-10


class TestWindowSpectrum:
    TORUS = {"k": 1, "q": 4, "cells_x": 4, "cells_y": 4,
             "geometry": "torus", "gauge": "landau"}

    def run_gaps(self, tmp_path, model, name="out"):
        cfg = write_config(tmp_path / f"{name}.json", model=model, task="gaps")
        return main(["gaps", "--config", str(cfg), "--out", str(tmp_path / name)]), cfg

    def test_y_seam_mask_is_solved_on_the_folded_band(self, tmp_path, dense_spectrum):
        # a site column spanning all 16 rows of the torus plus one site keeps
        # the link across the y seam; rows iy and 15 - iy share a diagonal
        # block, 8 blocks in all
        sites = [[0, iy] for iy in range(16)] + [[1, 0]]
        model = dict(self.TORUS, mask_descriptor={"kind": "sites", "sites": sites})
        status, cfg = self.run_gaps(tmp_path, model)
        assert status == 0
        op = window_operator(cfg)
        b = spectral.banded(op)
        assert len(b.rows) == 8
        doc = json.loads((tmp_path / "out" / "gaps.json").read_text())
        assert doc["solver"] == {"route": "banded", "blocks": 1, "block_dim": 17,
                                 "bandwidth": b.bandwidth}
        w, _ = read_spectrum(tmp_path / "out")
        dense = dense_spectrum(op)
        assert len(doc["gaps"]) == len(dense.gaps)
        assert np.abs(w - dense.eigenvalues).max() <= 1e-10 * max(dense.norm_bound, 1.0)

    def test_window_of_6400_rows_meets_the_trace_identities(self, tmp_path):
        # q=8 on 1 x 100 cells: 8 x 800 sites, one band per site row
        # (bandwidth 8); the eigenvalues sum to trace H and their squares to
        # ||H||_F^2, both read off the sparse matrix
        model = {"k": 1, "q": 8, "cells_x": 1, "cells_y": 100,
                 "geometry": "masked", "gauge": "landau"}
        status, cfg = self.run_gaps(tmp_path, model)
        assert status == 0
        doc = json.loads((tmp_path / "out" / "gaps.json").read_text())
        assert doc["solver"] == {"route": "banded", "blocks": 1, "block_dim": 6400,
                                 "bandwidth": 8}
        w, _ = read_spectrum(tmp_path / "out")
        h = window_operator(cfg).matrix
        trace = h.diagonal().real.sum()
        frobenius = (np.abs(h.data) ** 2).sum()
        assert abs(w.sum() - trace) <= 1e-10 * abs(trace)
        assert abs((w ** 2).sum() - frobenius) <= 1e-10 * frobenius

    def test_miscounted_inertia_exit_1(self, tmp_path, capsys, monkeypatch):
        # an inertia count one too high inside a gap disagrees with the
        # banded eigenvalues at the gap's lower shift
        model = dict(self.TORUS, mask_descriptor={"kind": "half_plane", "level": 2.0})
        assert self.run_gaps(tmp_path, model, "good")[0] == 0
        gap = json.loads((tmp_path / "good" / "gaps.json").read_text())["gaps"][3]
        w, _ = read_spectrum(tmp_path / "good")
        shift = gap["lower"] + 2 * spectral.residual_tolerance(np.abs(w).max())
        counts = spectral.BandedOperator.counts

        def miscount(b, sigmas):
            sig = np.asarray(sigmas)
            return counts(b, sig) + ((sig > gap["lower"]) & (sig < gap["upper"]))

        monkeypatch.setattr(spectral.BandedOperator, "counts", miscount)
        assert self.run_gaps(tmp_path, model, "bad")[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("CountNotCertified: ")
        assert f"below {shift:.12g}," in err


class TestChernTask:
    def test_invariant_pair_json(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           model={"k": 1, "q": 8, "cells_x": 2, "cells_y": 2,
                                  "geometry": "torus", "gauge": "landau"},
                           task="chern",
                           params={"grid": [12, 12],
                                   "interval": [-1.0, 4 * np.pi]})
        out = tmp_path / "out"
        assert main(["chern", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "chern.json").read_text())
        assert doc["dim"] == 2 and doc["chern"] == -1
        assert doc["orientation"] == "ds_wedge_dt_positive"
        assert "max_flux" in doc and "group" in doc
        # k=1, q=8 on a 12x12 grid: the shifts move s and t in steps of 3
        # grid points, so 144 fibers form 9 orbits of 16
        solver = doc["solver"]
        assert solver["route"] == "fiber_orbits"
        assert (solver["fibers"], solver["solved"]) == (144, 9)
        assert 0.0 < solver["max_transport_defect"] < 1e-10

    def test_subset_splitting_a_degenerate_pair(self, tmp_path):
        # k=1, q=4 on 16x16: the lowest-5 subset solve of fiber (1/16, 0) and
        # the lowest-7 one of fiber (6/16, 15/16) end inside exactly
        # degenerate pairs, where LAPACK fails; both are solved in full
        cfg = write_config(tmp_path / "cfg.json",
                           model={"k": 1, "q": 4, "cells_x": 2, "cells_y": 2,
                                  "geometry": "torus", "gauge": "landau"},
                           task="chern",
                           params={"grid": [16, 16],
                                   "interval": [8.925119271497696, 26.774491783301663]})
        out = tmp_path / "out"
        assert main(["chern", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "chern.json").read_text())
        assert (doc["dim"], doc["chern"]) == (2, -1)
        assert doc["group"] == [2, 4]

    def test_band_export_without_frames(self, tmp_path):
        # bands.csv holds every fiber's q^2 energies, from one values-only
        # solve per orbit; the reference solves every fiber on its own
        from gapfill.model import MagneticLattice
        from reference import fiber_hamiltonian
        cfg = write_config(tmp_path / "cfg.json", task="chern",
                           params={"grid": [8, 8], "export_bands": True})
        out = tmp_path / "out"
        assert main(["chern", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "bands.csv").read_text().splitlines()
        assert lines[0] == "s,t,band_index,energy"
        energies = np.array([float(line.split(",")[3]) for line in lines[1:]])
        lat = MagneticLattice(1, 4, 4, 4, "torus")
        ref = np.array([np.linalg.eigvalsh(fiber_hamiltonian(lat, "landau", (a / 8, b / 8)))
                        for a in range(8) for b in range(8)])
        assert np.abs(energies - ref.ravel()).max() <= 1e-10 * np.abs(ref).max()

    def test_default_interval_holds_the_lowest_group(self, tmp_path):
        # k=2, q=8: the lowest fiber eigenvalue is -1.216, below the old
        # default lower end -1; the default is now one below the fiber
        # Gershgorin bound -4*pi*k + min W
        cfg = write_config(tmp_path / "cfg.json",
                           model={"k": 2, "q": 8, "cells_x": 2, "cells_y": 2,
                                  "geometry": "torus", "gauge": "landau"},
                           task="chern", params={"grid": [16, 16]})
        out = tmp_path / "out"
        assert main(["chern", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "chern.json").read_text())
        assert (doc["dim"], doc["chern"]) == (4, -1)
        assert doc["interval"] == [-8 * np.pi - 1.0, 8 * np.pi]

    @pytest.mark.parametrize("interval", [[9.0, -2.0], [3.0, 3.0]])
    def test_reversed_interval_exit_1(self, tmp_path, capsys, interval):
        cfg = write_config(tmp_path / "cfg.json", task="chern",
                           params={"grid": [8, 8], "interval": interval})
        assert main(["chern", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: params/interval: need lower < upper")

    def test_uncertified_fiber_residual_exit_1(self, tmp_path, capsys, monkeypatch):
        # fiber eigenvalues shifted by 1e-3 fail the residual certificate of
        # the invariant pair: a named error and exit 1, not a traceback
        from gapfill import bloch
        eigh = np.linalg.eigh

        def shifted(a):
            w, v = eigh(a)
            return w + 1e-3, v
        monkeypatch.setattr(bloch.np.linalg, "eigh", shifted)
        cfg = write_config(tmp_path / "cfg.json", task="chern",
                           params={"grid": [8, 8], "export_bands": True})
        assert main(["chern", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("ResidualNotCertified: fiber residual")


class TestWidenessTask:
    def test_half_plane(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           model={"k": 1, "q": 4, "cells_x": 6, "cells_y": 6,
                                  "geometry": "masked", "gauge": "landau",
                                  "mask_descriptor": {"kind": "half_plane",
                                                      "level": 3.0}},
                           task="wideness", params={"r": 1.0})
        out = tmp_path / "out"
        assert main(["wideness", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "wideness.json").read_text())
        assert doc["verdict"] == "wide_proved"
        assert doc["spot_checks"] == [100, 100]

    def test_disk_counterexample_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           model={"k": 1, "q": 4, "cells_x": 6, "cells_y": 6,
                                  "geometry": "masked", "gauge": "landau",
                                  "mask_descriptor": {"kind": "disk",
                                                      "center": [3.0, 3.0],
                                                      "radius": 2.0}},
                           task="wideness",
                           params={"r": 1.0, "y_diameter": 8.0})
        out = tmp_path / "out"
        assert main(["wideness", "--config", str(cfg), "--out", str(out)]) == 2

    def _explicit(self, tmp_path, descriptor, params):
        cfg = write_config(tmp_path / "cfg.json",
                           model={"k": 1, "q": 4, "cells_x": 6, "cells_y": 6,
                                  "geometry": "masked", "gauge": "landau",
                                  "mask_descriptor": descriptor},
                           task="wideness", params=params)
        out = tmp_path / "out"
        status = main(["wideness", "--config", str(cfg), "--out", str(out)])
        return status, json.loads((out / "wideness.json").read_text())

    def test_bounded_sites_counterexample_exit_2(self, tmp_path):
        # a 3x3-site block is narrower than Y of diameter 2
        block = [[ix, iy] for ix in range(10, 13) for iy in range(10, 13)]
        status, doc = self._explicit(tmp_path, {"kind": "sites", "sites": block},
                                     {"r": 0.25, "y_diameter": 2.0})
        assert status == 2
        assert doc["verdict"] == "counterexample_found"
        assert "bounded inside the window" in doc["witness"]

    def test_all_sites_inconclusive(self, tmp_path):
        status, doc = self._explicit(tmp_path, {"kind": "all"}, {"r": 1.0})
        assert status == 0
        assert doc["verdict"] == "inconclusive"
        assert doc["spot_checks"] == [50, 50]


class TestAffiliationTask:
    MODEL = {"k": 1, "q": 4, "cells_x": 5, "cells_y": 5, "geometry": "masked",
             "gauge": "landau", "mask_descriptor": {"kind": "half_plane", "level": 3.0}}

    def test_polynomial_filter_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           model={"k": 1, "q": 4, "cells_x": 5, "cells_y": 5,
                                  "geometry": "masked", "gauge": "landau",
                                  "mask_descriptor": {"kind": "half_plane",
                                                      "level": 3.0}},
                           task="affiliation",
                           params={"filter": {"type": "polynomial",
                                              "power_coefficients": [0.0, 1.0, 0.4]},
                                   "radii": [0.25, 0.75, 1.25]})
        out = tmp_path / "out"
        assert main(["affiliation", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "affiliation.json").read_text())
        assert doc["exact_zero_radius"] == pytest.approx(2 * 0.25)
        assert doc["deviations"][-1] == 0.0

    def test_gaussian_filter(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", model=self.MODEL, task="affiliation",
                           params={"filter": {"type": "gaussian", "center": 10.0,
                                              "sigma": 6.0, "degree": 80},
                                   "radii": [0.5, 1.5]})
        out = tmp_path / "out"
        assert main(["affiliation", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "affiliation.json").read_text())
        assert doc["filter"] == {"description": "gaussian", "degree": 80}
        assert doc["exact_zero_radius"] is None
        assert 0.0 < doc["deviations"][-1] < doc["deviations"][0]

    def test_torus_model_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", task="affiliation")
        assert main(["affiliation", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "ConfigInvalid: affiliation task needs masked geometry")

    def test_artifacts_do_not_depend_on_seed(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           model={"k": 1, "q": 4, "cells_x": 5, "cells_y": 5,
                                  "geometry": "masked", "gauge": "landau",
                                  "mask_descriptor": {"kind": "half_plane",
                                                      "level": 3.0}},
                           task="affiliation",
                           params={"filter": {"type": "smoothed_indicator",
                                              "lo": 2.0, "hi": 23.0,
                                              "smoothing": 3.0, "degree": 80},
                                   "radii": [0.5, 1.0, 1.5]})
        runs = []
        for seed in (1, 7):
            out = tmp_path / f"seed{seed}"
            assert main(["affiliation", "--config", str(cfg), "--out", str(out),
                         "--seed", str(seed)]) == 0
            runs.append([(out / name).read_bytes()
                         for name in ("affiliation.json", "affiliation.csv")])
        assert runs[0] == runs[1]
        assert json.loads(runs[0][0])["deviations"][-1] > 0.0


class TestReportChain:
    def test_missing_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", task="report")
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1

    def test_full_chain_passes(self, tmp_path):
        out = tmp_path / "out"
        model = {"k": 1, "q": 4, "cells_x": 4, "cells_y": 4,
                 "geometry": "torus", "gauge": "landau"}
        main(["gaps", "--config",
              str(write_config(tmp_path / "c1.json", model=model, task="gaps")),
              "--out", str(out)])
        main(["chern", "--config",
              str(write_config(tmp_path / "c2.json", model=model, task="chern",
                               params={"grid": [12, 12],
                                       "interval": [-2.0, 9.0]})),
              "--out", str(out)])
        main(["edge-fill", "--config",
              str(write_config(tmp_path / "c3.json", model=model, task="edge-fill",
                               params={"width_cells": 8, "length_cells": 24,
                                       "n_samples": 8, "delta": 1.0})),
              "--out", str(out)])
        main(["bands", "--config",
              str(write_config(tmp_path / "c4.json", model=model, task="bands",
                               params={"width_cells": 8, "length_cells": 2,
                                       "n_kappa": 24, "e_ref": 9.0})),
              "--out", str(out)])
        status = main(["report", "--config",
                       str(write_config(tmp_path / "c5.json", model=model,
                                        task="report")),
                       "--out", str(out)])
        assert status == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["verdict"] == "PASS"
        assert doc["invariant_pair"] == {"dim": 2, "chern": -1}
        assert doc["gap_filled"] is True
        assert (doc["net_flow"], doc["net_flow_upper"]) == (1, -1)
        assert "net_flow=-c1 on the lower edge and +c1 on the upper edge" in doc["message"]
        assert "- net spectral flow: lower edge 1, upper edge -1" in (
            out / "report.md").read_text()
        assert (out / "dispersion.csv").exists()
        assert (out / "bands.svg").exists()

    @pytest.mark.parametrize("net_flow, net_flow_upper, verdict, status",
                             [(1, -1, "PASS", 0), (-1, -1, "FAIL", 2),
                              (1, 0, "FAIL", 2), (1, 1, "FAIL", 2)])
    def test_flow_sign_is_checked(self, tmp_path, net_flow, net_flow_upper, verdict, status):
        # hand-written artifacts with c1 = -1: the lower edge must carry
        # net_flow = -c1 = +1 and the upper edge net_flow_upper = +c1 = -1
        out = tmp_path / "out"
        out.mkdir()
        docs = {"gaps.json": {"gaps": [{"lower": 9.0, "upper": 16.0, "margin": 1.0}]},
                "chern.json": {"dim": 2, "chern": -1},
                "edge_report.json": {"all_pass": True, "max_distance": 0.1},
                "flow.json": {"net_flow": net_flow, "net_flow_upper": net_flow_upper}}
        for name, doc in docs.items():
            (out / name).write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "c.json", task="report")
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == status
        doc = json.loads((out / "report.json").read_text())
        assert doc["verdict"] == verdict
        assert (doc["net_flow"], doc["net_flow_upper"]) == (net_flow, net_flow_upper)
        assert ("flow_matches=False" in doc["message"]) == (verdict == "FAIL")

    def test_flow_without_upper_edge_is_refused(self, tmp_path, capsys):
        # a flow.json that reports only the lower edge cannot be checked
        out = tmp_path / "out"
        out.mkdir()
        docs = {"gaps.json": {"gaps": [{"lower": 9.0, "upper": 16.0, "margin": 1.0}]},
                "chern.json": {"dim": 2, "chern": -1},
                "edge_report.json": {"all_pass": True, "max_distance": 0.1},
                "flow.json": {"net_flow": 1}}
        for name, doc in docs.items():
            (out / name).write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "c.json", task="report")
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("MissingArtifacts: ") and "net_flow_upper" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("final, verdict, status", [(1e-7, "PASS", 0),
                                                         (1e-5, "FAIL", 2)])
    def test_affiliation_deviation_is_checked(self, tmp_path, final, verdict, status):
        # hand-written artifacts that pass every other check: the final
        # affiliation deviation decides, against the 1e-6 threshold
        out = tmp_path / "out"
        out.mkdir()
        docs = {"gaps.json": {"gaps": [{"lower": 9.0, "upper": 16.0, "margin": 1.0}]},
                "chern.json": {"dim": 2, "chern": -1},
                "edge_report.json": {"all_pass": True, "max_distance": 0.1},
                "flow.json": {"net_flow": 1, "net_flow_upper": -1},
                "affiliation.json": {"filter": {"description": "smooth", "degree": 200},
                                     "deviations": [0.3, 1e-3, final]}}
        for name, doc in docs.items():
            (out / name).write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "c.json", task="report")
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == status
        doc = json.loads((out / "report.json").read_text())
        assert doc["verdict"] == verdict
        assert doc["affiliation_final_deviation"] == final
        assert ("affiliation_ok=False" in doc["message"]) == (verdict == "FAIL")
        assert f"- affiliation final deviation: {final}" in (out / "report.md").read_text()

    def test_degree_zero_affiliation_fails(self, tmp_path):
        # the shipped k1 chain passes; a constant filter is trivially
        # affiliated, so the same chain with a degree-0 affiliation leg fails
        out = tmp_path / "out"
        for task in TASKS:
            config = os.path.join(CONFIG_DIR, f"k1-{task}.json")
            assert main([task, "--config", config, "--out", str(out)]) == 0, task
        assert json.loads((out / "report.json").read_text())["verdict"] == "PASS"
        path = out / "affiliation.json"
        doc = json.loads(path.read_text())
        doc["filter"] = {"description": "constant", "degree": 0}
        doc["deviations"] = [0.0] * len(doc["deviations"])
        path.write_text(json.dumps(doc))
        config = os.path.join(CONFIG_DIR, "k1-report.json")
        assert main(["report", "--config", config, "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "FAIL"
        assert "affiliation_ok=False" in report["message"]
        assert "affiliation filter degree 0" in report["message"]

    def test_no_field_reports_no_obstruction(self, tmp_path):
        out = tmp_path / "out"
        model = {"k": 0, "q": 2, "cells_x": 4, "cells_y": 4,
                 "geometry": "torus", "gauge": "landau"}
        main(["gaps", "--config",
              str(write_config(tmp_path / "c1.json", model=model, task="gaps")),
              "--out", str(out)])
        main(["chern", "--config",
              str(write_config(tmp_path / "c2.json", model=model, task="chern",
                               params={"grid": [8, 8],
                                       "interval": [-2.0, -1.0]})),
              "--out", str(out)])
        main(["edge-fill", "--config",
              str(write_config(tmp_path / "c3.json", model=model, task="edge-fill",
                               params={"width_cells": 6, "length_cells": 6,
                                       "n_samples": 4, "delta": 0.5})),
              "--out", str(out)])
        main(["bands", "--config",
              str(write_config(tmp_path / "c4.json", model=model, task="bands",
                               params={"width_cells": 6, "length_cells": 2,
                                       "n_kappa": 12, "e_ref": -5.0})),
              "--out", str(out)])
        status = main(["report", "--config",
                       str(write_config(tmp_path / "c5.json", model=model,
                                        task="report")),
                       "--out", str(out)])
        assert status == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["verdict"] == "no_obstruction"
        assert "not implied" in doc["message"]

    def test_decorated_edge_fill(self, tmp_path):
        out = tmp_path / "out"
        model = {"k": 1, "q": 4, "cells_x": 4, "cells_y": 4,
                 "geometry": "torus", "gauge": "landau"}
        status = main(["edge-fill", "--config",
                       str(write_config(tmp_path / "c.json", model=model,
                                        task="edge-fill",
                                        params={"width_cells": 8,
                                                "length_cells": 24,
                                                "n_samples": 8,
                                                "delta": 1.0,
                                                "shape": {
                                                    "kind": "half_plane_with_balls",
                                                    "level": 0.0,
                                                    "radius": 1.0 / 3.0,
                                                    "ball_height": 1.0}})),
                       "--out", str(out)])
        assert status == 0
        doc = json.loads((out / "edge_report.json").read_text())
        assert doc["all_pass"] is True

    def test_disk_strip_shape_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", task="bands",
                           params={"width_cells": 6, "length_cells": 2,
                                   "n_kappa": 12,
                                   "shape": {"kind": "disk", "center": [1, 1],
                                             "radius": 0.5}})
        status = main(["bands", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert status == 1
        assert capsys.readouterr().err.startswith("UnsupportedShape: ")

    @pytest.mark.parametrize("model", [
        {"geometry": "strip"},
        {"geometry": "torus", "mask_descriptor": {"kind": "half_plane", "level": 2.0}}])
    def test_edge_fill_needs_the_unmasked_model_torus_exit_1(self, tmp_path, capsys,
                                                            model):
        # the bulk gap edge-fill certifies is a gap of the model torus itself
        model = dict({"k": 1, "q": 4, "cells_x": 4, "cells_y": 4, "gauge": "landau"},
                     **model)
        cfg = write_config(tmp_path / "c.json", model=model, task="edge-fill",
                           params={"width_cells": 8, "length_cells": 4})
        assert main(["edge-fill", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "ConfigInvalid: edge-fill restricts the model torus to a strip")

    @pytest.mark.parametrize("task", ["bands", "edge-fill"])
    def test_strip_tasks_refuse_a_masked_model_exit_1(self, tmp_path, capsys, task):
        # both strip tasks take k, q and W from the model torus, so a masked
        # symmetric-gauge window is refused, bands included
        model = {"k": 1, "q": 8, "cells_x": 6, "cells_y": 6, "geometry": "masked",
                 "gauge": "symmetric",
                 "mask_descriptor": {"kind": "half_plane", "level": 3.0}}
        cfg = write_config(tmp_path / "c.json", model=model, task=task,
                           params={"width_cells": 12, "length_cells": 2, "n_kappa": 24})
        assert main([task, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            f"ConfigInvalid: {task} restricts the model torus to a strip")

    def test_zero_field_edge_fill_exit_1(self, tmp_path, capsys):
        # k=0, q=2 on 2x2 cells: the free Laplacian has gaps of width 8, so
        # the bulk gap is certified and the strip width check decides
        model = {"k": 0, "q": 2, "cells_x": 2, "cells_y": 2,
                 "geometry": "torus", "gauge": "landau"}
        cfg = write_config(tmp_path / "c.json", model=model, task="edge-fill",
                           params={"width_cells": 6, "length_cells": 6,
                                   "n_samples": 4, "delta": 0.5})
        status = main(["edge-fill", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("StripTooNarrow: ")
        assert "magnetic length is inf at k = 0" in err

    def test_wide_strip_block_solves_banded(self, tmp_path):
        # q=8, 95 cells wide: one momentum block has 6088 rows; a flat strip
        # splits it into 8 Harper chains of 761 sites, with no dimension cap
        model = {"k": 1, "q": 8, "cells_x": 4, "cells_y": 4,
                 "geometry": "torus", "gauge": "landau"}
        cfg = write_config(tmp_path / "c.json", model=model, task="edge-fill",
                           params={"width_cells": 95, "length_cells": 2,
                                   "n_samples": 4, "delta": 0.5})
        out = tmp_path / "out"
        assert main(["edge-fill", "--config", str(cfg), "--out", str(out)]) in (0, 2)
        doc = json.loads((out / "edge_report.json").read_text())
        assert doc["n_strip_eigenvalues"] == (95 * 8 + 1) * 8 * 2
        assert doc["solver"] == {"route": "harper_chains", "blocks": 2, "period_cells": 1,
                                 "chains": 8, "chain_dim": 761, "block_dim": 6088}

    def test_failing_edge_fill_exit_2(self, tmp_path):
        out = tmp_path / "out"
        model = {"k": 1, "q": 4, "cells_x": 4, "cells_y": 4,
                 "geometry": "torus", "gauge": "landau"}
        status = main(["edge-fill", "--config",
                       str(write_config(tmp_path / "c.json", model=model,
                                        task="edge-fill",
                                        params={"width_cells": 8,
                                                "length_cells": 4,
                                                "n_samples": 8,
                                                "delta": 0.05})),
                       "--out", str(out)])
        assert status == 2
        doc = json.loads((out / "edge_report.json").read_text())
        assert doc["all_pass"] is False
