import glob
import hashlib
import json
import os

import numpy as np
import pytest

from gapfill.cli import TASKS, load_config, main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_config(path, model=None, task="bulk-spectrum", params=None, seed=0,
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


class TestConfigValidation:
    def test_empty_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("")
        assert main(["bulk-spectrum", "--config", str(cfg)]) == 1

    def test_unknown_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"k": 1, "q": 4, "cells_x": 2, "cells_y": 2,
                      "geometry": "torus", "gauge": "landau"},
            "task": "bulk-spectrum",
            "frobnicate": True,
        }))
        assert main(["bulk-spectrum", "--config", str(cfg)]) == 1

    def test_wrong_potential_length(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"k": 1, "q": 4, "cells_x": 2, "cells_y": 2,
                      "geometry": "torus", "gauge": "landau",
                      "potential": [0.0, 1.0]},
            "task": "bulk-spectrum",
        }))
        assert main(["bulk-spectrum", "--config", str(cfg)]) == 1

    def test_task_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", task="chern")
        assert main(["bulk-spectrum", "--config", str(cfg)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["bulk-spectrum", "--config", str(tmp_path / "nope.json")]) == 1

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
        assert main(["bulk-spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "spectrum.csv").exists()
        assert (out / "spectrum.svg").exists()
        assert (out / "manifest.json").exists()
        gaps = json.loads((out / "gaps.json").read_text())["gaps"]
        principal = max(gaps, key=lambda g: g["upper"] - g["lower"])
        assert abs(principal["lower"]) < 1.0
        assert abs(principal["upper"] - 8 * np.pi) < 2.0
        header = (out / "spectrum.csv").read_text().splitlines()[0]
        assert header == "index,eigenvalue,residual,cluster_id"

    def test_solver_route_recorded(self, tmp_path):
        # an unmasked torus goes through its 16 Bloch fibers, of which W = 0
        # leaves 4 magnetic-translation orbits (k=1, q=4: a shift by dy rows
        # moves s by dy/2, a shift by dx columns moves t by dx/2); a masked
        # one is solved densely
        torus = {"k": 1, "q": 4, "cells_x": 4, "cells_y": 4,
                 "geometry": "torus", "gauge": "landau"}
        masked = dict(torus, mask_descriptor={"kind": "half_plane", "level": 2.0})
        routes = []
        for name, model in (("torus", torus), ("masked", masked)):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.json", model=model, task="gaps")
            assert main(["gaps", "--config", str(cfg), "--out", str(out)]) == 0
            routes.append(json.loads((out / "gaps.json").read_text())["solver"])
        n_masked = json.loads((tmp_path / "masked" / "gaps.json").read_text())[
            "n_eigenvalues"]
        assert routes == [{"route": "bloch_fibers", "blocks": 16, "block_dim": 16,
                           "solved_blocks": 4},
                          {"route": "dense", "blocks": 1, "block_dim": n_masked,
                           "solved_blocks": 1}]

    def test_manifest_records_conventions(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["bulk-spectrum", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        conv = manifest["conventions"]
        assert conv["orientation"] == "ds_wedge_dt_positive"
        assert "spectral_flow" in conv
        assert manifest["tasks"]["bulk-spectrum"] == {
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
        main(["bulk-spectrum", "--config", str(cfg), "--out", str(out1)])
        main(["bulk-spectrum", "--config", str(cfg), "--out", str(out2)])
        for name in ("spectrum.csv", "gaps.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_operator_triplet_export(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           params={"export_operator": True})
        out = tmp_path / "out"
        assert main(["bulk-spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "operator.csv").read_text().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) > 256  # diagonal plus hoppings


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
        from gapfill.bloch import fiber_hamiltonian
        from gapfill.model import MagneticLattice, build_gauge
        cfg = write_config(tmp_path / "cfg.json", task="chern",
                           params={"grid": [8, 8], "export_bands": True})
        out = tmp_path / "out"
        assert main(["chern", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "bands.csv").read_text().splitlines()
        assert lines[0] == "s,t,band_index,energy"
        energies = np.array([float(line.split(",")[3]) for line in lines[1:]])
        lat = MagneticLattice(1, 4, 4, 4, "torus")
        g = build_gauge(lat)
        ref = np.array([np.linalg.eigvalsh(fiber_hamiltonian(lat, g, (a / 8, b / 8)))
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


class TestAffiliationTask:
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
                                       "n_samples": 8, "delta": 1.0,
                                       "bulk_cells": 4})),
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
        assert doc["net_flow"] == 1
        assert "net_flow=-c1 on the lower edge" in doc["message"]
        assert (out / "report.md").exists()
        assert (out / "dispersion.csv").exists()
        assert (out / "bands.svg").exists()

    @pytest.mark.parametrize("edge, net_flow, verdict, status",
                             [("lower", 1, "PASS", 0), ("lower", -1, "FAIL", 2),
                              ("upper", -1, "PASS", 0), ("upper", 1, "FAIL", 2)])
    def test_flow_sign_is_checked(self, tmp_path, edge, net_flow, verdict, status):
        # hand-written artifacts with c1 = -1: the lower edge must carry
        # net_flow = -c1 = +1, the upper edge +c1 = -1
        out = tmp_path / "out"
        out.mkdir()
        docs = {"gaps.json": {"gaps": [{"lower": 9.0, "upper": 16.0, "margin": 1.0}]},
                "chern.json": {"dim": 2, "chern": -1},
                "edge_report.json": {"all_pass": True, "max_distance": 0.1},
                "flow.json": {"net_flow": net_flow, "designated_edge": edge}}
        for name, doc in docs.items():
            (out / name).write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "c.json", task="report")
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == status
        doc = json.loads((out / "report.json").read_text())
        assert doc["verdict"] == verdict
        assert ("flow_matches=False" in doc["message"]) == (verdict == "FAIL")

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
                                       "n_samples": 4, "delta": 0.5,
                                       "bulk_cells": 4})),
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
                                                "bulk_cells": 4,
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

    def test_zero_field_edge_fill_exit_1(self, tmp_path, capsys):
        # k=0, q=2 on 2x2 cells: the free Laplacian has gaps of width 8, so
        # the bulk gap is certified and the strip width check decides
        model = {"k": 0, "q": 2, "cells_x": 2, "cells_y": 2,
                 "geometry": "torus", "gauge": "landau"}
        cfg = write_config(tmp_path / "c.json", model=model, task="edge-fill",
                           params={"width_cells": 6, "length_cells": 6,
                                   "n_samples": 4, "delta": 0.5,
                                   "bulk_cells": 2})
        status = main(["edge-fill", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("StripTooNarrow: ")
        assert "magnetic length is inf at k = 0" in err

    def test_block_above_dense_cap_solves_banded(self, tmp_path):
        # q=8, 95 cells wide: one momentum block has 6088 rows, above
        # DENSE_CAP; strip blocks take the banded route, which has no cap
        model = {"k": 1, "q": 8, "cells_x": 4, "cells_y": 4,
                 "geometry": "torus", "gauge": "landau"}
        cfg = write_config(tmp_path / "c.json", model=model, task="edge-fill",
                           params={"width_cells": 95, "length_cells": 2,
                                   "n_samples": 4, "delta": 0.5,
                                   "bulk_cells": 4})
        out = tmp_path / "out"
        assert main(["edge-fill", "--config", str(cfg), "--out", str(out)]) in (0, 2)
        doc = json.loads((out / "edge_report.json").read_text())
        assert doc["n_strip_eigenvalues"] == (95 * 8 + 1) * 8 * 2
        assert doc["solver"] == {"route": "banded", "blocks": 2, "block_dim": 6088,
                                 "bandwidth": 8}

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
                                                "delta": 0.05,
                                                "bulk_cells": 4})),
                       "--out", str(out)])
        assert status == 2
        doc = json.loads((out / "edge_report.json").read_text())
        assert doc["all_pass"] is False
