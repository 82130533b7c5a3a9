import glob
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
        # an unmasked torus goes through its 16 Bloch fibers; a masked one is
        # solved densely
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
        assert routes == [{"route": "bloch_fibers", "blocks": 16, "block_dim": 16},
                          {"route": "dense", "blocks": 1, "block_dim": n_masked}]

    def test_manifest_records_conventions(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["bulk-spectrum", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        conv = manifest["conventions"]
        assert conv["orientation"] == "ds_wedge_dt_positive"
        assert "spectral_flow" in conv
        assert "config_sha256" in manifest

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

    @pytest.mark.parametrize("interval", [[9.0, -2.0], [3.0, 3.0]])
    def test_reversed_interval_exit_1(self, tmp_path, capsys, interval):
        cfg = write_config(tmp_path / "cfg.json", task="chern",
                           params={"grid": [8, 8], "interval": interval})
        assert main(["chern", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: params/interval: need lower < upper")


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
        assert abs(doc["net_flow"]) == 1
        assert (out / "report.md").exists()
        assert (out / "dispersion.csv").exists()
        assert (out / "bands.svg").exists()

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

    def test_block_above_dense_cap_exit_1(self, tmp_path, capsys):
        # q=8, 95 cells wide: one momentum block has 6088 rows > DENSE_CAP
        model = {"k": 1, "q": 8, "cells_x": 4, "cells_y": 4,
                 "geometry": "torus", "gauge": "landau"}
        cfg = write_config(tmp_path / "c.json", model=model, task="edge-fill",
                           params={"width_cells": 95, "length_cells": 2,
                                   "n_samples": 4, "delta": 0.5,
                                   "bulk_cells": 4})
        status = main(["edge-fill", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("DenseCapExceeded: dimension 6088 exceeds dense cap 6000")

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
