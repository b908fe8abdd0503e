import importlib.util
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from biasamp import fixed_point as fp
from biasamp import risk
from biasamp.cli import main as cli_main
from biasamp.spectra import ScalingRegime
from biasamp.svg import render_plot
from biasamp.sweep import (CSV_COLUMNS, SweepConfig, SweepResult, emit_csv,
                           run_sweep)


ROOT = Path(__file__).resolve().parents[1]

#: With p1 = 0.97 and n = 20, replicate 4 of this sweep leaves a group empty on
#: both of its draws, so Monte Carlo fails at its only grid point.
DEGENERATE_MC = dict(scenario="custom", family="classical", spectrum="isotropic",
                     n=20, phi_grid=(0.5,), p1=0.97, replicates=30)


def tiny_config(**overrides):
    base = dict(scenario="custom", family="random-projection", spectrum="isotropic",
                n=40, phi_grid=(0.5,), psi_grid=(0.5, 1.0), replicates=2,
                a1=2.0, a2=1.0, theta_scale=2.0, delta_scale=1.0, lam=1e-3,
                base_seed=11)
    base.update(overrides)
    return SweepConfig(**base)


class TestConfig:
    def test_json_round_trip(self):
        cfg = tiny_config()
        assert SweepConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_keys_rejected(self):
        doc = json.loads(tiny_config().to_json())
        doc["typo_key"] = 1
        with pytest.raises(ValueError, match="typo_key"):
            SweepConfig.from_json(json.dumps(doc))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="phi_grid"):
            tiny_config(phi_grid=())

    def test_classical_family_takes_no_psi(self):
        with pytest.raises(ValueError, match="psi_grid"):
            tiny_config(family="classical")
        cfg = tiny_config(family="classical", psi_grid=None)
        assert cfg.family == "classical"

    def test_noise_ratio_and_sigma2_are_exclusive(self):
        with pytest.raises(ValueError, match="c_grid"):
            tiny_config(c_grid=(0.5, 2.0))
        cfg = tiny_config(c_grid=(0.5, 2.0), sigma2_sq=None)
        assert cfg.c_grid == (0.5, 2.0)

    def test_spectrum_parameter_requirements(self):
        with pytest.raises(ValueError, match="diatomic"):
            tiny_config(spectrum="diatomic")
        with pytest.raises(ValueError, match="power-law"):
            tiny_config(spectrum="power-law")

    @pytest.mark.parametrize("key,overrides", [
        ("lam", dict(lam=-1.0)),
        ("lambda_grid", dict(lambda_grid=(1e-3, -1.0))),
        ("c_grid", dict(c_grid=(0.5, -1.0), sigma2_sq=None)),
        ("sigma1_sq", dict(sigma1_sq=-1.0)),
        ("sigma2_sq", dict(sigma2_sq=-1.0)),
        ("phi_grid", dict(phi_grid=(-1.0,))),
        ("phi_grid", dict(phi_grid=(0.0,))),
        ("phi_grid", dict(phi_grid=(math.inf,))),
        ("psi_grid", dict(psi_grid=(0.5, math.nan))),
        ("p1", dict(p1=1.5)),
        ("p1", dict(p1=0.0)),
        ("replicates", dict(replicates=1)),
    ])
    def test_bad_values_rejected_naming_the_key(self, key, overrides):
        with pytest.raises(ValueError, match=rf"^{key} "):
            tiny_config(**overrides)

    def test_presets_and_scripts_load(self):
        presets = sorted((ROOT / "configs").glob("*.json"))
        scripts = sorted((ROOT / "scripts").glob("run_*.py"))
        assert len(presets) == len(scripts) == 5
        for path in presets:
            SweepConfig.load(path)
        for path in scripts:
            spec = importlib.util.spec_from_file_location(path.stem, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            assert module.CONFIG in presets


class TestRunSweep:
    def test_rows_follow_grid_order_and_sizes(self):
        cfg = tiny_config()
        res = run_sweep(cfg)
        assert len(res.rows) == 2
        assert [r.values["m"] for r in res.rows] == [20, 40]
        assert all(r.values["d"] == 20 for r in res.rows)
        assert all(r.values["phi"] == 0.5 for r in res.rows)

    def test_theory_cells_reproducible_from_row_coordinates(self):
        cfg = tiny_config(replicates=0)
        res = run_sweep(cfg)
        row = res.rows[1].values
        spec = cfg.build_spectrum(row["d"])
        reg = ScalingRegime.from_counts(row["n"], row["d"], row["m"], cfg.p1)
        th = risk.theory_risks(spec, reg, cfg.family,
                               (cfg.sigma1_sq, cfg.sigma2_sq), row["lambda"],
                               (row["lambda"], row["lambda"]))
        assert row["theory_r1_joint"] == th.r1_joint.total
        assert row["theory_odd"] == th.gaps.odd

    def test_solver_diagnostics_cover_all_nonlinear_solves(self):
        cfg = tiny_config(replicates=0)
        row = run_sweep(cfg).rows[1].values
        spec = cfg.build_spectrum(row["d"])
        reg = ScalingRegime.from_counts(row["n"], row["d"], row["m"], cfg.p1)
        *_, res, iters = fp.solve_rp_joint_nonlinear(spec, reg, row["lambda"])
        seps = [fp.solve_rp_separate(spec, reg, s, row["lambda"]) for s in (1, 2)]
        assert all(c.iters > 0 for c in seps)
        assert row["solver_iters"] == iters + sum(c.iters for c in seps)
        assert row["solver_residual"] == max(res, *(c.residual for c in seps))

    def test_failed_monte_carlo_point_is_flagged(self):
        row = run_sweep(SweepConfig(**DEGENERATE_MC)).rows[0]
        assert row.flags == ["mc-failure"]
        assert math.isfinite(row.values["theory_r1_joint"])
        assert all(row.values[c] == "" for c in CSV_COLUMNS if c.startswith("emp_"))

    def test_noise_ratio_axis_sets_group_two_noise(self):
        cfg = tiny_config(c_grid=(0.5,), sigma2_sq=None, replicates=0,
                          psi_grid=(0.5,))
        res = run_sweep(cfg)
        assert res.rows[0].values["c"] == 0.5

    def test_theory_token_dimension_matches_full_theory(self):
        # isotropic theory values are dimension-free, so the token dimension
        # changes nothing beyond float summation order
        full = run_sweep(tiny_config(replicates=0))
        token = run_sweep(tiny_config(replicates=0, theory_d=4))
        for a, b in zip(full.rows, token.rows):
            assert a.values["d"] == b.values["d"]
            assert a.values["theory_r1_joint"] == pytest.approx(
                b.values["theory_r1_joint"], rel=1e-12)

    def test_theory_token_dimension_validation(self):
        with pytest.raises(ValueError, match="isotropic"):
            tiny_config(spectrum="power-law", beta1=2.0, beta2=1.0, alpha=1.0,
                        replicates=0, theory_d=4)
        with pytest.raises(ValueError, match="replicates"):
            tiny_config(replicates=2, theory_d=4)

    def test_realized_rates_recorded_alongside_requested(self):
        cfg = tiny_config(n=30, phi_grid=(0.33,), psi_grid=(0.52,), replicates=0)
        row = run_sweep(cfg).rows[0].values
        assert row["d"] == 10 and row["m"] == 16
        assert row["phi"] == pytest.approx(10 / 30)
        assert row["psi"] == pytest.approx(16 / 30)
        assert row["phi_requested"] == 0.33
        assert row["psi_requested"] == 0.52


class TestCSV:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config()
        p1 = emit_csv(run_sweep(cfg), tmp_path / "a.csv")
        p2 = emit_csv(run_sweep(cfg), tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_point_grid_gives_two_lines(self, tmp_path):
        cfg = tiny_config(psi_grid=(1.0,), replicates=0)
        path = emit_csv(run_sweep(cfg), tmp_path / "one.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_empty_result_gives_header_only(self, tmp_path):
        res = SweepResult(config=tiny_config(), rows=[])
        path = emit_csv(res, tmp_path / "empty.csv")
        assert path.read_text().splitlines() == [",".join(CSV_COLUMNS)]

    def test_schema_is_fixed_across_scenarios(self, tmp_path):
        for scenario in ("custom", "isotropic-sweep"):
            cfg = tiny_config(scenario=scenario, replicates=0)
            path = emit_csv(run_sweep(cfg), tmp_path / f"{scenario}.csv")
            assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_floats_round_trip(self, tmp_path):
        cfg = tiny_config(replicates=0)
        res = run_sweep(cfg)
        path = emit_csv(res, tmp_path / "rt.csv")
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        col = header.index("theory_r1_joint")
        assert float(cells[col]) == res.rows[0].values["theory_r1_joint"]


class TestSVG:
    def columns(self):
        xs = [0.25, 0.5, 1.0, 2.0]
        return {
            "psi": xs,
            "theory_add": [0.5, 1.5, 2.5, 1.2],
            "emp_add_mean": [0.45, 1.4, 2.6, 1.3],
            "emp_add_std": [0.05, 0.1, 0.2, 0.1],
        }

    def test_valid_svg_document(self, tmp_path):
        path = render_plot(self.columns(), "psi", ["theory_add", "emp_add_mean"],
                           tmp_path / "p.svg", logx=True)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_theory_series_is_dashed_and_ratio_line_present(self, tmp_path):
        path = render_plot(self.columns(), "psi", ["theory_add", "emp_add_mean"],
                           tmp_path / "p.svg")
        text = path.read_text()
        assert "stroke-dasharray" in text
        # error bars: one vertical segment per finite std entry
        root = ET.parse(path).getroot()
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        assert len(lines) >= 4

    def test_missing_column_errors(self, tmp_path):
        with pytest.raises(KeyError):
            render_plot(self.columns(), "psi", ["nope"], tmp_path / "p.svg")

    def test_empty_series_errors(self, tmp_path):
        cols = self.columns()
        cols["theory_add"] = [math.nan] * 4
        with pytest.raises(ValueError, match="no plottable"):
            render_plot(cols, "psi", ["theory_add"], tmp_path / "p.svg")


class TestCLI:
    def test_sweep_round_trip_determinism(self, tmp_path):
        cfg = tiny_config()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        rc1 = cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path / "r1")])
        rc2 = cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path / "r2")])
        assert rc1 == rc2 == 0
        a = (tmp_path / "r1" / "sweep.csv").read_bytes()
        b = (tmp_path / "r2" / "sweep.csv").read_bytes()
        assert a == b

    def test_failure_flags_set_exit_status(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(SweepConfig(**DEGENERATE_MC).to_json())
        assert cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
        assert (tmp_path / "sweep.csv").exists()
        assert cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path),
                         "--allow-flags"]) == 0

    def test_theory_only_flag_blanks_empirics(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_config().to_json())
        assert cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path),
                         "--theory-only"]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        assert row[header.index("emp_r1_joint_mean")] == ""

    def test_plot_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_config().to_json())
        cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path)])
        rc = cli_main(["plot", str(tmp_path / "sweep.csv"), "--x", "psi",
                       "--y", "theory_odd", "emp_odd_mean",
                       "--out", str(tmp_path / "p.svg"), "--logx"])
        assert rc == 0
        assert (tmp_path / "p.svg").exists()

    def test_mp_check_small(self, capsys):
        rc = cli_main(["mp-check", "--gamma", "1.0", "--lam", "1.0",
                       "--d", "300", "--seed", "0"])
        assert rc == 0
        assert "fixed point" in capsys.readouterr().out

    def test_validate_quick(self, capsys):
        assert cli_main(["validate", "quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_seed_override_changes_empirics(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_config().to_json())
        cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path / "a"),
                  "--seed", "1"])
        cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path / "b"),
                  "--seed", "2"])
        a = (tmp_path / "a" / "sweep.csv").read_text()
        b = (tmp_path / "b" / "sweep.csv").read_text()
        assert a != b
