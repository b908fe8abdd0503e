import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from biasamp import cli
from biasamp import fixed_point as fp
from biasamp import risk
from biasamp import simulate as sim
from biasamp.cli import main as cli_main
from biasamp.spectra import ScalingRegime
from biasamp.svg import render_plot
from biasamp.sweep import (CSV_COLUMNS, FIGURES, SweepConfig, SweepResult, emit_csv,
                           run_sweep)


ROOT = Path(__file__).resolve().parents[1]

#: With p1 = 0.97 and n = 20, replicate 4 of this sweep leaves a group empty on
#: both of its draws, so Monte Carlo fails at its only grid point.
DEGENERATE_MC = dict(scenario="custom", family="classical", spectrum="isotropic",
                     n=20, phi_grid=(0.5,), p1=0.97, replicates=30)

#: Per scenario, a tiny theory-only config's overrides and the figures it draws.
SCENARIO_FIGURES = {
    "phase-diagram": (dict(phi_grid=(0.7, 2.1)),
                      [f"{k}_phi{v}" for k in ("odd", "edd", "add") for v in (0.7, 2.1)]),
    "isotropic-sweep": (dict(phi_grid=(0.5, 1.0)),
                        [f"{k}_phi{v}" for k in ("odd", "edd", "add") for v in (0.5, 1.0)]),
    "regularization-path": (dict(lambda_grid=(1e-3, 1e-2)), ["add_psi0.5", "add_psi1.0"]),
    "diatomic-minority": (dict(phi_grid=(0.5, 1.0)),
                          ["r2_joint_r2_sep_phi0.5", "r2_joint_r2_sep_phi1.0"]),
    "power-law-noise-ratio": (dict(phi_grid=(0.25,), c_grid=(0.5, 2.0), sigma2_sq=None),
                              ["odd", "edd", "add"]),
    "custom": ({}, ["odd_edd"]),
}


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
        ("lam", dict(lam=0.0)),
        ("lambda_grid", dict(lambda_grid=(1e-3, 0.0))),
        ("n", dict(n="20")),
        ("n", dict(n=20.0)),
        ("replicates", dict(replicates=True)),
        ("base_seed", dict(base_seed=None)),
        ("lam", dict(lam="1e-3")),
        ("p1", dict(p1=False)),
        ("sigma2_sq", dict(sigma2_sq=[1.0])),
        ("a1", dict(a1=None)),
        ("phi_grid", dict(phi_grid=0.5)),
        ("psi_grid", dict(psi_grid=(0.5, "1.0"))),
        ("lambda_grid", dict(lambda_grid=(True,))),
        ("scenario", dict(scenario=3)),
        ("family", dict(family=None)),
        ("out_csv", dict(out_csv=["a.csv"])),
        ("base_seed", dict(base_seed=-1)),
    ])
    def test_bad_values_rejected_naming_the_key(self, key, overrides):
        with pytest.raises(ValueError, match=rf"^{key} "):
            tiny_config(**overrides)

    def test_base_seed_keys_must_fit_in_uint64(self):
        # tiny_config has two points: stream keys base_seed * 1_000_003 + {0, 1}
        top = (2 ** 64 - 2) // 1_000_003
        with pytest.raises(ValueError, match=r"^base_seed "):
            tiny_config(base_seed=top + 1)
        assert not run_sweep(tiny_config(base_seed=top)).flagged

    def test_zero_penalty_allowed_in_theory_only_sweeps(self):
        assert tiny_config(lam=0.0, replicates=0).lam == 0.0
        assert tiny_config(lambda_grid=(0.0, 1e-3), replicates=0).lambda_grid[0] == 0.0

    @pytest.mark.parametrize("key,overrides", [
        ("a1", dict(a1=-1.0)),
        ("theta_scale", dict(theta_scale=-1.0)),
        # round(0.1 * 2) = 0: the core block of the d = 2 point is empty
        ("pi_frac", dict(spectrum="diatomic", pi_frac=0.1, b2=0.2, phi_grid=(0.05,))),
    ])
    def test_bad_spectrum_parameters_rejected_at_load(self, key, overrides):
        with pytest.raises(ValueError, match=rf"spectrum \(.*\b{key}\b.*\) is invalid"):
            tiny_config(**overrides)

    def test_presets_load_with_figure_entries(self):
        presets = sorted((ROOT / "configs").glob("*.json"))
        assert len(presets) == 5
        for path in presets:
            config = SweepConfig.load(path)
            # canonical form: no stale or defaulted-away key can linger
            assert config.to_json() == path.read_text()
            assert config.scenario in FIGURES

    def test_missing_required_keys_named(self):
        doc = json.loads(tiny_config().to_json())
        del doc["scenario"], doc["n"]
        with pytest.raises(ValueError, match=r"missing config keys: \['scenario', 'n'\]"):
            SweepConfig.from_json(json.dumps(doc))


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
                               (cfg.sigma1_sq, cfg.sigma2_sq), row["lambda"])
        assert row["theory_r1_joint"] == th.r1_joint.total
        assert row["theory_odd"] == th.gaps.odd

    def test_solver_diagnostics_cover_all_nonlinear_solves(self):
        rp = tiny_config(replicates=0)
        classical = tiny_config(replicates=0, family=risk.FAMILY_CLASSICAL, psi_grid=None,
                                phi_grid=(0.5, 2.0))
        for cfg in (rp, classical):
            row = run_sweep(cfg).rows[1].values
            spec = cfg.build_spectrum(row["d"])
            lam = row["lambda"]
            if cfg is rp:
                reg = ScalingRegime.from_counts(row["n"], row["d"], row["m"], cfg.p1)
                *_, res, iters = fp.solve_rp_joint_nonlinear(spec, reg, lam)
                seps = [(c.residual, c.iters)
                        for c in (fp.solve_rp_separate(spec, reg, s, lam) for s in (1, 2))]
            else:  # the separate stage of classical ridge is the effective shift
                reg = ScalingRegime(p1=cfg.p1, phi=row["d"] / row["n"], gamma=1.0)
                *_, res, iters = fp.solve_classical_joint_nonlinear(spec, reg, lam)
                seps = [fp.solve_kappa(spec.sigma(s), spec.weights, reg.phi_s(s), lam)[1:]
                        for s in (1, 2)]
            assert all(it > 0 for _, it in seps)
            assert row["solver_iters"] == iters + sum(it for _, it in seps)
            assert row["solver_residual"] == max(res, *(r for r, _ in seps))

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

    def test_zero_penalty_floored_once_per_sweep(self, caplog):
        cfg = tiny_config(replicates=0, lam=0.0, psi_grid=(0.5, 1.0, 2.0))
        with caplog.at_level("WARNING", logger="biasamp.fixed_point"):
            res = run_sweep(cfg)
        assert sum("floored" in rec.message for rec in caplog.records) == 1
        assert [r.values["lambda"] for r in res.rows] == [0.0] * 3
        assert not any(r.flags for r in res.rows)

    def test_zero_penalty_classical_sweep_matches_theory_risks(self):
        # The sweep hands the raw penalty to theory_risks, whose classical
        # separate models solve kappa at lam = 0 exactly: at phi = 0.5
        # (phi_s = 1) their risk diverges and the row fails, and at phi = 2
        # the separate variance is sigma_1^2 / (phi_s - 1) plus its bias.
        cfg = SweepConfig(scenario="custom", family="classical", spectrum="isotropic",
                          n=400, phi_grid=(0.5, 2.0), a1=0.5, a2=1.0, theta_scale=2.0,
                          delta_scale=1.0, sigma1_sq=1.0, sigma2_sq=0.5, lam=0.0)
        rows = run_sweep(cfg).rows
        d = np.array([r.values["d"] for r in rows])
        regime = ScalingRegime(p1=cfg.p1, phi=d / cfg.n, gamma=1.0)
        th = risk.theory_risks(cfg.build_spectrum(d), regime, cfg.family,
                               (cfg.sigma1_sq, cfg.sigma2_sq), 0.0)
        columns = {"r1_joint": th.r1_joint.total, "r2_joint": th.r2_joint.total,
                   "r1_sep": th.r1_sep.total, "r2_sep": th.r2_sep.total,
                   **th.gaps.columns()}
        assert th.failed.tolist() == [True, False]
        assert [r.flags for r in rows] == [["solver-failure"], []]
        for i, row in enumerate(rows):
            for k, v in columns.items():
                cell = row.values[f"theory_{k}"]
                assert cell == v[i] or math.isnan(cell) and th.failed[i], (k, cell, v[i])
        assert rows[1].values["theory_r1_sep"] == pytest.approx(13 / 12, rel=1e-12)

    def test_classical_risk_tends_to_the_null_risk_at_huge_penalties(self):
        # The null risk is tr(theta Sigma_1) = a1 = 2; the effective shift
        # kappa used to lose its root once lam + phi max_eig rounded to lam.
        cfg = SweepConfig(scenario="custom", family="classical", spectrum="isotropic",
                          n=40, phi_grid=(0.5, 2.0), a1=2.0, a2=1.0,
                          lambda_grid=tuple(10.0 ** k for k in range(12, 19)), replicates=0)
        rows = run_sweep(cfg).rows
        assert not any(r.flags for r in rows)
        for phi in (0.5, 2.0):
            risks = [r.values["theory_r1_joint"] for r in rows
                     if r.values["phi_requested"] == phi]
            assert risks == sorted(risks) and risks[0] < risks[-1]
            assert risks[-1] == pytest.approx(2.0, rel=1e-15)

    def test_realized_rates_recorded_alongside_requested(self):
        cfg = tiny_config(n=30, phi_grid=(0.33,), psi_grid=(0.52,), replicates=0)
        row = run_sweep(cfg).rows[0].values
        assert row["d"] == 10 and row["m"] == 16
        assert row["phi"] == pytest.approx(10 / 30)
        assert row["psi"] == pytest.approx(16 / 30)
        assert row["phi_requested"] == 0.33
        assert row["psi_requested"] == 0.52


def _emp(values: dict) -> bytes:
    return np.array([values[f"emp_{k}_{s}"] for k in sim.QUANTITIES
                     for s in ("mean", "std")], dtype=float).tobytes()


class TestPopulations:
    """Points sharing (phi, c) are simulated together from shared draws."""

    CLASSICAL = dict(family="classical", psi_grid=None)

    def _one_point(self, cfg, row, base_seed, projection_seed):
        m = row["m"] or None
        population = sim.Population(cfg.build_spectrum(row["d"]), cfg.n, cfg.p1,
                                    (cfg.sigma1_sq, cfg.sigma2_sq), cfg.family, base_seed,
                                    [(row["lambda"], m)], {m: projection_seed} if m else {})
        [[report]] = sim.monte_carlo([population], cfg.replicates)
        return {**{f"emp_{k}_mean": report[k].mean for k in sim.QUANTITIES},
                **{f"emp_{k}_std": report[k].std for k in sim.QUANTITIES}}

    @pytest.mark.parametrize("overrides", [CLASSICAL, dict(psi_grid=(0.5, 1.5))],
                             ids=["classical", "random-projection"])
    def test_rows_are_one_point_calls_keyed_by_population_and_width(self, overrides):
        cfg = tiny_config(phi_grid=(0.5, 1.0), lambda_grid=(1e-3, 1e-1), replicates=3,
                          **overrides)
        rows = [r.values for r in run_sweep(cfg).rows]
        key = cfg.base_seed * 1_000_003
        # the first row draws exactly what a one-point call at its own index draws
        assert _emp(rows[0]) == _emp(self._one_point(cfg, rows[0], key, key))
        for row in rows:
            population = next(j for j, r in enumerate(rows) if r["phi"] == row["phi"])
            width = next(j for j, r in enumerate(rows)
                         if r["phi"] == row["phi"] and r["m"] == row["m"])
            assert _emp(row) == _emp(self._one_point(cfg, row, key + population,
                                                     key + width))
        assert len({_emp(r) for r in rows}) == len(rows)

    @pytest.mark.parametrize("overrides", [CLASSICAL, dict(psi_grid=(0.5, 1.5))],
                             ids=["classical", "random-projection"])
    @pytest.mark.parametrize("bad", [None, math.nan])
    def test_a_failed_fit_flags_only_its_row(self, monkeypatch, overrides, bad):
        cfg = tiny_config(lambda_grid=(1e-2, 0.5), replicates=3, **overrides)
        clean = run_sweep(cfg).rows
        real = sim._fit

        def fails_at_half(design, y, n1, lams):
            if bad is None:  # a singular system
                return [[None if v == 0.5 else w for v, w in zip(lams, path)]
                        for path in real(design, y, n1, lams)]
            # a NaN penalty makes the solved weights NaN, which the fit turns to None
            return real(design, y, n1, [bad if v == 0.5 else v for v in lams])

        monkeypatch.setattr(sim, "_fit", fails_at_half)
        for before, row in zip(clean, run_sweep(cfg).rows):
            if row.values["lambda"] == 0.5:
                assert row.flags == ["mc-failure"]
                assert all(row.values[c] == "" for c in CSV_COLUMNS if c.startswith("emp_"))
            else:
                assert row.flags == []
                assert _emp(row.values) == _emp(before.values)

    def test_a_failed_draw_flags_its_whole_population(self):
        res = run_sweep(SweepConfig(**{**DEGENERATE_MC, "lambda_grid": (1e-2, 1e-1)}))
        assert [r.flags for r in res.rows] == [["mc-failure"]] * 2


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

    def test_error_bars_follow_their_points_when_x_is_unsorted(self, tmp_path):
        cols = {"psi": [2.0, 1.0], "emp_add_mean": [1.0, 2.0],
                "emp_add_std": [0.1, math.nan]}
        root = ET.parse(render_plot(cols, "psi", ["emp_add_mean"], tmp_path / "p.svg")).getroot()
        line = next(el for el in root.iter() if el.tag.endswith("polyline"))
        points = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
        bars = [el for el in root.iter() if el.tag.endswith("}line")
                and el.get("stroke") == line.get("stroke") and el.get("x1") == el.get("x2")]
        assert len(bars) == 1
        # the one finite std belongs to psi = 2.0, the right-hand point
        assert float(bars[0].get("x1")) == pytest.approx(max(p[0] for p in points))

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
        # every point is flagged mc-failure: exit 1 on the flag, not on a plot error
        assert cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
        assert (tmp_path / "sweep.csv").exists()
        text = (tmp_path / "sweep_odd_edd.svg").read_text()
        assert "theory_odd" in text and "emp_" not in text
        assert cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path),
                         "--allow-flags"]) == 0

    @pytest.mark.parametrize("scenario", list(FIGURES))
    def test_scenario_chooses_the_figures(self, tmp_path, capsys, scenario):
        overrides, names = SCENARIO_FIGURES[scenario]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_config(scenario=scenario, **overrides).to_json())
        assert cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path),
                         "--theory-only"]) == 0
        assert {p.name for p in tmp_path.glob("*.svg")} == {f"sweep_{n}.svg" for n in names}
        out = capsys.readouterr().out
        assert ("closed-form limits" in out) == (scenario == "power-law-noise-ratio")

    @pytest.mark.parametrize("doc", [
        None,  # no config file
        dict(lam=0.0, replicates=2),  # rejected value
        dict(scenario=None),  # missing required key (a None value is dropped below)
        dict(n="20"),  # wrong type
    ], ids=["no-file", "bad-value", "missing-key", "wrong-type"])
    def test_bad_config_is_one_line_and_exit_2(self, tmp_path, capsys, doc):
        cfg_path = tmp_path / "cfg.json"
        if doc is not None:
            full = json.loads(tiny_config().to_json())
            full.update(doc)
            cfg_path.write_text(json.dumps({k: v for k, v in full.items() if v is not None}))
        assert cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("biasamp sweep: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_negative_seed_override_is_one_line_and_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_config().to_json())
        assert cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path),
                         "--seed", "-1", "--replicates", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("biasamp sweep: base_seed ") and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["validate", "fig2", "--replicates", "1"],
        ["validate", "fig2", "--seed", "-100"],
        ["validate", "fig2", "--seed", str(2 ** 64 - 1)],
        ["mp-check", "--gamma", "0"],
        ["mp-check", "--lam", "-1"],
        ["mp-check", "--d", "0"],
        ["mp-check", "--seed", "-1"],
    ], ids=["fig2-replicates", "fig2-negative-seed", "fig2-seed-overflow", "mp-gamma",
            "mp-lam", "mp-d", "mp-seed"])
    def test_bad_argument_is_one_error_line_and_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            f"biasamp {argv[0]}: error: argument {argv[-2]}: must be ")

    def test_validate_fig2_accepts_its_largest_seed(self, monkeypatch, capsys):
        # the case with the largest seed offset reaches the last uint64 key
        last = max(cli.SIMULATION_CASES, key=lambda case: case[-1])
        assert cli._FIG2_MAX_SEED + last[-1] == 2 ** 64 - 1
        monkeypatch.setattr(cli, "SIMULATION_CASES", (last,))
        rc = cli_main(["validate", "fig2", "--replicates", "2",
                       "--seed", str(cli._FIG2_MAX_SEED)])
        assert rc in (0, 1)
        assert capsys.readouterr().out.startswith(("PASS", "FAIL"))

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

    def test_plot_leaves_out_series_without_points(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_config().to_json())
        cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path), "--theory-only"])
        capsys.readouterr()
        plot = ["plot", str(tmp_path / "sweep.csv"), "--x", "psi", "--logx",
                "--out", str(tmp_path / "p.svg")]
        assert cli_main(plot + ["--y", "theory_odd", "emp_odd_mean"]) == 0
        text = (tmp_path / "p.svg").read_text()
        assert "theory_odd" in text and "emp_odd_mean" not in text
        assert "left out emp_odd_mean" in capsys.readouterr().err
        (tmp_path / "p.svg").unlink()
        assert cli_main(plot + ["--y", "emp_odd_mean", "emp_edd_mean"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("biasamp plot: ") and err.count("\n") == 1
        assert not (tmp_path / "p.svg").exists()

    def test_plot_rejects_a_column_that_is_not_numeric(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_config().to_json())
        cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path), "--theory-only"])
        flagged = tmp_path / "flagged.csv"
        flagged.write_text("psi,theory_odd,flags\n0.5,0.1,\n1.0,0.2,mc-failure\n")
        capsys.readouterr()
        out = tmp_path / "p.svg"
        for path, x, y, column in ((tmp_path / "sweep.csv", "scenario", "theory_odd", "scenario"),
                                   (flagged, "psi", "flags", "flags")):
            assert cli_main(["plot", str(path), "--x", x, "--y", y, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"biasamp plot: column {column!r} is not numeric\n"
            assert not out.exists()
        # the x column is checked first, whatever the hash seed
        assert cli_main(["plot", str(flagged), "--x", "flags", "--y", "nope"]) == 2
        assert capsys.readouterr().err == "biasamp plot: column 'flags' is not numeric\n"

    def test_plot_reports_a_missing_csv_in_one_line(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert cli_main(["plot", str(missing), "--x", "psi", "--y", "theory_odd",
                         "--out", str(tmp_path / "p.svg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"biasamp plot: cannot read {missing}: ") and err.count("\n") == 1
        assert not (tmp_path / "p.svg").exists()

    def test_plot_rejects_a_row_longer_than_its_header(self, tmp_path, capsys):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("psi,theory_odd\n0.5,0.1\n1.0,0.2,0.3\n")
        assert cli_main(["plot", str(ragged), "--x", "psi", "--y", "theory_odd",
                         "--out", str(tmp_path / "p.svg")]) == 1
        assert capsys.readouterr().err == (f"biasamp plot: {ragged} data row 2 has more cells "
                                           "than its header\n")
        assert not (tmp_path / "p.svg").exists()

    def test_plot_exit_status_tells_a_bad_file_from_a_bad_request(self, tmp_path, capsys):
        # a file it cannot use exits 1, a column it cannot plot exits 2
        empty, csv_path = tmp_path / "empty.csv", tmp_path / "one.csv"
        empty.write_text("psi,theory_odd\n")
        csv_path.write_text("psi,theory_odd\n0.5,0.1\n")
        plot = ["--x", "psi", "--out", str(tmp_path / "p.svg")]
        assert cli_main(["plot", str(empty), *plot, "--y", "theory_odd"]) == 1
        assert capsys.readouterr().err == f"biasamp plot: {empty} has no data rows\n"
        assert cli_main(["plot", str(csv_path), *plot, "--y", "nope"]) == 2
        assert capsys.readouterr().err == f"biasamp plot: column 'nope' not in {csv_path}\n"
        assert not (tmp_path / "p.svg").exists()

    def test_mp_check_small(self, capsys):
        rc = cli_main(["mp-check", "--gamma", "1.0", "--lam", "1.0",
                       "--d", "300", "--seed", "0"])
        assert rc == 0
        assert "fixed point" in capsys.readouterr().out

    def test_validate_quick(self, capsys):
        assert cli_main(["validate", "quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_validate_fig2_prints_each_check_and_a_summary(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "SIMULATION_CASES", cli.SIMULATION_CASES[:1])
        rc = cli_main(["validate", "fig2", "--replicates", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith(("PASS  rp phi=0.5 psi=0.05 ", "FAIL  rp phi=0.5 psi=0.05 "))
                   for line in lines[:4])
        summary = re.fullmatch(r"fig2: 4 checks, (\d+) beyond 3 SE, largest \|z\| .+",
                               lines[4])
        beyond = int(summary.group(1))
        assert beyond == sum(line.startswith("FAIL") for line in lines[:4])
        assert rc == (1 if beyond else 0)

    def test_validate_fig2_fails_an_exact_mean_off_theory(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "SIMULATION_CASES", cli.SIMULATION_CASES[:1])
        exact = sim.SummaryStat(mean=5.0, std=0.0, count=3)
        monkeypatch.setattr(cli, "monte_carlo", lambda populations, replicates: [
            [sim.MonteCarloReport({k: exact for k in sim.QUANTITIES})]])
        assert cli_main(["validate", "fig2", "--replicates", "3"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 4 and out.count("z=+inf") == 4
        assert "4 beyond 3 SE" in out

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
