"""Presets, config parsing, CLI subcommands, reports and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from admbondi import jets
from admbondi.bondi import check_polar_news_average, check_psi_periodicity
from admbondi.cli import main, parse_config
from admbondi.errors import ConfigError
from admbondi.reports import report_json
from admbondi.scenarios import (PRESETS, ScenarioConfig, harmonic_basis,
                                harmonic_news, make_expansion, make_metric)


# -- presets -------------------------------------------------------------------

def test_all_presets_resolve():
    for name in PRESETS:
        cfg = ScenarioConfig(preset=name)
        if name in ("minkowski", "schwarzschild", "kerr"):
            make_metric(cfg)
        make_expansion(cfg)


def test_presets_satisfy_conditions():
    for name in ("bondi-schwarzschild", "bondi-quadrupole", "bondi-biaxial"):
        exp = make_expansion(ScenarioConfig(preset=name))
        assert check_psi_periodicity(exp) <= 1e-10, name
        assert check_polar_news_average(exp) <= 1e-8, name


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig(preset="wormhole").validate()


# -- harmonic news ----------------------------------------------------------------

def test_harmonic_basis_m0_vanishes_at_poles():
    for l in (2, 3, 4):
        for th in (1e-7, np.pi - 1e-7):
            v = float(harmonic_basis(l, 0, th, 0.3))
            assert abs(v) <= 1e-10, (l, th)


def test_harmonic_news_interpolation_and_derivative():
    table = {"u_grid": np.linspace(0.0, 2.0, 9),
             (2, 0): 0.3 * np.linspace(0.0, 2.0, 9) ** 2}
    c = harmonic_news(table)
    th, ps = 1.1, 0.4
    basis = float(harmonic_basis(2, 0, th, ps))
    u0 = 0.77
    uj, thj, psj = jets.seed([u0, th, ps], order=1)
    val = c(uj, thj, psj)
    assert jets.value(val) == pytest.approx(0.3 * u0 ** 2 * basis, rel=1e-10)
    assert jets.value(val.d[0]) == pytest.approx(0.6 * u0 * basis, rel=1e-8)


def test_harmonic_table_condition_b_auto():
    from admbondi.bondi import BondiExpansion
    table = {"u_grid": [0.0, 1.0], (2, 0): [0.1, 0.2]}
    c = harmonic_news(table)
    exp = BondiExpansion(c=c, d=lambda u, th, ps: 0.0 * u,
                         M=lambda u, th, ps: 1.0 + 0.0 * u)
    assert check_polar_news_average(exp) <= 1e-8


def test_harmonic_rows_validated():
    with pytest.raises(ConfigError):
        harmonic_news({"u_grid": [0.0, 1.0], (2, 0): [0.1]})
    with pytest.raises(ConfigError):
        harmonic_basis(7, 0, 1.0, 0.0)


# -- config parsing ----------------------------------------------------------------

GOOD = """
# scenario
preset = kerr
[parameters]
mass = 2.0
spin = 0.3
[grid]
n_theta = 16
n_psi = 32
[ladder]
radii = 10, 20, 40
"""


def test_parse_config_good():
    cfg, prov = parse_config(GOOD)
    assert cfg.preset == "kerr"
    assert cfg.mass == 2.0 and cfg.spin == 0.3
    assert cfg.n_theta == 16
    assert cfg.radii == (10.0, 20.0, 40.0)
    assert prov["mass"] == "config"
    assert prov["du"] == "default"


def test_parse_config_minimal_defaults():
    cfg, prov = parse_config("preset = minkowski\n")
    assert cfg.preset == "minkowski"
    assert cfg.n_theta == 48 and cfg.n_psi == 96
    assert all(v == "default" for k, v in prov.items() if k != "preset")


def test_parse_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("preset = kerr\n[parameters]\nmess = 1.0\n")


def test_parse_config_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[weird]\nx = 1\n")


def test_parse_config_bad_ladder_rejected():
    with pytest.raises(ConfigError, match="increasing"):
        parse_config("preset = kerr\n[ladder]\nradii = 80, 40\n")


def test_parse_config_news_table():
    text = """
preset = bondi-quadrupole
[news_table]
u_grid = 0, 1, 2
c_2_0 = 0.0, 0.1, 0.2
"""
    cfg, _ = parse_config(text)
    assert cfg.news_table is not None
    exp = make_expansion(cfg)
    assert check_polar_news_average(exp) <= 1e-8


def test_parse_config_bad_table_key():
    with pytest.raises(ConfigError, match="c_<l>_<m>"):
        parse_config("[news_table]\nu_grid = 0, 1\nq_2_0 = 0, 1\n")


# -- CLI ---------------------------------------------------------------------------

def run_cli(args):
    return main(args)


def test_cli_adm_schwarzschild(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli(["adm", "--preset", "schwarzschild", "--ntheta", "24",
                    "--npsi", "48", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "all 5 checks passed" in text
    body = json.loads(out.read_text())
    assert body["schema_version"] == 1
    assert abs(body["charges"]["E"] - 1.0) <= 1e-2
    assert body["passed"] is True
    # every flag is recomputable from numbers in the same report
    for c in body["checks"]:
        if c["name"] == "adm.energy_matches_preset_mass":
            assert (abs(c["value"]) <= c["tolerance"]) == c["passed"]


def test_cli_bondi_evolve_csv(tmp_path):
    csv = tmp_path / "t.csv"
    code = run_cli(["bondi-evolve", "--preset", "bondi-quadrupole",
                    "--u0", "0", "--u1", "1", "--du", "0.05",
                    "--ntheta", "16", "--npsi", "32", "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "u,m0,m1,m2,m3,F0,F1,F2,F3,margin,dmargin_du"
    assert len(lines) == 22


def test_cli_null_order_gate_failure(capsys):
    # a slice with nonvanishing news has order ~1 and must fail the gate
    code = run_cli(["null", "--preset", "bondi-biaxial",
                    "--ntheta", "16", "--npsi", "32",
                    "--radii", "30,45,70,110"])
    assert code == 1
    err = capsys.readouterr().err
    assert "null.order_gate" in err


def test_cli_bad_config_diagnostic(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("preset = kerr\n[parameters]\nmess = 1\n")
    code = run_cli(["adm", "--config", str(cfgfile)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["mass", "spin", "amplitude", "amplitude_d"])
def test_non_finite_parameters_rejected(name):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=name):
            ScenarioConfig(**{name: bad}).validate()


def test_cli_adm_nan_mass_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "nan.cfg"
    cfgfile.write_text("preset = schwarzschild\n[parameters]\nmass = nan\n")
    code = run_cli(["adm", "--config", str(cfgfile), "--ntheta", "16",
                    "--npsi", "32"])
    assert code == 2
    assert "mass must be finite" in capsys.readouterr().err


def test_cli_reports_deterministic(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("preset = schwarzschild\n[grid]\nn_theta = 16\n"
                       "n_psi = 32\n")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        assert run_cli(["adm", "--config", str(cfgfile), "--out", str(out)]) == 0
        body = json.loads(out.read_text())
        body.pop("metadata")
        outs.append(json.dumps(body, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_threads_env_does_not_change_results(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("preset = schwarzschild\n[grid]\nn_theta = 16\n"
                       "n_psi = 32\n")
    # The child finds admbondi through the absolute src/ of this checkout,
    # so neither an install nor the working directory matters.
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    bodies = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}.json"
        env = dict(os.environ, CHARGES_THREADS=threads, PYTHONPATH=pythonpath)
        # A deadlock in the threaded path fails here instead of hanging.
        proc = subprocess.run(
            [sys.executable, "-m", "admbondi.cli", "adm", "--config",
             str(cfgfile), "--out", str(out)],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        body = json.loads(out.read_text())
        body.pop("metadata")
        # One rung would skip the pool and make the comparison vacuous.
        assert len(body["samples"]["radii"]) > 1, body["samples"]["radii"]
        bodies.append(json.dumps(body, sort_keys=True))
    assert bodies[0] == bodies[1]


def test_cli_converge(tmp_path):
    code = run_cli(["converge", "--preset", "schwarzschild",
                    "--ntheta", "12", "--npsi", "24", "--csv",
                    str(tmp_path / "c.csv")])
    assert code == 0
    text = (tmp_path / "c.csv").read_text()
    assert text.startswith("quantity,coarse,fine,delta")


def test_cli_adm_rejects_radiating_preset(capsys):
    code = run_cli(["adm", "--preset", "bondi-quadrupole"])
    assert code == 2
    assert "not asymptotically flat" in capsys.readouterr().err


def test_report_json_contains_metadata_block():
    text = report_json({"x": 1})
    body = json.loads(text)
    assert "metadata" in body and "generated_at" in body["metadata"]
    text2 = report_json({"x": 1}, include_metadata=False)
    assert "metadata" not in json.loads(text2)


def test_cli_verify_battery(tmp_path, capsys):
    out = tmp_path / "battery.json"
    code = run_cli(["verify", "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert len(body["checks"]) >= 20
    assert body["passed"] is True
    text = capsys.readouterr().out
    assert text.count("[PASS]") >= 20
