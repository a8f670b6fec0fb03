"""Presets, config parsing, CLI subcommands, reports and determinism."""

import dataclasses
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import admbondi
from admbondi import jets
from admbondi.bondi import BondiExpansion
from admbondi.cli import main, parse_config
from admbondi.errors import ConfigError
from admbondi.ladder import DecayFit, LadderFit
from admbondi.reports import COMPARATORS, CheckResult, jsonable, report_json
from admbondi.scenarios import (BONDI_PRESETS, CONFIG_SCHEMA, PRESETS,
                                ScenarioConfig, harmonic_basis, harmonic_news,
                                make_expansion, make_grid, make_metric)


# -- presets -------------------------------------------------------------------

def test_all_presets_resolve():
    for name in PRESETS:
        cfg = ScenarioConfig(preset=name)
        if name in ("minkowski", "schwarzschild", "kerr"):
            make_metric(cfg)
        if name == "kerr":
            # the zero-news expansion would drop the spin
            with pytest.raises(ConfigError, match="no radiating expansion"):
                make_expansion(cfg)
        else:
            make_expansion(cfg)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig(preset="wormhole")


def test_scenario_config_is_valid_by_construction():
    """A config cannot be changed in place, and a changed copy is checked
    like a new one."""
    import dataclasses
    cfg = ScenarioConfig(preset="bondi-quadrupole")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.mass = float("nan")
    with pytest.raises(ConfigError, match="mass must be finite"):
        dataclasses.replace(cfg, mass=float("nan"))
    with pytest.raises(ConfigError, match="row c_2_0 length mismatch"):
        ScenarioConfig(news_table={"u_grid": [0.0, 1.0], (2, 0): [0.1]})


# -- Bondi's conditions, met by construction ---------------------------------------
# Every expansion the CLI builds is 2 pi-periodic in psi (integer-m psi
# factors) and has a news c whose psi-average vanishes at both poles (preset
# sin^2 theta factors, pole-regular harmonic basis); these tests check the
# construction instead of a run-time check that could never fail.

def _zero(u, th, ps):
    return 0.0 * u


def _order2(x, leaf):
    """An order-2 jet over (u, theta, psi), or a constant, as one array:
    value, gradient and Hessian stacked over the leaf."""
    if not isinstance(x, jets.Jet):
        x = jets.Jet(x, [0.0] * 3, [[0.0] * 3] * 3)
    entries = [x.f, *x.d, *(e for row in x.dd for e in row)]
    return np.stack([np.broadcast_to(e, leaf) for e in entries])


def psi_mismatch(fn):
    """Largest difference of fn's value, gradient and Hessian at psi = 0 and
    2 pi, over u = 0, 1 and theta = 0.7, 1.3, 2.3 (NaN stays NaN)."""
    u = np.repeat([0.0, 1.0], 3)
    th = np.tile([0.7, 1.3, 2.3], 2)
    a, b = (_order2(fn(*jets.seed([u, th, np.full_like(u, ps)], order=2)),
                    u.shape) for ps in (0.0, 2.0 * np.pi))
    return np.max(np.abs(a - b))


def polar_average(c):
    """Largest |psi-average of c| at the poles theta = 0 and pi, over
    u = 0, 0.5, 1 and 64 psi nodes."""
    ps = np.arange(64) * (2.0 * np.pi / 64)
    return np.max([abs(np.mean(jets.value(c(np.full_like(ps, u),
                                            np.full_like(ps, pole), ps))
                               + 0.0 * ps))
                   for u in (0.0, 0.5, 1.0) for pole in (0.0, np.pi)])


def _expansion_conditions(exp):
    fields = (exp.c, exp.d, exp.M, exp.N, exp.P, exp.C, exp.H)
    return np.max([psi_mismatch(fn) for fn in fields]), polar_average(exp.c)


def test_presets_satisfy_conditions():
    for name in BONDI_PRESETS:
        periodic, polar = _expansion_conditions(
            make_expansion(ScenarioConfig(preset=name)))
        assert periodic <= 1e-10, name
        assert polar <= 1e-12, name


def test_every_harmonic_mode_satisfies_conditions():
    modes = [(l, m) for l in range(1, 5) for m in range(-l, l + 1)
             if (l, m) != (1, 0)]
    for l, m in modes:
        def basis(u, th, ps):
            return harmonic_basis(l, m, th, ps) + 0.0 * u
        assert psi_mismatch(basis) <= 1e-10, (l, m)
        assert polar_average(basis) <= 1e-12, (l, m)
    with pytest.raises(ConfigError):
        harmonic_basis(1, 0, 1.0, 0.0)


def test_condition_helpers_reject_violations():
    def psi_linear(u, th, ps):
        return 0.1 * jets.sin(th) ** 2 * (ps / (2 * np.pi)) + 0.0 * u

    def polar_constant(u, th, ps):
        return 0.1 + 0.0 * u
    assert psi_mismatch(psi_linear) > 1e-3
    assert polar_average(polar_constant) > 0.05

    def nan_south(u, th, ps):  # NaN at theta > 2 and psi > 3 only
        south = (jets.value(th) > 2.0) & (jets.value(ps) > 3.0)
        return np.where(south, np.nan, 0.0) + 0.0 * u
    assert np.isnan(psi_mismatch(nan_south))
    assert np.isnan(polar_average(nan_south))


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
    table = {"u_grid": [0.0, 1.0], (2, 0): [0.1, 0.2]}
    c = harmonic_news(table)
    exp = BondiExpansion(c=c, d=_zero, M=lambda u, th, ps: 1.0 + 0.0 * u)
    periodic, polar = _expansion_conditions(exp)
    assert periodic <= 1e-10 and polar <= 1e-12


def test_harmonic_rows_validated():
    with pytest.raises(ConfigError, match="row c_2_0 length mismatch"):
        harmonic_news({"u_grid": [0.0, 1.0], (2, 0): [0.1]})
    with pytest.raises(ConfigError, match="row c_7_0: supported modes"):
        harmonic_news({"u_grid": [0.0, 1.0], (7, 0): [0.1, 0.2]})
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
    """Unset grid fields are None, and make_grid gives (24, 48) to adm runs
    and (48, 96) to every other kind."""
    cfg, prov = parse_config("preset = minkowski\n")
    assert cfg.preset == "minkowski"
    assert cfg.n_theta is None and cfg.n_psi is None
    assert make_grid(cfg, "adm").shape == (24, 48)
    for kind in ("null", "slice", "evolve"):
        assert make_grid(cfg, kind).shape == (48, 96)
    assert all(v == "default" for k, v in prov.items() if k != "preset")


def test_config_schema_names_every_field():
    """Each config key sets the ScenarioConfig field of its name, and every
    field but the news table has exactly one key."""
    import dataclasses
    names = [key for section in CONFIG_SCHEMA.values() for key in section]
    fields = [f.name for f in dataclasses.fields(ScenarioConfig)]
    assert sorted(names) == sorted(set(fields) - {"news_table"})
    _, prov = parse_config("")
    assert sorted(prov) == sorted(fields)


def test_readme_config_is_the_preset_runs_config():
    """The README's first ini block is the null.cfg of
    tools/preset_bodies.py, and it sets every key but spin."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "preset_bodies", root / "tools" / "preset_bodies.py")
    preset_bodies = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(preset_bodies)
    readme = (root / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert block == preset_bodies.NULL_CFG
    _, prov = parse_config(block)
    assert {k for k, v in prov.items() if v == "default"} == {"spin",
                                                              "news_table"}


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
    periodic, polar = _expansion_conditions(make_expansion(cfg))
    assert periodic <= 1e-10 and polar <= 1e-12


def test_parse_config_bad_table_key():
    with pytest.raises(ConfigError, match="line 3: news_table keys look like "
                       "c_<l>_<m>"):
        parse_config("[news_table]\nu_grid = 0, 1\nq_2_0 = 0, 1\n")


@pytest.mark.parametrize("rows, match", [
    ("u_grid = 0, 1\nc_2_x = 0, 1\n", "'c_2_x'"),
    ("u_grid = 0, 1\nc_2 = 0, 1\n", "'c_2'"),
    ("u_grid = 0, 1\nc_2_0 = 0, x\n", "row c_2_0"),
    ("u_grid = 0, x\nc_2_0 = 0, 1\n", "row u_grid"),
    ("u_grid = 0, 2, 1\nc_2_0 = 0, 1, 2\n", "row u_grid must be .*increasing"),
    ("u_grid = 0, 1, 1\nc_2_0 = 0, 1, 2\n", "row u_grid must be .*increasing"),
    ("u_grid = 0, nan, 2\nc_2_0 = 0, 1, 2\n", "row u_grid must be finite"),
    ("u_grid = 0, 1, 2\nc_2_0 = 0.0, nan, 0.1\n", "row c_2_0 must be finite"),
    ("u_grid = 0, 1, 2\nc_3_1 = 0.0, 0.1, inf\n", "row c_3_1 must be finite"),
    ("c_2_0 = 0, 1\n", "needs a u_grid row"),
    ("u_grid =\nc_2_0 =\n", "needs a u_grid row"),
])
def test_parse_config_bad_table_rows(rows, match):
    with pytest.raises(ConfigError, match=match):
        parse_config("preset = bondi-quadrupole\n[news_table]\n" + rows)


@pytest.mark.parametrize("key", ["c_7_0", "c_1_0", "c_2_3", "c_3_-4"])
def test_parse_config_rejects_unsupported_table_modes(key):
    """A mode harmonic_basis cannot evaluate stops the parse and names the
    key as written, not a run that is already under way."""
    with pytest.raises(ConfigError, match=f"news_table row {key}: supported "
                       r"modes are l <= 4 and \|m\| <= l, and m = 0 needs"):
        parse_config("preset = bondi-quadrupole\n[news_table]\n"
                     f"u_grid = 0, 1, 2\n{key} = 0, 0.1, 0.2\n")


@pytest.mark.parametrize("text, match", [
    ("mass = 1.0\n", "line 4: key 'mass' repeats line 3"),
    ("[grid]\nn_theta = 8\n[parameters]\nmass = 2.0\n",
     "line 7: key 'mass' repeats line 3"),
    ("[news_table]\nu_grid = 0, 1, 2\nc_2_0 = 0, 0.1, 0.2\n"
     "c_02_0 = 0, 0.3, 0.6\n", "line 7: key 'c_02_0' repeats line 6"),
    ("[news_table]\nu_grid = 0, 1, 2\nu_grid = 0, 1, 3\n",
     "line 6: key 'u_grid' repeats line 5"),
], ids=["same-section", "section-reopened", "same-mode", "u_grid"])
def test_parse_config_rejects_a_repeated_key(text, match):
    """A key set twice, or two news_table keys of one mode, stop the parse
    with both line numbers instead of keeping the last value."""
    with pytest.raises(ConfigError, match=match):
        parse_config("preset = bondi-quadrupole\n[parameters]\nmass = 1.0\n"
                     + text)


_SECTIONS = sorted(set(CONFIG_SCHEMA) - {""}) + ["news_table", "weird"]
_TABLE_KEYS = ["u_grid", "c_2_0", "c_3_1", "c_2_x", "c_9_0", "c_2"]
_VALUES = ["1.0", "0", "-1", "2", "48", "3.5", "10, 20, 40", "80, 40",
           "0, 1, 2", "0.0, 0.1", "1,,2", "", "nan", "inf", "-inf", "1e999",
           "kerr", "minkowski", "bondi-biaxial", "tilted", "constant", "x",
           "[", "=", "# note"]


def _entries(section):
    keys = sorted(CONFIG_SCHEMA.get(section, ())) or _TABLE_KEYS
    entry = st.builds("{} = {}".format, st.sampled_from(keys),
                      st.sampled_from(_VALUES) | st.text(max_size=12))
    return st.lists(entry, max_size=4)


def _config_text():
    """A top-level block, then sections of the schema's keys with good and
    bad values; now and then a line of free text."""
    section = st.sampled_from(_SECTIONS).flatmap(
        lambda s: _entries(s).map(lambda lines: [f"[{s}]"] + lines))
    free = st.lists(st.text(max_size=24), min_size=1, max_size=2)
    blocks = st.lists(section | section | free, max_size=5)
    return st.builds(lambda top, bs: "\n".join(top + sum(bs, [])),
                     _entries(""), blocks)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=_config_text())
def test_parse_config_raises_only_config_errors(text):
    """Fuzzed config text either parses or stops with ConfigError."""
    try:
        parse_config(text)
    except ConfigError:
        pass


def test_strict_knob_is_gone(capsys):
    """The removed knobs strict and tolerance_scale, and their [checks]
    section, are rejected wherever they are written."""
    for key in ("strict = true", "tolerance_scale = 1000"):
        with pytest.raises(ConfigError,
                           match=r"line 2: unknown section \[checks\]"):
            parse_config(f"preset = kerr\n[checks]\n{key}\n")
    with pytest.raises(ConfigError,
                       match="line 2: unknown key 'tolerance_scale'"):
        parse_config("preset = kerr\ntolerance_scale = 1000\n")
    for argv in (["adm", "--strict"], ["adm", "--tolerance-scale", "1000"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" \
            in capsys.readouterr().err


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
    assert body["schema_version"] == 2
    assert abs(body["charges"]["E"] - 1.0) <= 1e-2
    assert body["passed"] is True


def test_cli_bondi_evolve_csv(tmp_path):
    csv = tmp_path / "t.csv"
    code = run_cli(["bondi-evolve", "--preset", "bondi-quadrupole",
                    "--u0", "0", "--u1", "1", "--du", "0.05",
                    "--ntheta", "16", "--npsi", "32", "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "u,m0,m1,m2,m3,F0,F1,F2,F3,margin,dmargin_du"
    assert len(lines) == 22


def test_cli_bondi_evolve_starts_at_u0(tmp_path):
    csv, out = tmp_path / "t.csv", tmp_path / "r.json"
    assert run_cli(["bondi-evolve", "--preset", "bondi-quadrupole",
                    "--u0", "3", "--u1", "5", "--du", "0.5", "--ntheta", "8",
                    "--npsi", "16", "--csv", str(csv), "--out", str(out)]) == 0
    rows = csv.read_text().strip().split("\n")[1:]
    assert [float(r.split(",")[0]) for r in rows] == [3.0, 3.5, 4.0, 4.5, 5.0]
    assert json.loads(out.read_text())["samples"]["u"] == [3.0, 5.0]
    # a start at or past the end is an empty range, not a silent default
    assert run_cli(["bondi-evolve", "--preset", "bondi-quadrupole",
                    "--u0", "5", "--u1", "5", "--ntheta", "8",
                    "--npsi", "16"]) == 2


def test_cli_null_order_gate_failure(capsys):
    # a slice with nonvanishing news has order ~1 and must fail the gate
    code = run_cli(["null", "--preset", "bondi-biaxial",
                    "--ntheta", "16", "--npsi", "32",
                    "--radii", "30,45,70,110"])
    assert code == 1
    err = capsys.readouterr().err
    assert "null.order_gate" in err


@pytest.mark.parametrize("argv, ladder", [
    (["null", "--preset", "bondi-biaxial", "--radii", "30,45,70"],
     "[30.0, 45.0, 70.0]"),
    (["converge", "--preset", "kerr", "--radii", "10,20,40"],
     "[10.0, 20.0, 40.0]"),
    (["adm", "--preset", "kerr", "--radii", "10,20,40"],
     "[10.0, 20.0, 40.0]"),
    (["bondi-slice", "--preset", "bondi-biaxial", "--radii", "50,100,200"],
     "[50.0, 100.0, 200.0]")])
def test_cli_three_rung_ladder_exits_2(monkeypatch, capsys, argv, ladder):
    # the order gate fits 4 rungs and would pass with no fits at all; a
    # 3-coefficient fit on 3 rungs leaves converge no residual to scale by.
    # The ladder is checked before any rung is evaluated.
    def evaluated(*args, **kwargs):
        raise AssertionError("a rung was evaluated before the ladder check")
    monkeypatch.setattr("admbondi.adm.adm_energy_momentum", evaluated)
    monkeypatch.setattr("admbondi.bondi.expansion_consistency", evaluated)
    assert run_cli(argv + ["--ntheta", "8", "--npsi", "16"]) == 2
    assert f"radius ladder {ladder} needs >= 4 rungs, got 3" \
        in capsys.readouterr().err


@pytest.mark.parametrize("radii", ["-80,-40,-20,-10", "0,10,20,40",
                                   "10,20,40,inf"])
@pytest.mark.parametrize("command, preset", [
    ("adm", "kerr"), ("null", "bondi-biaxial"), ("bondi-slice", "bondi-biaxial")])
def test_cli_rung_not_finite_and_positive_exits_2(monkeypatch, capsys, command,
                                                  preset, radii):
    # a negative ladder used to end in an uncaught LinAlgError (exit 1) and a
    # zero rung in a non-finite sup-norm; both are now rejected up front
    def evaluated(*args, **kwargs):
        raise AssertionError("a rung was evaluated before the ladder check")
    for target in ("adm.adm_energy_momentum", "bondi.expansion_consistency",
                   "nullcharges.null_energy_momentum"):
        monkeypatch.setattr(f"admbondi.{target}", evaluated)
    assert run_cli([command, "--preset", preset, f"--radii={radii}",
                    "--ntheta", "8", "--npsi", "16"]) == 2
    ladder = [float(r) for r in radii.split(",")]
    assert f"radius ladder {ladder}: every rung must be finite and positive" \
        in capsys.readouterr().err


def test_cli_bad_config_diagnostic(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("preset = kerr\n[parameters]\nmess = 1\n")
    code = run_cli(["adm", "--config", str(cfgfile)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("c_2_x = 0, 0.1, 0.2", "keys look like c_<l>_<m>, got 'c_2_x'"),
    ("c_2_0 = 0, 0.1, 0.2\nu_grid = 0, 2, 1",
     "row u_grid must be finite and strictly increasing"),
    ("c_2_0 = 0.0, nan, 0.1", "news_table row c_2_0 must be finite"),
])
def test_cli_bad_news_table_exits_2(tmp_path, capsys, row, message):
    cfgfile = tmp_path / "table.cfg"
    grid = "" if "u_grid" in row else "u_grid = 0, 1, 2\n"
    cfgfile.write_text(f"preset = bondi-quadrupole\n[news_table]\n{grid}{row}\n")
    code = run_cli(["bondi-evolve", "--config", str(cfgfile), "--u1", "1",
                    "--du", "0.1", "--ntheta", "8", "--npsi", "16"])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["mass", "spin", "amplitude", "amplitude_d"])
def test_non_finite_parameters_rejected(name):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=name):
            ScenarioConfig(**{name: bad})


# (section, key, the ScenarioConfig field the error names): each key sets
# the field of its own name
_FLOAT_KEYS = [(section, key, key) for section, keys in CONFIG_SCHEMA.items()
               for key, parse in keys.items() if parse is float]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key, attr", _FLOAT_KEYS)
def test_parse_config_rejects_non_finite_floats(section, key, attr, bad):
    text = f"preset = bondi-quadrupole\n[{section}]\n{key} = {bad}\n"
    with pytest.raises(ConfigError, match=f"{attr} must be finite"):
        parse_config(text)


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("flag, attr", [
    ("--u0", "u0"), ("--u1", "u_end"), ("--du", "du")])
def test_cli_non_finite_flag_exits_2(capsys, flag, attr, bad):
    code = run_cli(["adm", "--preset", "schwarzschild", flag, bad,
                    "--ntheta", "8", "--npsi", "16"])
    assert code == 2
    assert f"{attr} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    (["--ntheta", "0", "--npsi", "8"], "n_theta must be an integer >= 2, got 0"),
    (["--ntheta", "8", "--npsi", "0"], "n_psi must be an even integer >= 4, got 0")])
def test_cli_zero_grid_flag_exits_2(capsys, grid, message):
    assert run_cli(["null", "--preset", "minkowski", *grid]) == 2
    assert message in capsys.readouterr().err


def test_cli_malformed_radii_exits_2(capsys):
    assert run_cli(["null", "--preset", "minkowski", "--radii", "1,abc"]) == 2
    assert "bad value for --radii" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["null", "bondi-slice", "bondi-evolve"])
def test_cli_kerr_has_no_radiating_expansion(capsys, command):
    """The radiating commands stop on kerr instead of reporting the charges
    of the spinless zero-news expansion under the name "kerr"."""
    assert run_cli([command, "--preset", "kerr"]) == 2
    assert "preset 'kerr' has no radiating expansion" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["null", "bondi-slice", "bondi-evolve",
                                     "adm", "converge"])
@pytest.mark.parametrize("preset", ["kerr", "schwarzschild", "minkowski"])
def test_cli_news_table_needs_a_bondi_preset(tmp_path, capsys, command,
                                             preset):
    """A news table under a preset that has no news of its own stops every
    command that builds the preset, instead of running the table (or
    ignoring it) under that preset's name."""
    cfgfile = tmp_path / "table.cfg"
    cfgfile.write_text(f"preset = {preset}\n[news_table]\n"
                       "u_grid = 0, 1, 2\nc_2_0 = 0, 0, 0\n")
    assert run_cli([command, "--config", str(cfgfile), "--ntheta", "8",
                    "--npsi", "16"]) == 2
    assert f"preset {preset!r} takes no [news_table]" \
        in capsys.readouterr().err


def test_cli_news_table_takes_its_preset_from_the_flag(tmp_path):
    """A table file without a preset runs under a bondi-* --preset, so the
    table-needs-a-bondi-preset rule is checked on the config the flags
    leave, not on the file alone."""
    cfgfile = tmp_path / "table.cfg"
    cfgfile.write_text("[news_table]\nu_grid = 0, 1, 2\nc_2_0 = 0, 0.1, 0.2\n")
    assert run_cli(["bondi-evolve", "--config", str(cfgfile), "--preset",
                    "bondi-quadrupole", "--u1", "1", "--du", "0.1",
                    "--ntheta", "8", "--npsi", "16"]) == 0


@pytest.mark.parametrize("table, scenario", [
    ("", "bondi-quadrupole"),
    ("[news_table]\nu_grid = 0, 1, 2\nc_2_0 = 0, 0.1, 0.2\n",
     "bondi-quadrupole-table")], ids=["preset", "table"])
def test_cli_report_names_the_news_that_ran(tmp_path, table, scenario):
    """A news table replaces the preset's news, and the report says so."""
    cfgfile, out = tmp_path / "q.cfg", tmp_path / "r.json"
    cfgfile.write_text("preset = bondi-quadrupole\n" + table)
    assert run_cli(["bondi-evolve", "--config", str(cfgfile), "--u1", "1",
                    "--du", "0.1", "--ntheta", "8", "--npsi", "16",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scenario"] == scenario


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


def test_cli_converge(tmp_path):
    code = run_cli(["converge", "--preset", "schwarzschild",
                    "--ntheta", "12", "--npsi", "24", "--csv",
                    str(tmp_path / "c.csv")])
    assert code == 0
    text = (tmp_path / "c.csv").read_text()
    assert text.startswith("quantity,coarse,fine,delta")


def _report(tmp_path, args):
    """The report body of a run that exits 0."""
    out = tmp_path / "r.json"
    assert run_cli(args + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("command", ["adm", "converge"])
@pytest.mark.parametrize("source, args, grid", [
    ("default", [], [24, 48]),
    ("config", ["--config", "{cfg}"], [12, 24]),
    ("flags", ["--ntheta", "12", "--npsi", "24"], [12, 24]),
    # each field is configured or defaulted on its own
    ("one flag", ["--ntheta", "12"], [12, 48]),
])
def test_cli_adm_grid_is_the_configured_one(tmp_path, command, source, args,
                                            grid):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("preset = kerr\n[grid]\nn_theta = 12\nn_psi = 24\n")
    body = _report(tmp_path, [command, "--preset", "kerr"]
                   + [a.format(cfg=cfg) for a in args])
    assert body["samples"]["grid"] == grid
    if command == "converge":
        # the fine grid doubles the grid the run used
        assert body["samples"]["fine_grid"] == [2 * n for n in grid]


@pytest.mark.parametrize("args", [
    ["null", "--preset", "bondi-quadrupole"],
    ["bondi-slice", "--preset", "bondi-biaxial"],
    ["bondi-evolve", "--preset", "bondi-quadrupole", "--u1", "0.1"],
])
def test_cli_null_runs_keep_the_48x96_grid(tmp_path, args):
    assert _report(tmp_path, args)["samples"]["grid"] == [48, 96]


def _body(path):
    """A written report body without its metadata block."""
    body = json.loads(Path(path).read_text())
    body.pop("metadata")
    return body


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """``main`` parses every call with one cached parser: a flag of one call
    does not reach the next, and neither does a call that exits 2."""
    kerr = ["adm", "--preset", "kerr"]
    out = str(tmp_path / "r.json")
    assert run_cli(kerr + ["--ntheta", "8", "--npsi", "16", "--out", out]) == 0
    assert _body(out)["samples"]["grid"] == [8, 16]
    assert run_cli(kerr + ["--out", out]) == 0
    assert _body(out)["samples"]["grid"] == [24, 48]

    assert run_cli(kerr + ["--ntheta", "0", "--out", out]) == 2
    assert "n_theta must be an integer >= 2" in capsys.readouterr().err
    assert run_cli(kerr + ["--out", out]) == 0
    fresh = str(tmp_path / "fresh.json")
    # the package this test imported, run in a new interpreter
    src = str(Path(admbondi.__file__).parents[1])
    subprocess.run([sys.executable, "-m", "admbondi.cli", *kerr,
                    "--out", fresh], env=dict(os.environ, PYTHONPATH=src),
                   check=True, capture_output=True)
    assert _body(out) == _body(fresh)


def test_cli_adm_rejects_radiating_preset(capsys):
    code = run_cli(["adm", "--preset", "bondi-quadrupole"])
    assert code == 2
    assert "not asymptotically flat" in capsys.readouterr().err


def test_cli_adm_config_with_radiating_preset_names_adm_presets(tmp_path,
                                                              capsys):
    cfgfile = tmp_path / "radiating.cfg"
    cfgfile.write_text("preset = bondi-biaxial\n")
    assert run_cli(["adm", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert "{ADM_PRESETS}" not in err
    for name in ("minkowski", "schwarzschild", "kerr"):
        assert name in err


def test_cli_converge_rejects_radiating_preset(monkeypatch, capsys):
    """converge has no preset check of its own: make_metric's is the one,
    and it names both commands that need it."""
    def evaluated(*args, **kwargs):
        raise AssertionError("a rung was evaluated before the preset check")
    monkeypatch.setattr("admbondi.adm.adm_ladder_samples", evaluated)
    assert run_cli(["converge", "--preset", "bondi-biaxial"]) == 2
    err = capsys.readouterr().err
    assert "not asymptotically flat" in err
    assert "for the adm and converge subcommands" in err


def test_report_json_contains_metadata_block():
    """The metadata block records when, by which tool and in which
    environment a report was written."""
    meta = json.loads(report_json({"x": 1}))["metadata"]
    assert set(meta) == {"generated_at", "tool_version", "numpy_version",
                         "python_version", "cpu_count"}
    assert meta["numpy_version"] == np.__version__
    assert meta["python_version"] == platform.python_version()
    assert meta["cpu_count"] == os.cpu_count()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _strict_loads(text):
    """json.loads that refuses the NaN, Infinity and -Infinity RFC 8259
    does not permit."""
    return json.loads(text, parse_constant=_reject_constant)


_any_float = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf])
_float_tuple = st.lists(_any_float, max_size=4).map(tuple)
_records = (
    st.builds(CheckResult, st.text(max_size=5), _any_float, _any_float,
              st.sampled_from(sorted(COMPARATORS)), st.text(max_size=5))
    | st.builds(LadderFit, _any_float, _float_tuple, _float_tuple,
                _float_tuple, _any_float, st.booleans())
    | st.builds(DecayFit, _any_float, _any_float, st.booleans(),
                _float_tuple))
_leaves = (_any_float | _any_float.map(np.float64) | st.booleans()
           | st.integers(-2 ** 40, 2 ** 40) | st.integers(-99, 99).map(np.int64)
           | st.booleans().map(np.bool_) | st.text(max_size=5) | st.none()
           | st.lists(_any_float, max_size=4).map(np.array) | _records)
_bodies = st.recursive(
    _leaves, lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=12)


def _check_read_back(x, back):
    """Walk a value and its strict-JSON reading side by side: a finite
    number reads back equal, a non-finite one as "nan", "inf" or "-inf", and
    a check's flag recomputes from what was written of it."""
    if isinstance(x, CheckResult):
        assert back["passed"] == COMPARATORS[back["comparator"]](
            float(back["value"]), float(back["tolerance"]))
    if dataclasses.is_dataclass(x):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        assert sorted(back) == sorted(x)
        for k, v in x.items():
            _check_read_back(v, back[k])
    elif isinstance(x, (list, tuple, np.ndarray)):
        assert len(back) == len(x)
        for v, b in zip(x, back):
            _check_read_back(v, b)
    elif isinstance(x, (float, np.floating)):
        if np.isfinite(x):
            assert back == x
        else:
            assert back in ("nan", "inf", "-inf")
            assert np.array_equal(float(back), x, equal_nan=True)
    else:
        assert back == x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_bodies)
@example({"a": np.float64("nan"), "b": [np.float64("-inf")],
          "c": CheckResult("x.inf_tol", 1.0, np.inf, "value <= tolerance")})
def test_report_json_is_strict_and_reads_back_every_number(x):
    """Any nesting of dicts, sequences, numpy arrays and scalars and report
    records serialises to strict JSON that reads back to the same numbers,
    with the non-finite ones as strings."""
    back = _strict_loads(report_json({"body": x}))["body"]
    _check_read_back(x, back)
    assert back == jsonable(x)


def test_check_result_with_nan_value_fails():
    for comparator in COMPARATORS:
        nan = CheckResult("x.nan", float("nan"), 1.0, comparator)
        assert not nan.passed and not jsonable(nan)["passed"], comparator
        assert nan.line().startswith("[FAIL]")
    # +-inf compare as numbers: decay fits use inf for an exact zero
    assert CheckResult("x.inf", np.inf, 0.3, "value >= tolerance").passed
    assert not CheckResult("x.neg_inf", -np.inf, 0.3,
                           "abs(value) <= tolerance").passed
    # the set of pass rules is closed
    with pytest.raises(KeyError):
        CheckResult("x.unknown", 0.0, 1.0, "value == tolerance")


def test_fd_oracle_keeps_a_nan():
    from admbondi.geometry import Metric4Evaluator
    from admbondi.verify import _fd_check_metric

    def fn(c):
        return [[np.nan + 0.0 * c[1] if a == b else 0.0 for b in range(4)]
                for a in range(4)]
    ev = Metric4Evaluator(fn, "polar", "nan-metric")
    assert np.isnan(_fd_check_metric(ev, [(0.0, 5.0, 1.0, 1.0)]))

    # NaN components at r = 5 only, among points where the check reads 0
    def one_bad(c):
        diag = np.where(np.asarray(jets.value(c[1])) == 5.0, np.nan, 1.0)
        return [[diag + 0.0 * c[1] if a == b else 0.0 for b in range(4)]
                for a in range(4)]
    ev = Metric4Evaluator(one_bad, "polar", "one-nan-point")
    good = [(0.0, 4.0, 1.0, 1.0), (0.5, 6.0, 1.2, 2.0), (-0.5, 7.0, 0.8, 3.0)]
    assert _fd_check_metric(ev, good) == 0.0
    assert np.isnan(_fd_check_metric(ev, good[:2] + [(0.2, 5.0, 1.1, 0.4)]
                                     + good[2:]))


def test_cli_verify_battery(battery_run):
    assert battery_run.code == 0
    body = battery_run.body
    assert len(body["checks"]) >= 20
    assert body["passed"] is True
    # main is the one printer: one status line per recorded check
    lines = battery_run.stdout.splitlines()
    assert sum(line.startswith(("[PASS]", "[FAIL]")) for line in lines) \
        == len(body["checks"])


def _recomputed(check):
    """The flag of a recorded check, recomputed from its value, tolerance and
    comparator; float() parses the "inf" and "nan" a report writes."""
    return COMPARATORS[check["comparator"]](float(check["value"]),
                                            float(check["tolerance"]))


def test_every_recorded_flag_recomputes_from_its_comparator(tmp_path,
                                                            battery_run):
    """Every check of the battery and of a small run of each other
    subcommand: the recorded flag is the recorded comparator applied to the
    recorded value and tolerance."""
    small = ["--ntheta", "8", "--npsi", "16"]
    runs = {
        "adm": (["adm", "--preset", "kerr"] + small, 0),
        # nonvanishing news at u0: null.order_gate fails
        "null": (["null", "--preset", "bondi-biaxial",
                  "--radii", "30,45,70,110"] + small, 1),
        "null-minkowski": (["null", "--preset", "minkowski"] + small, 0),
        "bondi-evolve": (["bondi-evolve", "--preset", "bondi-quadrupole",
                          "--u1", "1", "--du", "0.1"] + small, 0),
        "bondi-slice": (["bondi-slice", "--preset", "bondi-biaxial"] + small,
                        0),
        "converge": (["converge", "--preset", "schwarzschild"] + small, 0),
    }
    checks = list(battery_run.body["checks"])
    for name, (argv, code) in runs.items():
        out = tmp_path / f"{name}.json"
        assert run_cli(argv + ["--out", str(out)]) == code, name
        checks += json.loads(out.read_text())["checks"]
    for c in checks:
        assert c["passed"] == _recomputed(c), c
    assert {c["passed"] for c in checks} == {True, False}


def test_recorded_tolerances_are_the_pinned_constants(tmp_path):
    """These checks record the constant tolerance they compared against, so
    each flag is recomputable from the recorded value, tolerance and
    comparator, and the report's config carries no tolerance scale."""
    from admbondi import verify
    checks = {c.name: jsonable(c) for c in
              verify.criterion_8_decay_orders()
              + verify.criterion_9_vanishing_news()}
    out = tmp_path / "evolve.json"
    assert run_cli(["bondi-evolve", "--preset", "bondi-quadrupole", "--u1", "1",
                    "--du", "0.1", "--ntheta", "8", "--npsi", "16",
                    "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    checks.update({c["name"]: c for c in body["checks"]})
    assert "tolerance_scale" not in json.dumps(body)
    tolerances = {
        "c8.schwarzschild_bondi_a11_order": 0.1,
        "c9.mass_dominates_momentum": 1e-9,
        "c9.slice_pmt_margin": 1e-4,
        "evolve.mass_nonincreasing": 1e-9,
    }
    for name, tolerance in tolerances.items():
        c = checks[name]
        assert c["tolerance"] == tolerance, name
        assert c["passed"] == _recomputed(c), name


# -- package exports ----------------------------------------------------------------

def test_every_exported_name_resolves():
    """Each module defines every name its __all__ lists, and the package
    import resolves every name admbondi/__init__.py imports, so a deletion
    cannot leave a stale export."""
    import importlib
    import pkgutil

    import admbondi
    modules = [m.name for m in pkgutil.iter_modules(admbondi.__path__)]
    assert {"geometry", "jets", "spacetimes"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"admbondi.{name}")
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert not missing, (name, missing)


# every parameter default of the package, as module.function(parameter);
# the slice time u0, a3, the chart, the jet order, grids, ladders and steps
# are none of them: each caller states its own
_PARAMETER_DEFAULTS = {
    "adm.adm_ladder_samples(momentum)", "adm.check_af_decay(grid)",
    "bondi._u_samples(end)", "bondi.pullback_slice_data(r_min)",
    "bondi.expansion_consistency(grid)", "cli.main(argv)",
    "geometry.InitialData.jets(momentum)",
    "jets.Jet.__init__(dd)", "jets.seed(order)",
    "ladder.check_ladder(minimum)", "ladder.fit_decay_exponent(zero_floor)",
    "nullcharges.decay_orders(grid)",
    "nullcharges.null_energy_momentum(check_decay)",
    "spacetimes.bondi_metric(r_min)",
}


def _written_functions(module):
    """(qualified name, function) of every function and method whose source
    is in ``module``: a dataclass's generated methods are not, and their
    defaults are the field defaults."""
    import inspect

    for name, obj in vars(module).items():
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn) \
                        and fn.__code__.co_filename == module.__file__:
                    yield f"{name}.{attr}", fn


def test_every_parameter_default_is_listed():
    """A new default is a new hidden input of every caller that leaves it
    out, so it must be added to _PARAMETER_DEFAULTS on purpose."""
    import importlib
    import inspect
    import pkgutil

    found = set()
    for info in pkgutil.iter_modules(admbondi.__path__):
        module = importlib.import_module(f"admbondi.{info.name}")
        for qualname, fn in _written_functions(module):
            found |= {f"{info.name}.{qualname}({p.name})"
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty}
    assert found == _PARAMETER_DEFAULTS
