"""Tests of the benchmark itself: the gate, the digests and the tracer.

Run from the root of the checkout with ``python3 -m pytest bench -q``.
Each workload's pass runs once per module (about 25 s in all).  Files are
written under ``.bench_work/`` of the checkout and removed afterwards.
"""

import contextlib
import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl
from tracing import Tracer

SEED = 1


@pytest.fixture(scope="module")
def cli():
    return run.load_package()


@pytest.fixture(scope="module")
def workroot():
    root = run.ROOT / ".bench_work" / f"tests-{os.getpid()}"
    root.mkdir(parents=True)
    yield root
    shutil.rmtree(root)
    with contextlib.suppress(OSError):
        root.parent.rmdir()


def _pass(cli, workload, workroot, tracer=None):
    workdir = workroot / workload
    workdir.mkdir(exist_ok=True)
    calls = wl.build_calls(workload, SEED, str(workdir))
    return calls, run.run_pass(cli, calls, workdir, tracer)


@pytest.fixture(scope="module")
def charges(cli, workroot):
    return _pass(cli, "charges", workroot)


@pytest.fixture(scope="module")
def battery(cli, workroot):
    return _pass(cli, "battery", workroot)


@pytest.fixture(scope="module")
def radiating(cli, workroot):
    """An untraced pass, then one pass under each tracer kind."""
    calls, plain = _pass(cli, "radiating", workroot)
    traced = {}
    for kind in ("counts", "spans"):
        tracer = Tracer(kind)
        with tracer:
            _, p = _pass(cli, "radiating", workroot, tracer)
        traced[kind] = (p, tracer)
    return calls, plain, traced


def _gate(calls, outputs):
    return wl.check_pass(calls, outputs)[0]


def _perturbed(outputs, label, edit):
    out = copy.deepcopy(outputs)
    rc, body, table = out[label]
    out[label] = edit(rc, body, table)
    return out


# -- the gate ----------------------------------------------------------------

def test_charges_pass_meets_references(charges):
    calls, p = charges
    assert p.ok, p.problems
    assert 2.5 < p.digits < 16


def test_perturbed_charges_fail_the_gate(charges):
    calls, p = charges

    def energy(rc, body, table):
        body["charges"]["E"] *= 1.01
        return rc, body, table

    def momentum(rc, body, table):
        body["charges"]["P"][2] += 1e-5
        return rc, body, table

    def margin(rc, body, table):
        body["charges"]["margins"][3] += 1e-4
        return rc, body, table

    def fine_energy(rc, body, table):
        body["charges"]["E_fine"] = float("nan")
        return rc, body, table

    for label, edit in (("adm-schwarzschild", energy), ("adm-kerr", momentum),
                        ("slice-biaxial", margin),
                        ("converge-kerr", fine_energy)):
        assert not _gate(calls, _perturbed(p.outputs, label, edit)), label


def test_nonzero_exit_fails_the_gate(charges):
    calls, p = charges
    out = _perturbed(p.outputs, "null-biaxial",
                     lambda rc, body, table: (1, body, table))
    ok, _, problems = wl.check_pass(calls, out)
    assert not ok and "null-biaxial: exit code 1" in problems


def test_perturbed_trajectory_fails_the_gate(radiating):
    calls, plain, _ = radiating
    assert plain.ok, plain.problems

    def scale_column(col, factor):
        def edit(rc, body, table):
            lines = table.splitlines()
            rows = [line.split(",") for line in lines[1:]]
            for row in rows[500:]:
                row[col] = repr(float(row[col]) * factor)
            return rc, body, "\n".join([lines[0]] + [",".join(r)
                                                     for r in rows]) + "\n"
        return edit

    for col in (1, 5):                       # m0, F0
        out = _perturbed(plain.outputs, "evolve-biaxial",
                         scale_column(col, 1.0 + 1e-8))
        assert not _gate(calls, out), col

    def truncate(rc, body, table):
        return rc, body, "\n".join(table.splitlines()[:-1]) + "\n"

    assert not _gate(calls, _perturbed(plain.outputs, "evolve-quadrupole",
                                       truncate))


def test_perturbed_battery_fails_the_gate(battery):
    calls, p = battery
    assert p.ok, p.problems

    def worse_flux(rc, body, table):
        for c in body["checks"]:
            if c["name"] == "c6.flux_constant_value":
                c["value"] = 2.0 * c["tolerance"]
        return rc, body, table

    def failed_check(rc, body, table):
        body["checks"][3]["passed"] = False
        return rc, body, table

    def missing_check(rc, body, table):
        body["checks"] = [c for c in body["checks"]
                          if not c["name"].startswith("c5.")]
        return rc, body, table

    for edit in (worse_flux, failed_check, missing_check):
        assert not _gate(calls, _perturbed(p.outputs, "verify", edit))


# -- digests ------------------------------------------------------------------

def test_digest_ignores_metadata_and_wall_times(battery):
    _, p = battery
    _, body, table = p.outputs["verify"]
    other = copy.deepcopy(body)
    other["metadata"] = {"generated_at": "elsewhere"}
    other["samples"]["elapsed_s"] += 1.0
    for c in other["checks"]:
        if c["name"] == "c10.verify_wall_time":
            c["value"] += 1.0
    assert wl.report_digest(other, table) == p.digests["verify"]
    other["checks"][0]["value"] *= 1.0 + 1e-15
    assert wl.report_digest(other, table) != p.digests["verify"]


def test_repeated_pass_has_identical_digests(radiating):
    _, plain, traced = radiating
    for p, _ in traced.values():
        assert p.ok, p.problems
        assert p.digests == plain.digests


# -- seeded inputs ------------------------------------------------------------

def test_configs_carry_the_seeded_parameters(cli, workroot):
    workdir = workroot / "configs"
    workdir.mkdir()
    params = wl.draw_params(SEED)
    assert params == wl.draw_params(SEED) != wl.draw_params(SEED + 1)
    for group in params.values():
        for key, v in group.items():
            lo, hi = wl.PARAM_RANGES[key]
            assert lo <= v <= hi
    calls = wl.build_calls("charges", SEED, str(workdir))
    cfg, _ = cli.parse_config((workdir / "kerr.cfg").read_text())
    assert (cfg.preset, cfg.mass, cfg.spin) == (
        "kerr", params["kerr"]["mass"], params["kerr"]["spin"])
    assert cfg.radii == tuple(r * cfg.mass for r in (10.0, 20.0, 40.0, 80.0))
    cfg, _ = cli.parse_config((workdir / "slice.cfg").read_text())
    assert (cfg.news_zero_u, cfg.u0) == (2.0, 2.0)
    assert [c.label for c in calls] == ["adm-schwarzschild", "adm-kerr",
                                        "converge-kerr", "null-biaxial",
                                        "slice-biaxial"]


# -- tracing ------------------------------------------------------------------

def test_traced_radiating_counts(radiating):
    _, _, traced = radiating
    spans = traced["spans"][1].span_metrics()
    counts = traced["counts"][1].count_metrics()
    assert spans["bondi.news_flux.calls"][0] == 2002
    assert spans["sphere.direction_functions.calls"][0] == 8016
    assert spans["sphere.project_multipole.calls"][0] == 8016
    assert spans["geometry.pullback_jets.calls"][0] == 0
    assert spans["cli.bondi-evolve.s"][0] > 0.0
    assert counts["jets.ops_order2"][0] == 0
    assert counts["jets.ops"][0] > 0
    assert set(spans) | set(counts) | {"trace.overhead"} == _per_layer_names()


def test_tracer_restores_the_package(cli):
    import admbondi.bondi as bondi
    import admbondi.geometry as geometry
    import admbondi.jets as jets
    import admbondi.verify as verify

    def state():
        return (bondi.project_multipole, verify.CRITERIA, jets.Jet.__init__,
                vars(geometry.InitialData)["jets"])

    before = state()
    with Tracer("spans"):
        now = state()
        assert now[0] is not before[0] and now[3] is not before[3]
        assert now[1][0] is not before[1][0]
    with Tracer("counts"):
        assert jets.Jet.__init__ is not before[2]
    assert all(a is b for a, b in zip(state(), before))


# -- result sets --------------------------------------------------------------

def test_compare_prints_median_ratios(workroot, capsys):
    sets = workroot / "sets"
    for side, values in (("base", (1.0, 3.0, 2.0)), ("new", (4.0, 5.0))):
        (sets / side).mkdir(parents=True)
        for i, v in enumerate(values):
            record = {"workload": "charges", "result": {"metrics": {
                "pass_s": {"value": v, "unit": "s"}}}}
            (sets / side / f"{i}.json").write_text(json.dumps(record))
    run.compare(sets / "base", sets / "new")
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:3] == ["charges", "pass_s", "3/2"]
    assert [float(x) for x in row[3:6]] == [2.0, 4.5, 2.25]


def test_pass_times_are_scaled_by_the_kernel_around_them():
    # kernel means 0.015, 0.02, 0.025 around the three passes
    times = [2.0, 4.0, 3.0]
    kernel = [run.REF_KERNEL_S, 0.015, 0.025, 0.025]
    assert run.scaled_median(times, kernel) == pytest.approx(2.0)
    assert run.scaled_median([1.0], [0.03, 0.03]) == pytest.approx(0.5)


# -- BENCHMARK.json and the bare checkout -------------------------------------

def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _per_layer_names():
    return {m["name"] for m in _benchmark_json()["per_layer"]}


def test_benchmark_json_names_every_metric():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == wl.WHY
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "pass_s", "cpu_s", "peak_rss_mb", "ref_digits"}


def test_fails_without_the_package(workroot):
    """A directory holding only BENCHMARK.json and bench/ gives no result."""
    workdir = workroot / "bare"
    shutil.copytree(run.BENCH, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "battery", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
