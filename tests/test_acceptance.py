"""Acceptance battery: one test per criterion, each printing pass/fail lines.

Tolerances are pinned inside admbondi.verify; run with -s to see the lines.
"""

from admbondi import verify


def _run(criterion):
    results = criterion()
    for r in results:
        print(r.line())
    failing = [r.name for r in results if not r.passed]
    assert not failing, f"failing checks: {failing}"
    return results


def test_criterion_01_schwarzschild_adm():
    results = _run(verify.criterion_1_schwarzschild_adm)
    runtime = [r for r in results if r.name.endswith("runtime")][0]
    assert runtime.value <= 10.0


def test_criterion_02_kerr_adm():
    _run(verify.criterion_2_kerr_adm)


def test_criterion_03_hyperboloid_model():
    _run(verify.criterion_3_hyperboloid)


def test_criterion_04_constraint_suite():
    _run(verify.criterion_4_constraints)


def test_criterion_05_bondi_energy_momentum():
    _run(verify.criterion_5_bondi_moments)


def test_criterion_06_mass_loss():
    _run(verify.criterion_6_mass_loss)


def test_criterion_07_expansion_consistency():
    results = _run(verify.criterion_7_expansion_consistency)
    runtime = [r for r in results if r.name.endswith("runtime")][0]
    assert runtime.value <= 60.0


def test_criterion_08_decay_orders():
    _run(verify.criterion_8_decay_orders)


def test_criterion_09_vanishing_news_positivity():
    _run(verify.criterion_9_vanishing_news)


def test_criterion_10_oracle_equivalences():
    _run(verify.criterion_10_oracles)


def test_full_battery_wall_time(battery_run):
    results = battery_run.body["checks"]
    elapsed = battery_run.body["samples"]["elapsed_s"]
    print(f"[{'PASS' if elapsed <= 300 else 'FAIL'}] full battery: "
          f"{elapsed:.1f}s (limit 300s), {len(results)} checks")
    assert elapsed <= 300.0
    failing = [r["name"] for r in results if not r["passed"]]
    assert not failing, f"failing checks: {failing}"
