"""The repository tools under tools/."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "body_deviation.py"


def _body(value, detail, passed=True, P=(0.5, 0.0)):
    return json.dumps({"charges": {"E": value, "P": list(P)},
                       "checks": [{"name": "c1.energy", "value": value,
                                   "detail": detail, "passed": passed}],
                       "passed": passed}, indent=2) + "\n"


def _write(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def _deviation(old, new):
    run = subprocess.run([sys.executable, str(TOOL), str(old), str(new)],
                         capture_output=True, text=True)
    return run.returncode, run.stdout


def test_body_deviation_states_the_largest_deviation(tmp_path):
    table = "quantity,coarse,fine\nE,1.0,2.0\nP,3.0,4.0\n"
    old = _write(tmp_path / "old", {
        "same.json": _body(1.0, "E=1.0"), "run.json": _body(1.0, "E=1.0"),
        "run.csv": table})
    new = _write(tmp_path / "new", {
        "same.json": _body(1.0, "E=1.0"), "run.json": _body(1.0, "E=1.000004"),
        "run.csv": table.replace("4.0", "4.5").replace("1.0,", "1.25,")})
    code, out = _deviation(old, new)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "run.csv: 2 numbers differ"
    assert lines[1] == "  max abs 0.5 at P.fine (4.0 -> 4.5)"
    assert lines[2] == "  max rel 0.25 at E.coarse (1.0 -> 1.25)"
    # a number inside a string with the same text around it
    assert lines[3] == "run.json: 1 numbers differ"
    assert lines[4] == "  max abs 4e-06 at checks[c1.energy].detail " \
                       "(1.0 -> 1.000004)"
    assert "same.json" not in out
    assert lines[-1] == "2 of 3 files differ; passed flags and structure " \
                        "unchanged"


def test_body_deviation_exits_1_on_a_changed_passed_flag(tmp_path):
    old = _write(tmp_path / "old", {"run.json": _body(1.0, "ok")})
    new = _write(tmp_path / "new", {"run.json": _body(1.5, "ok",
                                                      passed=False)})
    code, out = _deviation(old, new)
    assert code == 1
    assert "  flags checks[c1.energy].passed: True -> False" in out
    assert "  flags passed: True -> False" in out
    assert "  max abs 0.5 at charges.E (1.0 -> 1.5)" in out


def test_body_deviation_exits_1_on_a_missing_file_or_entry(tmp_path):
    old = _write(tmp_path / "old", {"a.json": _body(1.0, "ok"),
                                    "b.json": _body(1.0, "ok")})
    new = _write(tmp_path / "new", {
        "a.json": _body(1.0, "ok", P=[0.5])})
    code, out = _deviation(old, new)
    assert code == 1
    assert "  missing charges.P[1]: 0.0 -> None" in out
    assert "b.json: only in OLD" in out
    # text that differs beyond its numbers is listed, but is no failure
    new2 = _write(tmp_path / "new2", {"a.json": _body(1.0, "fine"),
                                      "b.json": _body(1.0, "ok")})
    code, out = _deviation(old, new2)
    assert code == 0
    assert "  text checks[c1.energy].detail: 'ok' -> 'fine'" in out
