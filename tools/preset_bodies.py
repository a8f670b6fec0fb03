"""Write the report body and the tabular output of every README preset run.

    python tools/preset_bodies.py OUTDIR

Each run goes through ``admbondi.cli.main`` with the source tree of this
checkout.  OUTDIR receives ``<run>.json``, the JSON report without its
``metadata`` block, and ``<run>.csv`` for the runs that write a table.  The
``verify`` body also drops what measures time: its three runtime checks and
``samples.elapsed_s``.  Every other byte depends only on the code, so a
refactor that keeps the results is shown by ``diff -r`` of the output
directories of two checkouts.

The script exits 1 when a run's exit code is not the one the README
documents for it, and 0 otherwise.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from admbondi.cli import main  # noqa: E402

# the config file of the README's "null --config null.cfg" example
NULL_CFG = """\
preset = bondi-biaxial
[parameters]
mass = 1.0
amplitude = 0.08
amplitude_d = 0.05
news_zero_u = 2.0       # retarded time at which the news vanish
mass_aspect = tilted    # constant | tilted
a3_amplitude = 0.02
[grid]                  # defaults: adm 24 x 24, null 48 x 24, evolve 48 x 96
n_theta = 48
n_psi = 96
[ladder]
radii = 30, 45, 70, 110, 170
[slice]
u0 = 2.0
[evolution]
u_start = 0.0
u_end = 10.0
du = 0.01
"""

# run name -> (arguments, documented exit code, writes a table)
RUNS = {
    "adm-schwarzschild": (["adm", "--preset", "schwarzschild"], 0, False),
    "adm-kerr": (["adm", "--preset", "kerr"], 0, False),
    "adm-minkowski": (["adm", "--preset", "minkowski"], 0, False),
    "null-config": (["null", "--config", "{null_cfg}"], 0, False),
    "null-minkowski": (["null", "--preset", "minkowski"], 0, False),
    "null-bondi-quadrupole": (["null", "--preset", "bondi-quadrupole"], 0,
                              False),
    # the news of the preset do not vanish at u0: null.order_gate fails
    "null-bondi-biaxial-u0-2": (["null", "--preset", "bondi-biaxial",
                                 "--u0", "2.0"], 1, False),
    # nor do they vanish at the default slice time u0 = 0:
    # slice.order_gate fails
    "bondi-slice-bondi-biaxial": (["bondi-slice", "--preset",
                                   "bondi-biaxial"], 1, False),
    "bondi-slice-config": (["bondi-slice", "--config", "{null_cfg}"], 0,
                           False),
    "converge-kerr": (["converge", "--preset", "kerr"], 0, True),
    "converge-schwarzschild": (["converge", "--preset", "schwarzschild"], 0,
                               True),
    "bondi-evolve-bondi-quadrupole": (["bondi-evolve", "--preset",
                                       "bondi-quadrupole", "--u0", "0",
                                       "--u1", "10", "--du", "0.01"], 0,
                                      True),
    "verify": (["verify"], 0, False),
}

TIMED_CHECKS = ("c1.schwarzschild_adm_runtime", "c7.consistency_runtime",
                "c10.verify_wall_time")


def body_text(path):
    """The report at ``path`` without what varies between identical runs."""
    body = json.loads(path.read_text())
    body.pop("metadata")
    body["checks"] = [c for c in body["checks"]
                      if c["name"] not in TIMED_CHECKS]
    body["samples"].pop("elapsed_s", None)
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def run_all(outdir):
    """Run every preset into ``outdir``; returns the runs whose exit code
    differs from the documented one, as (name, expected, got)."""
    outdir.mkdir(parents=True, exist_ok=True)
    null_cfg = outdir / "null.cfg"
    null_cfg.write_text(NULL_CFG)
    wrong = []
    for name, (argv, expected, table) in RUNS.items():
        report = outdir / f"{name}.report"
        args = [a.format(null_cfg=null_cfg) for a in argv]
        args += ["--out", str(report)]
        if table:
            args += ["--csv", str(outdir / f"{name}.csv")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        if report.exists():             # a run that exits 2 writes none
            (outdir / f"{name}.json").write_text(body_text(report))
            report.unlink()
        print(f"{name}: exit {code}")
        if code != expected:
            wrong.append((name, expected, code))
    null_cfg.unlink()
    return wrong


def cli():
    if len(sys.argv) != 2:
        print("usage: python tools/preset_bodies.py OUTDIR", file=sys.stderr)
        return 2
    wrong = run_all(Path(sys.argv[1]))
    for name, expected, code in wrong:
        print(f"{name}: exit {code}, documented {expected}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(cli())
