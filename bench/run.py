"""Benchmark of the admbondi command line.

Run from the root of a source checkout::

    python3 bench/run.py --workload charges --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload radiating --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload battery --seed 1 --save base.json
    python3 bench/run.py --compare base.json new.json

The package is imported from ``src/`` of the checkout; nothing is built or
installed.  Each workload (see ``workloads.py``) is a closed loop in this one
process: ``admbondi.cli.main(argv)`` is called for each command of a pass,
one call at a time, and passes repeat until ``--seconds`` have elapsed.  The
first pass warms imports and caches and is checked but not timed.  Every
pass is gated against analytic references and its report digests must
equal those of the first pass.

On a shared host a core's speed shifts by up to 1.6x for minutes at a time,
with the load of other tenants, so raw pass times of the same code spread by
10-35% between runs.  Between passes the runner therefore times a fixed
reference kernel of numpy and interpreter work that uses nothing from
admbondi, and scales each pass to a host on which that kernel takes
``REF_KERNEL_S``.  The raw median pass time and the kernel's median time are
printed beside the metrics.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: the fastest of several fresh interpreters that import
  ``admbondi.cli`` and build the 48x96 grid, one started after each pass;
* ``pass_s``, ``cpu_s``: median wall and process-CPU seconds per pass, each
  pass scaled by ``REF_KERNEL_S`` over the reference kernel's median wall
  or CPU time in the bursts just before and just after it;
* ``peak_rss_mb``: peak resident memory of this process;
* ``ref_digits``: the smallest -log10 relative error against a reference
  over a pass.

``--trace 1`` cycles through a counting pass, a span pass and a plain pass
and prints per-layer metrics of one pass (see ``tracing.py``); counts must
repeat exactly, times are medians, and ``trace.overhead`` is the span pass
wall time over the plain one.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
fail rate.  Thread pools are pinned to one thread and ``CHARGES_THREADS``
is unset before numpy is imported.
"""

import os
import sys

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)
os.environ.pop("CHARGES_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402  (bench/ is the script's directory)

SETUP_WARMUP = 3
# Host speed: a burst of KERNEL_REPEATS reference kernels after each pass.
REF_KERNEL_S = 0.015
KERNEL_REPEATS = 10
SETUP_CODE = ("import admbondi.cli\n"
              "from admbondi.sphere import build_grid\n"
              "build_grid(48, 96)\n")


def load_package():
    """Import admbondi from the checkout's src/, or exit with an error."""
    if not (SRC / "admbondi" / "__init__.py").is_file():
        sys.exit(f"error: no admbondi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import admbondi
    import admbondi.cli
    if Path(admbondi.__file__).resolve().parent != SRC / "admbondi":
        sys.exit(f"error: admbondi imported from {admbondi.__file__}, "
                 f"not from {SRC}")
    return admbondi.cli


def environment():
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "CHARGES_THREADS": os.environ.get("CHARGES_THREADS", "unset"),
    }


def time_setup():
    """Wall seconds of a fresh interpreter importing admbondi.cli and
    building the 48x96 grid."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def reference_kernel():
    """Fixed numpy and interpreter work on arrays of the 48x96 grid's size;
    10-20 ms on one core of a shared Xeon (Sapphire Rapids) host, depending
    on the load of other tenants."""
    x = np.linspace(0.0, 1.0, 48 * 96)
    acc = 0.0
    for i in range(200):
        acc += float((x * (i + 1.0) + np.sin(x) * 0.5).sum())
    n = 0
    for i in range(60000):
        n += i * i % 7
    return acc + n


def host_speed():
    """Median (wall, cpu) seconds of a burst of reference kernels."""
    walls, cpus = [], []
    for _ in range(KERNEL_REPEATS):
        t0, c0 = time.perf_counter(), time.process_time()
        reference_kernel()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)


def scaled_median(times, kernel):
    """Median of times[i] * REF_KERNEL_S / k_i, where k_i is the mean of
    kernel[i] and kernel[i + 1], the kernel times measured just before and
    just after item i."""
    return statistics.median(t * REF_KERNEL_S / ((a + b) / 2.0)
                             for t, a, b in zip(times, kernel, kernel[1:]))


@dataclass
class Pass:
    """Outcome of one pass: timings, gate verdict, digests."""

    wall: float = 0.0
    cpu: float = 0.0
    outputs: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    ok: bool = False
    digits: float = math.inf


def run_pass(cli, calls, workdir, tracer=None):
    """Call the command line for each call in order; time only the calls."""
    res = Pass()
    for call in calls:
        out = workdir / f"{call.label}.json"
        csv = workdir / f"{call.label}.csv"
        argv = list(call.argv) + ["--out", str(out)]
        if call.csv:
            argv += ["--csv", str(csv)]
        for path in (out, csv):
            path.unlink(missing_ok=True)
        captured = io.StringIO()
        span = (tracer.span(f"cli.{call.argv[0]}") if tracer
                else contextlib.nullcontext())
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured), span:
            try:
                rc = cli.main(argv)
            except Exception:          # a crash fails the pass, not the run
                rc = "exception"
                captured.write(traceback.format_exc())
        res.wall += time.perf_counter() - t0
        res.cpu += time.process_time() - c0
        body = table = None
        if rc == 0:
            try:
                body = json.loads(out.read_text())
                table = csv.read_text() if call.csv else None
            except (OSError, ValueError) as exc:
                rc = f"missing output ({exc})"
        if rc != 0:
            res.problems.append(f"{call.label}: {captured.getvalue()[-2000:]}")
        else:
            res.digests[call.label] = wl.report_digest(body, table)
        res.outputs[call.label] = (rc, body, table)
    res.ok, res.digits, problems = wl.check_pass(calls, res.outputs)
    res.problems += problems
    return res


def check_digests(passes):
    """A pass whose report bodies differ from the first pass fails."""
    first = passes[0].digests
    for p in passes[1:]:
        if p.ok and p.digests != first:
            p.ok = False
            p.problems.append("report digests differ from the first pass")


def run_plain(cli, calls, workdir, seconds):
    """Untraced passes for `seconds`, each followed by a burst of reference
    kernels and a set-up timing; returns passes, end-to-end metrics and the
    raw timings behind them."""
    time_setup()                                      # writes bytecode
    setup = [time_setup() for _ in range(SETUP_WARMUP)]
    passes = [run_pass(cli, calls, workdir)]          # warm-up
    speed = [host_speed()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < 3:
        passes.append(run_pass(cli, calls, workdir))
        speed.append(host_speed())
        setup.append(time_setup())
    check_digests(passes)
    timed = passes[1:]
    digits = min(p.digits for p in passes)
    metrics = {
        "setup_s": (min(setup), "s"),
        "pass_s": (scaled_median([p.wall for p in timed],
                                 [w for w, _ in speed]), "s"),
        "cpu_s": (scaled_median([p.cpu for p in timed],
                                [c for _, c in speed]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        # no finite error at all means every call failed: the run is wrong
        "ref_digits": (digits if math.isfinite(digits) else 0.0, "digits"),
    }
    raw = {"setup_s": setup, "kernel_s": speed}
    return passes, metrics, raw


def run_traced(cli, calls, workdir, seconds):
    """Cycles of (counting, span, plain) passes; per-layer metrics."""
    from tracing import Tracer, exact_counts
    passes = [run_pass(cli, calls, workdir)]          # warm-up
    counted, spanned, plain = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not plain:
        for kind, into in (("counts", counted), ("spans", spanned)):
            tracer = Tracer(kind)
            with tracer:
                p = run_pass(cli, calls, workdir, tracer)
            passes.append(p)
            into.append((p, tracer.count_metrics() if kind == "counts"
                         else tracer.span_metrics()))
        p = run_pass(cli, calls, workdir)
        passes.append(p)
        plain.append(p)
    check_digests(passes)
    for runs in (counted, spanned):
        first = exact_counts(runs[0][1])
        for p, m in runs[1:]:
            if exact_counts(m) != first:
                p.ok = False
                p.problems.append("traced counts differ between passes")

    median = statistics.median
    metrics = dict(counted[0][1])
    for name, (value, unit) in spanned[0][1].items():
        if unit == "s":
            value = median([m[name][0] for _, m in spanned])
        metrics[name] = (value, unit)
    metrics["trace.overhead"] = (median([p.wall for p, _ in spanned])
                                 / median([p.wall for p in plain]), "ratio")
    return passes, metrics


def result_line(passes, metrics):
    failed = sum(not p.ok for p in passes)
    return {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def load_results(path):
    """{workload: {metric: ([values], unit)}} of one saved file, or of every
    .json file in a directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        record = json.loads(f.read_text())
        metrics = out.setdefault(record["workload"], {})
        for name, m in record["result"]["metrics"].items():
            metrics.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return out


def compare(base_path, new_path):
    """Print each metric's median ratio new / base between two result sets."""
    base, new = load_results(base_path), load_results(new_path)
    print(f"{'workload':10s} {'metric':42s} {'runs':>9s} {'base':>12s} "
          f"{'new':>12s} {'new/base':>9s}")
    for workload, metrics in base.items():
        for name, (values, unit) in metrics.items():
            other = new.get(workload, {}).get(name, ([], unit))[0]
            if not other:
                continue
            b, n = statistics.median(values), statistics.median(other)
            ratio = f"{n / b:9.4f}" if b else f"{'-':>9s}"
            runs = f"{len(values)}/{len(other)}"
            print(f"{workload:10s} {name:42s} {runs:>9s} {b:12.6g} "
                  f"{n:12.6g} {ratio}  {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="also write the result set to this file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="print median metric ratios between two result "
                         "sets, each a saved file or a directory of them")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    cli = load_package()
    env = environment()
    workdir = (ROOT / ".bench_work"
               / f"{args.workload}-{args.seed}-{os.getpid()}")
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calls = wl.build_calls(args.workload, args.seed, str(workdir))
        raw = {}
        if args.trace:
            passes, metrics = run_traced(cli, calls, workdir, args.seconds)
        else:
            passes, metrics, raw = run_plain(cli, calls, workdir,
                                             args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    result = result_line(passes, metrics)
    record = {
        "workload": args.workload, "why": wl.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": {c.label: c.params for c in calls},
        "digests": passes[0].digests, "environment": env,
        "pass_wall_s": [p.wall for p in passes],
        **raw,
        "result": result,
    }
    for p in passes:
        for problem in p.problems:
            print(f"FAIL: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{result['failed']} failed (fail_rate "
          f"{result['failed'] / len(passes):.3g})")
    if raw:
        kernel = statistics.median(w for w, _ in raw["kernel_s"])
        wall = statistics.median(p.wall for p in passes[1:])
        print(f"  unscaled median pass {wall:.4g} s; reference kernel median "
              f"{kernel * 1e3:.4g} ms (scaled to {REF_KERNEL_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print("record: " + json.dumps({k: v for k, v in record.items()
                                   if k != "result"}, sort_keys=True))
    if args.save:
        Path(args.save).write_text(json.dumps(record, indent=2,
                                              sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
