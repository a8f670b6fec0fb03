"""Runtime instrumentation of the admbondi package for the traced runs.

Nothing here edits the package: ``Tracer.install`` rebinds functions and
methods while a pass runs and ``uninstall`` puts the originals back.

Two instruments exist, because counting every jet costs far more than
timing a few thousand calls:

* ``spans``: each listed public function becomes a span with a call count,
  total time and self time (total minus the time of spans it caused).  The
  modules bind names with ``from .sphere import ...``, so a wrapped function
  is rebound in every admbondi namespace that holds it, including tuples
  such as ``verify.CRITERIA``; methods are wrapped on their class.
  ``ladder_map`` is counted but not timed: ``ladder.rungs`` sums its radii,
  and the work of each rung stays in the self time of its caller.
* ``counts``: ``Jet.__init__`` and ``SphereField.__init__`` count what is
  built.  A jet counts as order-2 when it carries a Hessian, as scalar-leaf
  when its innermost value is a plain number, and each first-derivative
  entry that is an all-zero array counts toward ``jets.zero_array_frac``.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

MODULES = ("adm", "bondi", "cli", "geometry", "jets", "ladder",
           "nullcharges", "reports", "scenarios", "spacetimes", "sphere",
           "verify")

# span name -> (module, function)
FUNCTION_SPANS = {
    "sphere.build_grid": ("sphere", "build_grid"),
    "sphere.direction_functions": ("sphere", "direction_functions"),
    "sphere.project_multipole": ("sphere", "project_multipole"),
    "geometry.frame_geometry": ("geometry", "frame_geometry"),
    "adm.adm_energy_momentum": ("adm", "adm_energy_momentum"),
    "adm.check_af_decay": ("adm", "check_af_decay"),
    "adm.check_dec_flat": ("adm", "check_dec_flat"),
    "nullcharges.charge_integrand": ("nullcharges", "charge_integrand"),
    "nullcharges.null_energy_momentum": ("nullcharges",
                                         "null_energy_momentum"),
    "nullcharges.estimate_decay_order": ("nullcharges",
                                         "estimate_decay_order"),
    "bondi.news_flux": ("bondi", "news_flux"),
    "bondi.evolve_energy_momentum": ("bondi", "evolve_energy_momentum"),
    "bondi.trajectory_csv": ("bondi", "trajectory_csv"),
    "bondi.induced_slice_data": ("bondi", "induced_slice_data"),
    "bondi.expansion_consistency": ("bondi", "expansion_consistency"),
    "ladder.fit_inverse_powers": ("ladder", "fit_inverse_powers"),
    "ladder.fit_decay_exponent": ("ladder", "fit_decay_exponent"),
    "reports.write_json": ("reports", "write_json"),
    **{f"verify.c{i}": ("verify", name) for i, name in enumerate((
        "criterion_1_schwarzschild_adm", "criterion_2_kerr_adm",
        "criterion_3_hyperboloid", "criterion_4_constraints",
        "criterion_5_bondi_moments", "criterion_6_mass_loss",
        "criterion_7_expansion_consistency", "criterion_8_decay_orders",
        "criterion_9_vanishing_news", "criterion_10_oracles"), start=1)},
}

# span name -> (module, class, method)
METHOD_SPANS = {
    "geometry.pullback_jets": ("geometry", "InitialData", "jets"),
    "geometry.pullback_values": ("geometry", "InitialData", "values"),
    "geometry.metric_jets": ("geometry", "Metric4Evaluator", "jets"),
}

CLI_SUBCOMMANDS = ("adm", "null", "bondi-evolve", "bondi-slice", "verify",
                   "converge")


def _package():
    return {name: importlib.import_module(f"admbondi.{name}")
            for name in MODULES}


def _leaf_size(coords):
    """Number of points in a list of (possibly jet) coordinate arrays."""
    from admbondi.jets import value
    return int(np.broadcast(*[np.asarray(value(c)) for c in coords]).size)


class Tracer:
    """Spans and counters for one kind of traced pass.

    ``kind`` is "spans" or "counts".  Use as a context manager around the
    pass; ``span`` may also be entered directly for the benchmark's own
    spans around command-line calls.
    """

    def __init__(self, kind):
        if kind not in ("spans", "counts"):
            raise ValueError(f"unknown tracer kind {kind!r}")
        self.kind = kind
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.extra = defaultdict(int)
        self._open = []        # child time accumulated by each open span
        self._undo = []        # (owner, attribute, original)
        self._grids = {}       # id -> grid, for direction_functions.per_grid

    # -- spans --------------------------------------------------------------

    def _enter(self):
        self._open.append(0.0)
        return time.perf_counter()

    def _exit(self, name, t0):
        dt = time.perf_counter() - t0
        child = self._open.pop()
        s = self.stats[name]
        s[0] += 1
        s[1] += dt
        s[2] += dt - child
        if self._open:
            self._open[-1] += dt

    @contextlib.contextmanager
    def span(self, name):
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(name, t0)

    def _wrap(self, name, fn, note=None):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            t0 = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, t0)

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, pkg, original, wrapped):
        """Point every package namespace entry holding original at wrapped."""
        for mod in pkg.values():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapped)
                elif isinstance(val, tuple) and any(v is original
                                                    for v in val):
                    self._set(mod, attr, tuple(wrapped if v is original
                                               else v for v in val))

    def install(self):
        pkg = _package()
        if self.kind == "counts":
            self._install_counters(pkg)
            return self
        extra, grids = self.extra, self._grids

        def points(args):                # InitialData.jets(self, coords3)
            extra["geometry.pullback_jets.points"] += _leaf_size(args[1])

        def grid(args):                  # direction_functions(grid)
            grids[id(args[0])] = args[0]

        notes = {"geometry.pullback_jets": points,
                 "sphere.direction_functions": grid}
        for name, (mod, fn) in FUNCTION_SPANS.items():
            original = getattr(pkg[mod], fn)
            self._rebind(pkg, original,
                         self._wrap(name, original, notes.get(name)))
        for name, (mod, cls, meth) in METHOD_SPANS.items():
            owner = getattr(pkg[mod], cls)
            self._set(owner, meth, self._wrap(name, vars(owner)[meth],
                                              notes.get(name)))

        # counted, not a span: the rungs are the work of its caller
        ladder_map = pkg["ladder"].ladder_map

        @functools.wraps(ladder_map)
        def counted_ladder_map(fn, radii):
            radii = list(radii)
            extra["ladder.rungs"] += len(radii)
            return ladder_map(fn, radii)

        self._rebind(pkg, ladder_map, counted_ladder_map)
        return self

    def _install_counters(self, pkg):
        Jet = pkg["jets"].Jet
        SphereField = pkg["sphere"].SphereField
        jet_init, field_init = Jet.__init__, SphereField.__init__
        extra = self.extra

        def counting_jet_init(jet, f, d, dd=None):
            jet_init(jet, f, d, dd)
            extra["jets.ops"] += 1
            if dd is not None:
                extra["jets.ops_order2"] += 1
            leaf = f
            while type(leaf) is Jet:
                leaf = leaf.f
            if np.ndim(leaf) == 0:
                extra["jets.ops_scalar_leaf"] += 1
            extra["jets.d_entries"] += len(d)
            for a in d:
                if type(a) is np.ndarray and not a.any():
                    extra["jets.d_zero_arrays"] += 1

        def counting_field_init(field, grid, values):
            field_init(field, grid, values)
            extra["sphere.fields"] += 1

        self._set(Jet, "__init__", counting_jet_init)
        self._set(SphereField, "__init__", counting_field_init)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def span_metrics(self):
        """Per-layer metrics recorded by a "spans" pass."""
        def calls(name):
            return self.stats.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return self.stats.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return self.stats.get(name, (0, 0.0, 0.0))[2]

        out = {}
        for name in ("sphere.build_grid", "sphere.direction_functions",
                     "sphere.project_multipole", "geometry.pullback_jets",
                     "geometry.pullback_values", "geometry.metric_jets",
                     "geometry.frame_geometry", "adm.adm_energy_momentum",
                     "nullcharges.charge_integrand",
                     "nullcharges.estimate_decay_order", "bondi.news_flux",
                     "ladder.fit_inverse_powers", "ladder.fit_decay_exponent"):
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_s"] = (self_s(name), "s")
        for name in ("adm.check_af_decay", "adm.check_dec_flat",
                     "nullcharges.null_energy_momentum",
                     "bondi.evolve_energy_momentum", "bondi.trajectory_csv",
                     "bondi.induced_slice_data",
                     "bondi.expansion_consistency", "reports.write_json"):
            out[f"{name}.self_s"] = (self_s(name), "s")
        ngrids = len(self._grids)
        out["sphere.direction_functions.per_grid"] = (
            calls("sphere.direction_functions") / ngrids if ngrids else 0.0,
            "count/grid")
        out["geometry.pullback_jets.points"] = (
            self.extra["geometry.pullback_jets.points"], "count")
        out["ladder.rungs"] = (self.extra["ladder.rungs"], "count")
        for i in range(1, 11):
            out[f"verify.c{i}.s"] = (total(f"verify.c{i}"), "s")
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}.s"] = (total(f"cli.{sub}"), "s")
        return out

    def count_metrics(self):
        """Per-layer metrics recorded by a "counts" pass."""
        x = self.extra
        entries = x["jets.d_entries"]
        return {
            "jets.ops": (x["jets.ops"], "count"),
            "jets.ops_order2": (x["jets.ops_order2"], "count"),
            "jets.ops_scalar_leaf": (x["jets.ops_scalar_leaf"], "count"),
            "jets.zero_array_frac": (
                x["jets.d_zero_arrays"] / entries if entries else 0.0,
                "ratio"),
            "sphere.fields": (x["sphere.fields"], "count"),
        }


def exact_counts(metrics):
    """The entries of a metric dict that must repeat exactly between passes."""
    return {k: v for k, (v, unit) in metrics.items() if unit != "s"}

