import contextlib
import functools
import io
import json
import operator
import sys
from types import SimpleNamespace

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def grid_48():
    from admbondi.sphere import build_grid
    return build_grid(48, 96)


@pytest.fixture(scope="session")
def grid_16():
    from admbondi.sphere import build_grid
    return build_grid(16, 32)


@pytest.fixture(scope="session")
def hyperbolic_background():
    """InitialData of the hyperbolic model: identity frame components of
    both g and h in the hyperboloid frame."""
    from admbondi.geometry import hyperboloid_frame
    from helpers import from_gp

    def gp(coords):
        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        return eye, eye
    return from_gp(gp, hyperboloid_frame(), "hyperbolic-background")


@pytest.fixture(scope="session")
def battery_run(tmp_path_factory):
    """One ``admbondi verify --out battery.json`` run, shared by the tests of
    the full battery: its exit code, JSON body and standard output."""
    from admbondi.cli import main
    out = tmp_path_factory.mktemp("battery") / "battery.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["verify", "--out", str(out)])
    return SimpleNamespace(code=code, body=json.loads(out.read_text()),
                           stdout=stdout.getvalue())


_DENSE = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv,
          "prod": lambda *factors: functools.reduce(operator.mul, factors)}


@contextlib.contextmanager
def _dense_arithmetic():
    """Evaluate with the structural-zero rule of ``admbondi.jets`` off.

    The helpers ``add``/``sub``/``mul``/``div``/``prod`` test for a
    structural zero inline, so they are replaced by the plain operators in
    ``jets`` (which the Jet methods and the linear algebra read) and in every
    admbondi module that imported them by name; ``_zero``, which the other
    skips read, answers False.
    """
    from admbondi import jets
    helpers = {name: getattr(jets, name) for name in _DENSE}
    modules = [m for k, m in sys.modules.items() if k.startswith("admbondi")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "_zero", lambda x: False)
        for mod in modules:
            for name, helper in helpers.items():
                if getattr(mod, name, None) is helper:
                    mp.setattr(mod, name, _DENSE[name])
        yield


@pytest.fixture(scope="session")
def dense_arithmetic():
    """A context manager under which every term of a structural zero is
    computed; session-scoped so that hypothesis tests can use it."""
    return _dense_arithmetic
