import contextlib
import io
import json
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
