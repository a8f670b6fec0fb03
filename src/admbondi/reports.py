"""Report records and deterministic serialisation.

The JSON body is reproducible byte-for-byte for identical inputs; wall-clock
information lives in a separate metadata block that callers may strip when
comparing runs.
"""

import json
import math
import os
import platform
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone

import numpy as np

SCHEMA_VERSION = 3

__all__ = ["CheckResult", "ChargeReport", "COMPARATORS", "jsonable",
           "report_json", "write_json", "SCHEMA_VERSION"]

# The pass rules, keyed by the formula a report records.  A NaN value fails
# each of them; +-inf compares as a number (an exact zero decays at order inf).
COMPARATORS = {
    "abs(value) <= tolerance": lambda v, t: abs(v) <= t,
    "value <= tolerance": lambda v, t: v <= t,
    "value >= tolerance": lambda v, t: v >= t,
    "value >= -tolerance": lambda v, t: v >= -t,
}


@dataclass
class CheckResult:
    """One named check; ``passed`` is ``COMPARATORS[comparator](value,
    tolerance)``, so the flag can be recomputed from the report alone."""

    name: str
    value: float
    tolerance: float
    comparator: str
    detail: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        self.value = float(self.value)
        self.passed = COMPARATORS[self.comparator](self.value, self.tolerance)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: value={self.value:.6g} " \
               f"tol={self.tolerance:.3g} {self.detail}".rstrip()


@dataclass
class ChargeReport:
    scenario: str
    kind: str                      # "adm" | "null" | "bondi" | "verify"
    charges: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)      # beside each charge
    fits: dict = field(default_factory=dict)        # LadderFit, DecayFit
    dec_min_margin: float = None
    pmt_margin: float = None
    decay_exponents: dict = field(default_factory=dict)
    checks: tuple = ()

    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {**jsonable(self), "schema_version": SCHEMA_VERSION,
                "passed": self.passed()}


def jsonable(x):
    """x as plain JSON values: a dataclass record becomes the dict of its
    fields, and a non-finite number the string "nan", "inf" or "-inf"."""
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, np.generic):
        return jsonable(x.item())
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def report_json(body):
    """Serialise ``jsonable(body)`` as strict JSON with sorted keys; a
    metadata block holds the timestamp and the run environment (tool,
    numpy and Python versions, CPU count)."""
    from . import __version__
    out = jsonable(body)
    out["metadata"] = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    return json.dumps(out, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, body):
    text = report_json(body)
    with open(path, "w") as f:
        f.write(text)
    return text
