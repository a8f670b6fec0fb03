"""Report records and deterministic serialisation.

The JSON body is reproducible byte-for-byte for identical inputs; wall-clock
information lives in a separate metadata block that callers may strip when
comparing runs.
"""

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

SCHEMA_VERSION = 2

__all__ = ["CheckResult", "ChargeReport", "COMPARATORS", "report_json",
           "write_json", "SCHEMA_VERSION"]

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

    def as_dict(self):
        return {"name": self.name, "passed": self.passed,
                "value": _jsonable(self.value), "tolerance": self.tolerance,
                "comparator": self.comparator, "detail": self.detail}

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: value={self.value:.6g} " \
               f"tol={self.tolerance:.3g} {self.detail}".rstrip()


@dataclass
class ChargeReport:
    scenario: str
    kind: str                      # "adm" | "null" | "bondi"
    charges: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    dec_min_margin: float = None
    pmt_margin: float = None
    decay_exponents: dict = field(default_factory=dict)
    checks: tuple = ()

    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "kind": self.kind,
            "charges": _jsonable(self.charges),
            "samples": _jsonable(self.samples),
            "residuals": _jsonable(self.residuals),
            "dec_min_margin": _jsonable(self.dec_min_margin),
            "pmt_margin": _jsonable(self.pmt_margin),
            "decay_exponents": _jsonable(self.decay_exponents),
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed(),
        }


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and (np.isnan(x) or np.isinf(x)):
        return repr(x)
    return x


def report_json(body):
    """Serialise with sorted keys; metadata block holds the timestamp."""
    from . import __version__
    out = dict(body)
    out["metadata"] = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def write_json(path, body):
    text = report_json(body)
    with open(path, "w") as f:
        f.write(text)
    return text
