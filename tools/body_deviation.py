"""State how far two sets of README preset bodies are apart.

    python tools/body_deviation.py OLD NEW

OLD and NEW are output directories of ``tools/preset_bodies.py`` (for
instance of a parent checkout and of a change).  For every file that
differs it prints the largest absolute and the largest relative deviation
of any number, with the path of that number: a JSON value, a CSV cell, or a
number written inside a string (a check's ``detail``) whose other text is
unchanged.  Other differences are listed as text.

The script exits 1 when a ``passed`` flag differs, or when a file, a key, a
list entry or a CSV cell is present on one side only; otherwise 0.
"""

import csv
import json
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def leaves(x, path=""):
    """(path, leaf) for every scalar of a JSON value; a list entry that is
    an object with a ``name`` is labelled by that name."""
    if isinstance(x, dict):
        for k in sorted(x):
            yield from leaves(x[k], f"{path}.{k}" if path else k)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            label = v["name"] if isinstance(v, dict) and "name" in v else i
            yield from leaves(v, f"{path}[{label}]")
    else:
        yield path, x


def csv_leaves(text):
    """(path, cell) for every CSV cell, as <row label>.<column header>."""
    rows = list(csv.reader(text.splitlines()))
    header = rows[0] if rows else []
    yield from ((f"header[{j}]", h) for j, h in enumerate(header))
    for i, row in enumerate(rows[1:], start=1):
        for j, cell in enumerate(row):
            column = header[j] if j < len(header) else str(j)
            yield f"{row[0] if row else i}.{column}", cell


def _numbers(a, b):
    """The pairs of numbers of two leaves, or None if they differ otherwise.

    Numbers pair with numbers; strings pair their embedded numbers if the
    text around them is the same.
    """
    def is_number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)
    if is_number(a) and is_number(b):
        return [(float(a), float(b))]
    if isinstance(a, str) and isinstance(b, str) \
            and NUMBER.split(a) == NUMBER.split(b):
        return [(float(x), float(y))
                for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))]
    return None


def _relative(old, new):
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old != 0.0 else math.inf


def compare(old_text, new_text, is_csv):
    """Deviations between two bodies: a dict with the number of differing
    numbers, the largest absolute and relative deviation as
    (deviation, path, old, new), and the lists of text, flag and
    one-sided differences as (path, old, new)."""
    if is_csv:
        old, new = dict(csv_leaves(old_text)), dict(csv_leaves(new_text))
    else:
        old = dict(leaves(json.loads(old_text)))
        new = dict(leaves(json.loads(new_text)))
    out = {"numbers": 0, "abs": None, "rel": None,
           "text": [], "flags": [], "missing": []}
    for path in sorted(old.keys() | new.keys()):
        if path not in old or path not in new:
            out["missing"].append((path, old.get(path), new.get(path)))
            continue
        a, b = old[path], new[path]
        if a == b:
            continue
        if path == "passed" or path.endswith(".passed"):
            out["flags"].append((path, a, b))
            continue
        pairs = _numbers(a, b)
        if pairs is None:
            out["text"].append((path, a, b))
            continue
        for x, y in pairs:
            if x == y:
                continue
            out["numbers"] += 1
            for key, dev in (("abs", abs(y - x)), ("rel", _relative(x, y))):
                if out[key] is None or dev > out[key][0]:
                    out[key] = (dev, path, x, y)
    return out


def report(old_dir, new_dir):
    """Print the deviation of every differing file; returns the exit code."""
    names = sorted({p.name for p in old_dir.iterdir()}
                   | {p.name for p in new_dir.iterdir()})
    code = 0
    differing = 0
    for name in names:
        a, b = old_dir / name, new_dir / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {'OLD' if a.exists() else 'NEW'}")
            code = 1
            continue
        old_text, new_text = a.read_text(), b.read_text()
        if old_text == new_text:
            continue
        differing += 1
        d = compare(old_text, new_text, name.endswith(".csv"))
        print(f"{name}: {d['numbers']} numbers differ")
        for key, label in (("abs", "max abs"), ("rel", "max rel")):
            if d[key] is not None:
                dev, path, x, y = d[key]
                print(f"  {label} {dev:.3g} at {path} ({x!r} -> {y!r})")
        for kind in ("flags", "missing", "text"):
            for path, x, y in d[kind]:
                print(f"  {kind} {path}: {x!r} -> {y!r}")
        if d["flags"] or d["missing"]:
            code = 1
    print(f"{differing} of {len(names)} files differ; "
          + ("passed flags and structure unchanged" if code == 0
             else "a passed flag, file or entry differs"))
    return code


def cli():
    if len(sys.argv) != 3:
        print("usage: python tools/body_deviation.py OLD NEW",
              file=sys.stderr)
        return 2
    return report(Path(sys.argv[1]), Path(sys.argv[2]))


if __name__ == "__main__":
    sys.exit(cli())
