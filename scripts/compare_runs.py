#!/usr/bin/env python3
"""Compare the outputs of two h2grid runs with the common output gate.

Usage: python3 scripts/compare_runs.py A B

A and B are output directories (or trees of them) of the same commands,
for instance before and after a change that is not meant to move
results. Every JSON and CSV file must exist on both sides, and in each:

- every `status` must be the same;
- every LCOH (`lcoh*`), capacity (`capacities`, `baseline_capacities`,
  `c_wind_kw`, `c_pv_kw`, `c_el_kw`, `c_store_kg`) and emission
  intensity (`ei_*`) must agree within 1e-9 relative, where a value
  under 1e-7 in magnitude counts as zero (the snap of extract_dispatch).

Other fields, and `.lp` files, are not compared. Prints each mismatch
and exits 1 if there is any, else prints what was compared and exits 0.
"""

import csv
import json
import sys
from pathlib import Path

REL_TOL = 1e-9
ZERO_BELOW = 1e-7
CAPACITY_KEYS = {"capacities", "baseline_capacities"}
CAPACITY_FIELDS = {"c_wind_kw", "c_pv_kw", "c_el_kw", "c_store_kg"}


def gated(key: str, parents: tuple) -> bool:
    """Whether a numeric field under this key is compared."""
    return (key.startswith(("lcoh", "ei_")) or key in CAPACITY_FIELDS
            or any(p in CAPACITY_KEYS for p in parents))


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    a, b = (0.0 if abs(v) < ZERO_BELOW else float(v) for v in (a, b))
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(a, b, where: str, key: str = "", parents: tuple = ()):
    """Mismatches between two parsed values, each as a line of text;
    also yields None for each value compared."""
    if isinstance(a, dict) and isinstance(b, dict):
        if key:
            parents = parents + (key,)
        for k in sorted(set(a) | set(b)):
            wanted = k == "status" or gated(k, parents)
            if k not in a or k not in b:
                if wanted:
                    yield f"{where}/{k}: only on one side"
            elif wanted or isinstance(a[k], (dict, list)):
                yield from compare(a[k], b[k], f"{where}/{k}", k, parents)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{where}: {len(a)} vs {len(b)} entries"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from compare(x, y, f"{where}[{i}]", key, parents)
    elif key == "status":
        yield None if a == b else f"{where}: status {a!r} vs {b!r}"
    elif gated(key, parents) and not isinstance(a, (str, bool)) and not isinstance(b, (str, bool)):
        yield None if close(a, b) else f"{where}: {a!r} vs {b!r}"


def load(path: Path):
    """A JSON file as parsed, or a CSV file as a list of rows, each keyed
    by the header of its compared columns (gated cells as floats, empty
    cells as None)."""
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        keep = [(i, k) for i, k in enumerate(header) if k == "status" or gated(k, ())]
        return [{k: None if row[i] == "" else row[i] if k == "status" else float(row[i])
                 for i, k in keep} for row in reader]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = [Path(p) for p in argv]
    files = [{p.relative_to(root) for p in root.rglob("*") if p.suffix in (".json", ".csv")}
             for root in roots]
    problems, compared = [], 0
    for rel in sorted(files[0] ^ files[1]):
        problems.append(f"{rel}: only in {roots[0] if rel in files[0] else roots[1]}")
    for rel in sorted(files[0] & files[1]):
        for found in compare(load(roots[0] / rel), load(roots[1] / rel), str(rel)):
            if found is None:
                compared += 1
            else:
                problems.append(found)
    for line in problems:
        print(line)
    print(f"{len(files[0] & files[1])} files, {compared} values compared, "
          f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
