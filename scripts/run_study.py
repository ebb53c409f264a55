#!/usr/bin/env python3
"""The paper's three studies at one seed and horizon: `suite`,
`sweep-re --points 7` and `solve --scenario hourly` on the chosen fixture,
and `sweep-geo --sell-zones Z2` on two-zone-contrast. Each command writes
its reports and LP texts (.lp) under --out; the script prints each
command's wall time and each scenario's status, LCOH, `ei_market`, `ei_mef`.

Usage: python3 scripts/run_study.py [--kind KIND] [--seed N] [--horizon N]
                                    [--out DIR] [--record FILE | --check FILE]

--record writes the study (kind, seed, horizon) and each scenario's status,
LCOH, capacities, `ei_*` and storage iterations to FILE. --check reruns the
study FILE records and prints each mismatch under compare_runs.py's
tolerances, storage iterations exactly. A command that exits 1 writes no
reports, so it stops the study; after one that exits 2 to 4 the study goes
on. Exits 1 if a command exited non-zero or --check found a mismatch.

The year check, `--check tests/data/year_reference.json` (T=8760), takes a
few minutes and 0.4 GB, so neither the tests nor CI run it: run it with
src/ on PYTHONPATH before and after a change that moves a solve path.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from compare_runs import compare
from h2grid.cli import EXIT_INPUT, main as h2grid

DEFAULTS = {"kind": "random-walk", "seed": 2, "horizon": 168}
# (output directory, fixture kind or None for the chosen one, command), in run order
STUDY = [
    ("suite", None, ["suite"]),
    ("sweep_re", None, ["sweep-re", "--points", "7"]),
    ("sweep_geo", "two-zone-contrast", ["sweep-geo", "--sell-zones", "Z2"]),
    ("solve_hourly", None, ["solve", "--scenario", "hourly"]),
]


def run_study(out: Path, kind: str, seed: int, horizon: int) -> bool:
    """Run STUDY into out, each command with --export-lp, so that comparing
    two studies compares their models too. Returns whether each exited 0."""
    out.mkdir(parents=True, exist_ok=True)
    ok = True
    for directory, fixture, argv in STUDY:
        fixture = fixture or kind
        config = out / ("config.json" if fixture == kind else f"{fixture}.json")
        config.write_text(json.dumps({"horizon": horizon, "fixture": {
            "kind": fixture, "seed": seed}}, indent=2, sort_keys=True) + "\n")
        start = time.perf_counter()
        code = h2grid([*argv, "--config", str(config), "--export-lp",
                       "--out", str(out / directory)])
        if code == EXIT_INPUT:
            raise SystemExit(f"h2grid {argv[0]} exited with {code}")
        print(f"h2grid {' '.join(argv)} ({fixture}, seed {seed}, T={horizon}): "
              f"exit {code}, {time.perf_counter() - start:.2f} s", flush=True)
        ok = ok and code == 0
    return ok


def summarize(root: Path) -> dict:
    """Each scenario report under root, keyed by its path without
    `_report.json`: status, LCOH, capacities, any `ei_*`, iterations."""
    summary = {}
    for path in sorted(root.rglob("*_report.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        if "scenario_name" not in report:   # a command's summary of its scenarios
            continue
        name = path.relative_to(root).as_posix()[:-len("_report.json")]
        summary[name] = {
            "status": report["status"],
            "lcoh_usd_per_kg": report["lcoh_usd_per_kg"],
            "capacities": report["capacities"],
            "storage_iterations": report["iterations"],
            **{k: v for k, v in (report["emissions"] or {}).items() if k.startswith("ei_")},
        }
    return summary


def mismatches(reference: dict, got: dict) -> list[str]:
    """Each way got differs from reference past the gate, as a line."""
    problems = [f"{name}: only in {'the reference' if name in reference else 'this run'}"
                for name in sorted(reference.keys() ^ got.keys())]
    for name in sorted(reference.keys() & got.keys()):
        ref, run = reference[name], got[name]
        problems.extend(p for p in compare(ref, run, name) if p is not None)
        if ref["storage_iterations"] != run["storage_iterations"]:
            problems.append(f"{name}/storage_iterations: {ref['storage_iterations']} vs "
                            f"{run['storage_iterations']}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", help=f"synthetic fixture kind (default {DEFAULTS['kind']})")
    ap.add_argument("--seed", type=int, help=f"default {DEFAULTS['seed']}")
    ap.add_argument("--horizon", type=int, help=f"default {DEFAULTS['horizon']}")
    ap.add_argument("--out", type=Path, default=Path("study_out"))
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--record", metavar="FILE", type=Path)
    mode.add_argument("--check", metavar="FILE", type=Path)
    args = ap.parse_args(argv)
    chosen = {key: getattr(args, key) for key in DEFAULTS if getattr(args, key) is not None}
    if args.check is not None and chosen:
        ap.error(f"--check reruns the study FILE records; drop --{', --'.join(chosen)}")
    # read before the study, so that a missing or broken FILE fails at once
    reference = None if args.check is None else json.loads(args.check.read_text("utf-8"))
    study = {**DEFAULTS, **chosen} if reference is None else reference["study"]

    ok = run_study(args.out, **study)
    got = summarize(args.out)
    print(f"\n{'scenario':<22} {'status':<10} {'LCOH':>9} {'EI_mkt':>9} {'EI_mef':>9}")
    for name, row in got.items():
        cells = (row["lcoh_usd_per_kg"], row.get("ei_market_kgco2e_per_kgh2"),
                 row.get("ei_mef_kgco2e_per_kgh2"))
        print(f"{name:<22} {row['status']:<10} "
              + " ".join(f"{'-' if v is None else f'{v:.2f}':>9}" for v in cells))
    if args.record is not None:
        args.record.write_text(json.dumps({"study": study, "scenarios": got}, indent=2,
                                          sort_keys=True) + "\n", encoding="utf-8")
        print(f"{len(got)} scenarios recorded in {args.record}")
    if reference is not None:
        problems = mismatches(reference["scenarios"], got)
        print("\n".join([*problems, f"{len(got)} scenarios checked, {len(problems)} mismatches"]))
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
