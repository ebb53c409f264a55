#!/usr/bin/env python3
"""Year-scale output check: the paper's three studies at T=8760 hours,
against a committed reference.

Usage: python3 scripts/year_check.py --record FILE | --check FILE

Runs `suite` and `sweep-re --points 7` on the random-walk fixture (seed
2) and `sweep-geo --sell-zones Z2` on the two-zone-contrast fixture
(seed 2), all at T=8760, into a temporary directory. Each scenario
report is summarised by its status, LCOH, capacities, `ei_*`
intensities and storage-pricing iterations.

--record writes that summary to FILE (the committed one is
tests/data/year_reference.json). --check compares it with FILE under
compare_runs.py's tolerances: every status the same; LCOH, capacities
and `ei_*` within 1e-9 relative, a value under 1e-7 counting as zero;
and storage iterations equal, since a moved count is another solve
path. It prints each mismatch and exits 1 if there is any, else 0.
With either flag it prints the wall time of each command as it ends.

A run takes a few minutes and about 0.4 GB of memory, so it is not part
of the tests or of CI. Run it from the repository root with src/ on
PYTHONPATH, before and after any change that moves a solve path.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from compare_runs import compare
from h2grid.cli import EXIT_INPUT, main as h2grid

HORIZON = 8760
SEED = 2
# (output directory, fixture kind, command after `h2grid`), in run order
COMMANDS = [
    ("suite", "random-walk", ["suite"]),
    ("sweep_re", "random-walk", ["sweep-re", "--points", "7"]),
    ("sweep_geo", "two-zone-contrast", ["sweep-geo", "--sell-zones", "Z2"]),
]


def summarize(root: Path) -> dict:
    """Each scenario report under root, keyed by its path relative to
    root without `_report.json`: its status, LCOH, capacities, `ei_*`
    intensities (none when it has no emissions) and storage
    iterations."""
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
    """Each way got differs from reference past the gate, as a line of
    text."""
    problems = [f"{name}: only in {'the reference' if name in reference else 'this run'}"
                for name in sorted(reference.keys() ^ got.keys())]
    for name in sorted(reference.keys() & got.keys()):
        ref, run = reference[name], got[name]
        problems.extend(p for p in compare(ref, run, name) if p is not None)
        if ref["storage_iterations"] != run["storage_iterations"]:
            problems.append(f"{name}/storage_iterations: {ref['storage_iterations']} vs "
                            f"{run['storage_iterations']}")
    return problems


def run_year(out: Path) -> dict:
    """Run every command at T=8760 into out, and summarize it. A command
    that exits 1 (an input error, or a scipy without the HiGHS binding)
    writes no reports, so it stops the run; one that exits 2 to 4 writes
    reports whose statuses are compared."""
    for directory, kind, argv in COMMANDS:
        config = out / f"{kind}.json"
        config.write_text(json.dumps({"horizon": HORIZON,
                                      "fixture": {"kind": kind, "seed": SEED}}) + "\n")
        print(f"h2grid {' '.join(argv)} ({kind}, seed {SEED}, T={HORIZON})", flush=True)
        start = time.perf_counter()
        code = h2grid([*argv, "--config", str(config), "--out", str(out / directory)])
        if code == EXIT_INPUT:
            raise SystemExit(f"h2grid {' '.join(argv)} exited with {code}")
        print(f"h2grid {argv[0]}: {time.perf_counter() - start:.2f} s", flush=True)
    return summarize(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="FILE", type=Path)
    mode.add_argument("--check", metavar="FILE", type=Path)
    args = ap.parse_args()
    # read before the runs, so that a missing or broken FILE fails at once
    reference = None if args.check is None else json.loads(args.check.read_text("utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        got = run_year(Path(tmp))
    if args.record is not None:
        args.record.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
        print(f"{len(got)} scenarios recorded in {args.record}")
        return 0
    problems = mismatches(reference, got)
    for line in problems:
        print(line)
    print(f"{len(got)} scenarios checked, {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
