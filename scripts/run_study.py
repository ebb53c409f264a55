#!/usr/bin/env python3
"""Desk-scale study: scenario suite, renewable-capacity sweep,
two-market sweep and a single hourly-matched solve (the one built-in
scenario the suite leaves out) on one synthetic week, with a compact
summary table. Each command writes its reports and each scenario's LP
text (.lp).

Usage: python3 scripts/run_study.py [--kind KIND] [--seed N] [--out DIR]
"""

import argparse
import json
from pathlib import Path

from h2grid.cli import main as h2grid


def run(argv) -> None:
    code = h2grid(argv)
    if code != 0:
        raise SystemExit(f"h2grid {' '.join(argv[:1])} exited with {code}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", default="random-walk",
                    help="synthetic fixture kind (two-zone-contrast enables "
                         "the geographic sweep)")
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--horizon", type=int, default=168)
    ap.add_argument("--out", default="study_out")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps({
        "horizon": args.horizon,
        "fixture": {"kind": args.kind, "seed": args.seed},
    }, indent=2, sort_keys=True) + "\n")

    # every command also writes each scenario's LP text, so that comparing
    # two study directories compares the models as well as the reports
    common = ["--config", str(config), "--export-lp"]
    run(["suite", *common, "--out", str(out / "suite")])
    run(["sweep-re", *common, "--points", "7", "--out", str(out / "sweep_re")])
    if args.kind == "two-zone-contrast":
        run(["sweep-geo", *common, "--sell-zones", "Z2", "--out", str(out / "sweep_geo")])
    run(["solve", *common, "--scenario", "hourly", "--out", str(out / "solve_hourly")])

    doc = json.loads((out / "suite" / "suite_report.json").read_text())
    print(f"\n{'scenario':<12} {'status':<10} {'LCOH':>9} {'EI_mkt':>8} "
          f"{'EI_mef':>8}")
    for row in doc["scenarios"]:
        lcoh = row["lcoh_usd_per_kg"]
        mkt = row["ei_market_kgco2e_per_kgh2"]
        mef = row["ei_mef_kgco2e_per_kgh2"]
        print(f"{row['scenario']:<12} {row['status']:<10} "
              f"{lcoh:>9.2f} {mkt:>8.2f} {mef:>8.2f}"
              if lcoh is not None else
              f"{row['scenario']:<12} {row['status']:<10} {'-':>9}")
    print(f"\noutputs in {out}/")


if __name__ == "__main__":
    main()
