#!/usr/bin/env python3
"""Materialize the synthetic datasets as CSV files plus a ready-to-run
configuration, so runs can start from files instead of generator code.

Usage: python3 scripts/make_fixtures.py [--out DIR] [--horizon N] [--seed N]
"""

import argparse
import json
from pathlib import Path

from h2grid.ingest import (
    FIXTURE_KINDS,
    synth_fixture,
    write_grid_profile_csv,
    write_re_profile_csv,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="fixtures", help="target directory")
    ap.add_argument("--horizon", type=int, default=168)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for flag, value, low in (("--horizon", args.horizon, 1), ("--seed", args.seed, 0)):
        if value < low:
            ap.error(f"{flag} must be >= {low}, got {value}")

    root = Path(args.out)
    for kind in FIXTURE_KINDS:
        dataset = synth_fixture(kind, horizon=args.horizon, seed=args.seed)
        kind_dir = root / kind.replace("-", "_")
        kind_dir.mkdir(parents=True, exist_ok=True)
        zone_files = {}
        for zone_id, profile in dataset.zones.items():
            name = f"{zone_id.lower()}.csv"
            write_grid_profile_csv(profile, kind_dir / name)
            zone_files[zone_id] = name
        write_re_profile_csv(dataset.ref_wind, dataset.ref_pv,
                             kind_dir / "re.csv")
        config = {
            "horizon": args.horizon,
            "zone_files": zone_files,
            "re_profile_file": "re.csv",
            "zone": sorted(zone_files)[0],
            "out_dir": "out",
        }
        (kind_dir / "config.json").write_text(
            json.dumps(config, indent=2, sort_keys=True) + "\n")
        print(f"{kind}: {len(zone_files)} zone(s) -> {kind_dir}")


if __name__ == "__main__":
    main()
