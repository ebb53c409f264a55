"""Correctness gate over the files one CLI command wrote.

A scenario passes when its report says optimal, its dispatch CSV rebuilds
into a dispatch that passes `plant.verify_conservation`, and `certify`
recomputed from that dispatch and the zone data the program was given
reproduces every reported emissions intensity within 1e-9 relative. A
scenario with no report, or one that is not optimal, fails: it is counted,
never dropped. A missing report is also a gate problem, unless the command
stopped early on a failed solve.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from h2grid.certification import certify
from h2grid.plant import Dispatch, verify_conservation

REL_TOL = 1e-9
EI_KEYS = {"ei_market": "ei_market_kgco2e_per_kgh2",
           "ei_recs": "ei_recs_kgco2e_per_kgh2",
           "ei_location": "ei_location_kgco2e_per_kgh2",
           "ei_mef": "ei_mef_kgco2e_per_kgh2",
           "ei_aef": "ei_aef_kgco2e_per_kgh2"}
_DISPATCH_COLUMNS = ["gen_wind_kw", "gen_pv_kw", "e_el_kw", "e_comp1_kw",
                     "e_comp2_kw", "import_kw", "export_kw", "curtail_kw",
                     "h_comp1_kg", "h_comp2_kg", "h_from_store_kg", "soc_kg"]


@dataclass(frozen=True)
class Outcome:
    scenario: str
    status: str          # the report's status, or "missing"
    problem: str = ""    # why the gate failed an optimal scenario

    @property
    def failed(self) -> bool:
        return self.status != "optimal" or bool(self.problem)


def read_dispatch(path: Path, capacities: dict) -> Dispatch:
    """Rebuild a Dispatch from its CSV. The CSV omits the electrolyser
    output and the initial storage level; they follow from the split
    balance (h_el = h_comp1 + h_comp2) and cyclic closure (soc0 = soc[T-1])."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if header != ["hour"] + _DISPATCH_COLUMNS:
        raise ValueError(f"{path.name}: unexpected header {header}")
    if [int(r[0]) for r in body] != list(range(len(body))):
        raise ValueError(f"{path.name}: hours are not 0..T-1 in order")
    cols = {name: np.array([float(r[i + 1]) for r in body])
            for i, name in enumerate(_DISPATCH_COLUMNS)}
    return Dispatch(
        gen_wind_kw=cols["gen_wind_kw"], gen_pv_kw=cols["gen_pv_kw"],
        e_el_kw=cols["e_el_kw"], e_comp1_kw=cols["e_comp1_kw"],
        e_comp2_kw=cols["e_comp2_kw"], import_kw=cols["import_kw"],
        export_kw=cols["export_kw"], curtail_kw=cols["curtail_kw"],
        h_el_kg=cols["h_comp1_kg"] + cols["h_comp2_kg"],
        h_comp1_kg=cols["h_comp1_kg"], h_comp2_kg=cols["h_comp2_kg"],
        h_from_store_kg=cols["h_from_store_kg"], soc_kg=cols["soc_kg"],
        c_wind_kw=float(capacities["wind_kw"]), c_pv_kw=float(capacities["pv_kw"]),
        c_el_kw=float(capacities["electrolyser_kw"]),
        c_store_kg=float(capacities["storage_kg"]),
        soc0_kg=float(cols["soc_kg"][-1]))


def check_scenario(out_dir: Path, name: str, zones: dict,
                   load_kg_per_h: float) -> Outcome:
    report_path = out_dir / f"{name}_report.json"
    if not report_path.exists():
        return Outcome(name, "missing")
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        status = report["status"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(name, "unreadable", f"report: {exc!r}")
    if status != "optimal":
        return Outcome(name, status)
    try:
        dispatch = read_dispatch(out_dir / f"{name}_dispatch.csv",
                                 report["capacities"])
        problems = verify_conservation(dispatch, load_kg_per_h)
        if problems:
            return Outcome(name, status, "conservation: " + "; ".join(problems))
        geo = report["scenario"]["geo"]
        if "zone" in geo:
            emissions = certify(dispatch, zones[geo["zone"]])
        else:
            emissions = certify(dispatch, zones[geo["buy_zone"]],
                                zones[geo["sell_zone"]])
        reported = report["emissions"]
        for attr, key in EI_KEYS.items():
            mine, theirs = getattr(emissions, attr), reported[key]
            if not math.isclose(mine, theirs, rel_tol=REL_TOL, abs_tol=0.0):
                return Outcome(name, status,
                               f"{key}: reported {theirs}, recomputed {mine}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(name, status, f"outputs unreadable or inconsistent: {exc!r}")
    return Outcome(name, status)


def check_command(out_dir: Path, inputs, code: int) -> list[Outcome]:
    """Outcomes of every scenario of a command that exited with `code`.

    A command may leave reports unwritten only when it stopped on a failed
    solve (sweep-re after an infeasible offgrid baseline): it exited
    nonzero and a report it did write is not optimal. Otherwise a missing
    report means the command skipped work, and the gate says so."""
    outcomes = [check_scenario(out_dir, name, inputs.zones, inputs.load_kg_per_h)
                for name in inputs.scenarios]
    stopped = code != 0 and any(o.status not in ("optimal", "missing")
                                for o in outcomes)
    return [replace(o, problem="no report written")
            if o.status == "missing" and not stopped else o
            for o in outcomes]


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the command wrote, by relative path."""
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def byte_mismatches(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    return sorted(name for name in reference.keys() | other.keys()
                  if reference.get(name) != other.get(name))
