"""scripts/compare_runs.py, the common output gate between two runs."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_runs.py"


def report(status="optimal", storage_kg=0.0, lcoh=36.5, ei_mef=4.7):
    return {"status": status, "lcoh_usd_per_kg": lcoh, "message": "",
            "capacities": {"storage_kg": storage_kg, "pv_kw": 39254.5},
            "emissions": {"ei_mef_kgco2e_per_kgh2": ei_mef, "e_mef_kgco2e": 7e5}}


def write_run(root: Path, daily: dict, csv_rows=("optimal,36.5,0.0",)) -> Path:
    root.mkdir()
    (root / "daily_report.json").write_text(json.dumps(daily))
    (root / "sweep_re.csv").write_text("\n".join(["status,lcoh_usd_per_kg,c_store_kg",
                                                  *csv_rows]) + "\n")
    return root


def compare(a: Path, b: Path):
    done = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def test_noise_under_the_floor_passes(tmp_path):
    a = write_run(tmp_path / "a", report(storage_kg=0.0))
    b = write_run(tmp_path / "b", report(storage_kg=1e-9, lcoh=36.5 * (1 + 5e-10)),
                  ["optimal,36.5,1e-9"])
    code, lines = compare(a, b)
    assert code == 0, lines
    assert lines == ["2 files, 8 values compared, 0 mismatches"]


def test_status_change_is_flagged(tmp_path):
    a = write_run(tmp_path / "a", report())
    b = write_run(tmp_path / "b", report(status="infeasible"), ["infeasible,,"])
    code, lines = compare(a, b)
    assert code == 1
    assert "daily_report.json/status: status 'optimal' vs 'infeasible'" in lines
    assert "sweep_re.csv[0]/status: status 'optimal' vs 'infeasible'" in lines
    assert "sweep_re.csv[0]/lcoh_usd_per_kg: 36.5 vs None" in lines


def test_moves_past_the_gate_are_flagged(tmp_path):
    a = write_run(tmp_path / "a", report(storage_kg=0.0))
    b = write_run(tmp_path / "b", report(storage_kg=2e-7, ei_mef=4.7 * (1 + 2e-9)))
    (b / "extra.json").write_text("{}")
    code, lines = compare(a, b)
    assert code == 1
    assert lines[:3] == [f"extra.json: only in {b}",
                         "daily_report.json/capacities/storage_kg: 0.0 vs 2e-07",
                         "daily_report.json/emissions/ei_mef_kgco2e_per_kgh2: "
                         f"4.7 vs {4.7 * (1 + 2e-9)!r}"]
    assert lines[-1].endswith("3 mismatches")
