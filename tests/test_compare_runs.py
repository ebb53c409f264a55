"""scripts/compare_runs.py, the common output gate between two runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_plain_lists_are_compared_only_under_gated_keys(tmp_path):
    """A list of plain values under an ungated key is not compared; a
    gated list and a list of records are."""
    a = write_run(tmp_path / "a", {**report(), "inputs": {"zone_files": []},
                                   "lcoh_with_recs_usd_per_kg": [37.0, 38.0],
                                   "points": [report()]})
    b = write_run(tmp_path / "b", {**report(), "inputs": {"zone_files": ["z1.csv"]},
                                   "lcoh_with_recs_usd_per_kg": [37.0],
                                   "points": [report(status="infeasible")]})
    code, lines = compare(a, b)
    assert code == 1
    assert lines == ["daily_report.json/lcoh_with_recs_usd_per_kg: 2 vs 1 entries",
                     "daily_report.json/points[0]/status: status 'optimal' vs 'infeasible'",
                     "2 files, 12 values compared, 2 mismatches"]


LP_TEXT = """\\ h2grid linear program
Minimize
 obj: 1250.5 c_store + 3.0 e_el_0
Subject To
 capex_cap: 95528657.76 c_el + 1250.5 c_store <= 95528657.76
Bounds
 0.0 <= c_pv <= 50000.0
End
"""


def write_lp_run(root: Path, text: str) -> Path:
    run = write_run(root, report())
    (run / "daily.lp").write_text(text)
    return run


def test_lp_numbers_within_the_gate_pass(tmp_path):
    a = write_lp_run(tmp_path / "a", LP_TEXT)
    moved = repr(1250.5 * (1 + 5e-15))
    b = write_lp_run(tmp_path / "b", LP_TEXT.replace(" 1250.5 c_store +", f" {moved} c_store +"))
    code, lines = compare(a, b)
    assert code == 0, lines
    assert lines[0] == "7 .lp numbers compared, largest relative difference 5.1e-15 at daily.lp:3"
    assert lines[1] == "3 files, 8 values compared, 0 mismatches"


@pytest.mark.parametrize("old, new, flagged", [
    ("capex_cap:", "capex_rows:", "daily.lp:5: 'capex_cap:' vs 'capex_rows:'"),
    ("<= 50000.0", f"<= {50000.0 * (1 + 1e-9)!r}",
     f"daily.lp:7: 50000.0 vs {50000.0 * (1 + 1e-9)!r}"),
])
def test_lp_text_or_numbers_past_the_gate_are_flagged(tmp_path, old, new, flagged):
    a = write_lp_run(tmp_path / "a", LP_TEXT)
    b = write_lp_run(tmp_path / "b", LP_TEXT.replace(old, new))
    code, lines = compare(a, b)
    assert code == 1
    assert lines[0] == flagged
    assert lines[-1].endswith("1 mismatches")


def test_root_that_is_not_a_directory_is_refused(tmp_path):
    """A missing root, or a file given as one, compares nothing and fails."""
    a = write_run(tmp_path / "a", report())
    for missing in (tmp_path / "missing", a / "daily_report.json"):
        for pair in ((a, missing), (missing, a)):
            done = subprocess.run([sys.executable, str(SCRIPT), *map(str, pair)],
                                  capture_output=True, text=True)
            assert done.returncode == 2
            assert done.stdout == ""
            assert done.stderr == f"{missing}: not a directory\n"


def test_trees_that_share_no_file_fail(tmp_path):
    """Two empty directories, or two runs with no file in common, compare
    nothing and fail."""
    empty_a, empty_b = tmp_path / "empty_a", tmp_path / "empty_b"
    empty_a.mkdir()
    empty_b.mkdir()
    a = write_run(tmp_path / "a", report())
    b = tmp_path / "b"
    b.mkdir()
    (b / "other_report.json").write_text(json.dumps(report()))
    for x, y in ((empty_a, empty_b), (a, b)):
        done = subprocess.run([sys.executable, str(SCRIPT), str(x), str(y)],
                              capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr == f"{x} and {y} share no JSON, CSV or .lp file\n"
