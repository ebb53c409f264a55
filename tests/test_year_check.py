"""scripts/year_check.py's summary and comparison, on a T=168 study tree
written by scripts/run_study.py (the year-scale runs themselves are too
slow for the tests)."""

import copy
import importlib
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
EI_MEF = "ei_mef_kgco2e_per_kgh2"


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """year_check's module and its summary of a T=168 random-walk study."""
    out = tmp_path_factory.mktemp("study")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SCRIPTS))
        mp.setattr(sys, "argv", ["run_study.py", "--out", str(out)])
        import run_study
        import year_check
        run_study.main()
    return year_check, year_check.summarize(out)


def test_summary_holds_every_scenario_report(study):
    _, summary = study
    assert sorted(summary) == sorted(
        [f"suite/{s}" for s in ("offgrid", "sell_only", "daily", "monthly", "yearly",
                                "flexible", "mef_zero")]
        + ["sweep_re/offgrid"] + [f"sweep_re/re_{i:03d}" for i in range(7)]
        + ["solve_hourly/hourly"])
    daily = summary["suite/daily"]
    assert daily["status"] == "optimal" and daily["storage_iterations"] >= 1
    assert set(daily) == {"status", "lcoh_usd_per_kg", "capacities", "storage_iterations",
                          "ei_aef_kgco2e_per_kgh2", "ei_location_kgco2e_per_kgh2",
                          "ei_market_kgco2e_per_kgh2", EI_MEF, "ei_recs_kgco2e_per_kgh2"}
    assert set(daily["capacities"]) == {"electrolyser_kw", "pv_kw", "storage_kg", "wind_kw"}


def _scale_ei(factor):
    def move(summary):
        summary["suite/daily"][EI_MEF] *= factor
    return move


def _set(name, key, value):
    def move(summary):
        summary[name][key] = value
    return move


def _drop(name):
    def move(summary):
        del summary[name]
    return move


@pytest.mark.parametrize("move, expected", [
    (lambda summary: None, []),
    (_scale_ei(1 + 5e-10), []),
    (_scale_ei(1 + 1e-8), ["suite/daily/" + EI_MEF]),
    (_set("sweep_re/re_003", "status", "infeasible"),
     ["sweep_re/re_003/status: status 'optimal' vs 'infeasible'"]),
    (_set("suite/monthly", "storage_iterations", 99), ["suite/monthly/storage_iterations"]),
    (_drop("suite/yearly"), ["suite/yearly: only in the reference"]),
], ids=["itself", "ei-inside-the-gate", "ei-past-the-gate", "status", "iterations",
        "missing-scenario"])
def test_check_flags_each_move_past_the_gate(study, move, expected):
    year_check, reference = study
    got = copy.deepcopy(reference)
    move(got)
    problems = year_check.mismatches(reference, got)
    assert len(problems) == len(expected), problems
    for line, start in zip(problems, expected):
        assert line.startswith(start)


@pytest.mark.parametrize("code", [1, 2])
def test_a_command_that_exits_1_stops_the_record(tmp_path, monkeypatch, capsys, code):
    """A command that exits 1 writes no reports, so --record stops rather
    than record what is left; one that exits 2 to 4 writes reports, so
    the run goes on."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    year_check = importlib.import_module("year_check")
    calls = []
    monkeypatch.setattr(year_check, "h2grid", lambda argv: calls.append(argv) or code)
    record = tmp_path / "reference.json"
    monkeypatch.setattr(sys, "argv", ["year_check.py", "--record", str(record)])
    if code == 1:
        with pytest.raises(SystemExit, match="^h2grid suite exited with 1$"):
            year_check.main()
        assert len(calls) == 1 and not record.exists()
    else:
        assert year_check.main() == 0
        assert len(calls) == len(year_check.COMMANDS) and record.read_text() == "{}\n"
