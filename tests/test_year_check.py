"""scripts/run_study.py's --record and --check, the year check's tools,
on a T=24 study (the year-scale runs themselves are too slow for the
tests)."""

import copy
import importlib
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
EI_MEF = "ei_mef_kgco2e_per_kgh2"


@pytest.fixture(scope="module")
def run_study():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SCRIPTS))
        yield importlib.import_module("run_study")


@pytest.fixture(scope="module")
def recorded(run_study, tmp_path_factory):
    """The reference file of a T=24 random-walk study, recorded with
    --record, and its study's summary."""
    root = tmp_path_factory.mktemp("study")
    reference = root / "reference.json"
    assert run_study.main(["--horizon", "24", "--out", str(root / "out"),
                           "--record", str(reference)]) == 0
    return reference, run_study.summarize(root / "out")


def test_check_reruns_the_recorded_study(run_study, recorded, tmp_path, capsys):
    """--check reruns the study its file records, at its kind, seed and
    horizon, and finds it unchanged; it takes none of the three flags."""
    reference, summary = recorded
    doc = json.loads(reference.read_text())
    assert doc == {"study": {"kind": "random-walk", "seed": 2, "horizon": 24},
                   "scenarios": summary}
    capsys.readouterr()
    assert run_study.main(["--check", str(reference), "--out", str(tmp_path / "again")]) == 0
    assert capsys.readouterr().out.endswith("\n18 scenarios checked, 0 mismatches\n")
    assert json.loads((tmp_path / "again" / "config.json").read_text()) == {
        "horizon": 24, "fixture": {"kind": "random-walk", "seed": 2}}
    for flag, value in [("--kind", "diurnal"), ("--seed", "2"), ("--horizon", "24")]:
        with pytest.raises(SystemExit) as exit_:
            run_study.main(["--check", str(reference), flag, value,
                            "--out", str(tmp_path / flag)])
        assert exit_.value.code == 2 and not (tmp_path / flag).exists()
        assert f"drop {flag}\n" in capsys.readouterr().err


def test_summary_holds_every_scenario_report(recorded):
    _, summary = recorded
    assert sorted(summary) == sorted(
        [f"suite/{s}" for s in ("offgrid", "sell_only", "daily", "monthly", "yearly",
                                "flexible", "mef_zero")]
        + ["sweep_re/offgrid"] + [f"sweep_re/re_{i:03d}" for i in range(7)]
        + ["sweep_geo/grid_only", "sweep_geo/geo_Z2", "solve_hourly/hourly"])
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
def test_check_flags_each_move_past_the_gate(run_study, recorded, move, expected):
    _, reference = recorded
    got = copy.deepcopy(reference)
    move(got)
    problems = run_study.mismatches(reference, got)
    assert len(problems) == len(expected), problems
    for line, start in zip(problems, expected):
        assert line.startswith(start)


@pytest.mark.parametrize("code", [1, 2])
def test_a_command_that_exits_1_stops_the_record(run_study, tmp_path, monkeypatch, code):
    """A command that exits 1 writes no reports, so --record stops rather
    than record what is left; one that exits 2 to 4 writes reports, so
    the study goes on, is recorded, and exits 1 at the end."""
    calls = []
    monkeypatch.setattr(run_study, "h2grid", lambda argv: calls.append(argv) or code)
    record = tmp_path / "reference.json"
    argv = ["--record", str(record), "--out", str(tmp_path / "out")]
    if code == 1:
        with pytest.raises(SystemExit, match="^h2grid suite exited with 1$"):
            run_study.main(argv)
        assert len(calls) == 1 and not record.exists()
    else:
        assert run_study.main(argv) == 1
        assert len(calls) == len(run_study.STUDY)
        assert json.loads(record.read_text()) == {"study": run_study.DEFAULTS,
                                                  "scenarios": {}}
