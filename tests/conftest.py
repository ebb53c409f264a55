"""Shared fixtures: synthetic week-long datasets and solved scenarios
that several test modules reuse. Session-scoped because solves are the
expensive part of the suite."""

import pytest

from h2grid import lp
from h2grid.economics import optimize_plant
from h2grid.ingest import synth_fixture
from h2grid.types import (
    CapacitySpec,
    CoLocated,
    Fixed,
    Mode,
    PlantParameters,
    ScenarioSpec,
)

WEEK = 168


def pytest_addoption(parser):
    parser.addoption("--public-linprog", action="store_true",
                     help="solve through scipy.optimize.linprog, as on a scipy "
                          "without the HiGHS binding h2grid.lp uses")


@pytest.fixture(scope="session", autouse=True)
def solver_backend(request):
    """Under --public-linprog, hide the HiGHS binding for the whole run."""
    if not request.config.getoption("--public-linprog"):
        yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_load_highs", lambda: None)
        yield


@pytest.fixture(scope="session")
def params():
    return PlantParameters()


@pytest.fixture(scope="session")
def flat_week():
    return synth_fixture("flat", horizon=WEEK, seed=0)


@pytest.fixture(scope="session")
def diurnal_week():
    return synth_fixture("diurnal", horizon=WEEK, seed=1)


@pytest.fixture(scope="session")
def walk_week():
    return synth_fixture("random-walk", horizon=WEEK, seed=2)


@pytest.fixture(scope="session")
def contrast_week():
    return synth_fixture("two-zone-contrast", horizon=WEEK, seed=0)


def recording_backend(monkeypatch, replace=None):
    """Patch lp.linprog to record (warm?, result) per call; replace(basis)
    may return a result to use instead of the real run."""
    calls, inner = [], lp.linprog

    def backend(c, basis=None, **kwargs):
        res = replace(basis) if replace is not None else None
        res = res if res is not None else inner(c, basis=basis, **kwargs)
        calls.append((basis is not None, res))
        return res

    monkeypatch.setattr(lp, "linprog", backend)
    return calls


def grid_only_scenario(name="grid_only"):
    """Flexible grid trade with renewables and storage pinned to zero:
    the one-knob scenario whose optimum is a closed-form expression."""
    caps = CapacitySpec(wind_kw=Fixed(0.0), pv_kw=Fixed(0.0),
                        storage_kg=Fixed(0.0))
    return ScenarioSpec(name, Mode.GRID, CoLocated("Z1"), caps)


@pytest.fixture(scope="session")
def flat_grid_only(flat_week, params):
    """Solved grid-only flexible plant on the flat week."""
    report, breakdown = optimize_plant(grid_only_scenario(), params, flat_week)
    assert report.is_optimal, report.message
    return report, breakdown
