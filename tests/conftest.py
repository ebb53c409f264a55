"""Shared fixtures: synthetic week-long datasets and solved scenarios
that several test modules reuse. Session-scoped because solves are the
expensive part of the suite. Also the helpers several modules import:
`constant_series`, `read_back`, `recording_backend`, `recording_highs`,
`grid_only_scenario`."""

import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from h2grid import lp
from h2grid.economics import optimize_plant
from h2grid.ingest import synth_fixture
from h2grid.types import (
    CapacityBound,
    CapacitySpec,
    CoLocated,
    HourlySeries,
    Mode,
    PlantParameters,
    ScenarioSpec,
)

WEEK = 168


def constant_series(value, unit, horizon):
    """value at every hour of the horizon."""
    return HourlySeries(np.full(horizon, float(value)), unit)


class Row(NamedTuple):
    name: str
    sense: lp.Sense
    rhs: float
    coeffs: dict  # variable id -> coefficient, in column order


class ModelView(NamedTuple):
    """An LpModel read back from its arrays as plain Python values."""

    names: list        # variable names
    bounds: list       # (lower, upper) per variable
    rows: dict         # constraint id -> Row
    objective: dict    # variable id -> coefficient
    constant: float    # objective constant

    def value(self, x) -> float:
        """The objective at x, summed exactly."""
        return math.fsum(c * float(x[v]) for v, c in self.objective.items()) + self.constant


def read_back(model: lp.LpModel) -> ModelView:
    """What the model holds, read from its private arrays, so that tests
    and the reference checks need no read-back API in h2grid.lp."""
    lb, ub, sense, rhs, A = model._arrays()
    rows = {}
    for cid in range(A.shape[0]):
        lo, hi = A.indptr[cid], A.indptr[cid + 1]
        rows[cid] = Row(model._row_names[cid], lp.Sense(sense[cid]), float(rhs[cid]),
                        dict(zip(A.indices[lo:hi].tolist(), A.data[lo:hi].tolist())))
    cols, coefs, constant = model._obj
    return ModelView(list(model._var_names), list(zip(lb.tolist(), ub.tolist())), rows,
                     dict(zip(cols.tolist(), coefs.tolist())), constant)


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


def recording_backend(monkeypatch, replace=None, bases=None):
    """Patch lp.linprog to record (warm?, result) per call, and each
    call's starting basis in the list bases when it is given;
    replace(basis) may return a result to use instead of the real run."""
    calls, inner = [], lp.linprog

    def backend(c, basis=None, **kwargs):
        res = replace(basis) if replace is not None else None
        res = res if res is not None else inner(c, basis=basis, **kwargs)
        calls.append((basis is not None, res))
        if bases is not None:
            bases.append(basis)
        return res

    monkeypatch.setattr(lp, "linprog", backend)
    return calls


class HighsRun(NamedTuple):
    """One HiGHS run: the options linprog gave it, the simplex variant of
    each "Using EKK ... simplex solver" line of its log ("primal" or
    "dual"; none when the run starts optimal), and its iterations."""

    presolve: str
    simplex_strategy: int
    edge_weights: int  # simplex_dual_edge_weight_strategy
    variants: tuple
    iterations: int

    @property
    def options(self) -> tuple:
        return self.presolve, self.simplex_strategy, self.edge_weights


def recording_highs(monkeypatch, log_dir):
    """Patch HiGHS's solver class to record one HighsRun per run, in run
    order; each run logs to its own file in log_dir."""
    core, runs = lp._load_highs(), []

    class Recording(core._Highs):
        def run(self):
            got = self.getOptions()
            options = (got.presolve, got.simplex_strategy,
                       got.simplex_dual_edge_weight_strategy)
            log = log_dir / f"highs_{len(runs)}.log"
            self.setOptionValue("log_file", str(log))
            self.setOptionValue("output_flag", True)
            status = super().run()
            variants = re.findall(r"Using EKK (primal|dual) simplex solver", log.read_text())
            runs.append(HighsRun(*options, tuple(variants),
                                 self.getInfo().simplex_iteration_count))
            return status

    monkeypatch.setattr(core, "_Highs", Recording)
    return runs


def grid_only_scenario(name="grid_only"):
    """Flexible grid trade with renewables and storage pinned to zero:
    the one-knob scenario whose optimum is a closed-form expression."""
    caps = CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0),
                        storage_kg=CapacityBound(0.0, 0.0))
    return ScenarioSpec(name, Mode.GRID, CoLocated("Z1"), caps)


@pytest.fixture(scope="session")
def flat_grid_only(flat_week, params):
    """Solved grid-only flexible plant on the flat week."""
    report, breakdown = optimize_plant(grid_only_scenario(), params, flat_week)
    assert report.is_optimal, report.message
    return report, breakdown
