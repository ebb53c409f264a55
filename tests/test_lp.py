"""LP layer: model construction, solve contract, and a brute-force
vertex enumerator that serves as the reference solver for tiny LPs."""

import gc
import importlib.machinery
import importlib.util
import math
import re
import sys
import weakref
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings, strategies as st

from h2grid import lp
from h2grid.cli import main
from h2grid.economics import build_scenario_model, storage_unit_cost
from h2grid.lp import LpModel, LpSolution, LpStatus, Sense
from h2grid.plant import add_hourly_rows
from h2grid.types import CapacityBound, PlantParameters
from conftest import read_back, recording_backend, recording_highs
from test_cli import write_config
from test_golden_lp import CASES as GOLDEN_CASES


def enumerate_solve(model: LpModel) -> LpSolution:
    """Reference solver for tiny LPs: enumerate candidate vertices from
    all n-subsets of constraint/bound hyperplanes and take the best
    feasible one. Requires <= 3 variables and finite bounds (so the
    feasible region is a polytope and the optimum sits on a vertex)."""
    view = read_back(model)
    n = len(view.bounds)
    if n == 0 or n > 3:
        raise ValueError(f"reference solver handles 1-3 variables, got {n}")
    planes: list[tuple[np.ndarray, float]] = []
    for vid, (lo, hi) in enumerate(view.bounds):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"reference solver requires finite bounds, "
                             f"variable {vid} has [{lo}, {hi}]")
        e = np.zeros(n)
        e[vid] = 1.0
        planes.append((e.copy(), lo))
        planes.append((e, hi))
    for row in view.rows.values():
        a = np.zeros(n)
        for vid, coeff in row.coeffs.items():
            a[vid] = coeff
        planes.append((a, row.rhs))

    best_x, best_obj = None, math.inf
    for combo in combinations(planes, n):
        A = np.vstack([a for a, _ in combo])
        b = np.array([v for _, v in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if any(a.size for a in model._violated(x, 1e-7)[:2]):
            continue
        obj = view.value(x)
        if obj < best_obj:
            best_obj, best_x = obj, x
    if best_x is None:
        return LpSolution(LpStatus.INFEASIBLE, math.nan, None, "no feasible vertex")
    return LpSolution(LpStatus.OPTIMAL, best_obj, best_x, "vertex enumeration")


class TestModelConstruction:
    def test_add_variable_ids_sequential(self):
        m = LpModel()
        assert m.add_variables(["x"], 0, math.inf).tolist() == [0]
        assert m.add_variables(["y"], 5, 5).tolist() == [1]
        assert m.num_variables == 2
        assert read_back(m).bounds[1] == (5.0, 5.0)

    def test_bad_bounds_rejected(self):
        m = LpModel()
        with pytest.raises(ValueError, match="exceeds"):
            m.add_variables(["x"], 1.0, 0.0)
        with pytest.raises(ValueError, match="NaN"):
            m.add_variables(["x"], math.nan, 1.0)

    def test_unregistered_variable_rejected(self):
        m = LpModel()
        m.add_variables(["x"])
        with pytest.raises(ValueError, match="unregistered"):
            m.add_rows([""], Sense.LE, 1.0, [0], [3], [1.0])
        with pytest.raises(ValueError, match="unregistered"):
            m.set_objective([1], [1.0])

    def test_constraint_count_and_removal(self):
        m = LpModel()
        [x] = m.add_variables(["x"], 0, 10)
        c1, c2 = m.add_rows(["", ""], [Sense.GE, Sense.LE], [3.0, 8.0], [0, 1], [x, x], [1.0, 1.0])
        assert list(read_back(m).rows) == [c1, c2]

    def test_constraint_round_trip(self):
        m = LpModel()
        x, y = m.add_variables(["x", "y"])
        [cid] = m.add_rows(["bal"], Sense.EQ, 7.0, [0, 0], [x, y], [2.0, -3.0])
        row = read_back(m).rows[cid]
        assert row.coeffs == {x: 2.0, y: -3.0}
        assert row.sense is Sense.EQ
        assert row.rhs == 7.0
        assert row.name == "bal"

    def test_unknown_sense_rejected(self):
        m = LpModel()
        [x] = m.add_variables(["x"])
        with pytest.raises(ValueError, match="sense"):
            m.add_rows([""], "!=", 0.0, [0], [x], [1.0])


class TestBlocks:
    def test_add_variables_block(self):
        m = LpModel()
        ids = m.add_variables(["a", "b", "c"], 0.0, [1.0, 2.0, math.inf])
        assert ids.tolist() == [0, 1, 2]
        view = read_back(m)
        assert view.bounds[1] == (0.0, 2.0)
        assert view.names[2] == "c"
        with pytest.raises(ValueError, match="exceeds.*'e'"):
            m.add_variables(["d", "e"], [0.0, 3.0], 2.0)
        with pytest.raises(ValueError, match="NaN.*'f'"):
            m.add_variables(["f"], math.nan)
        assert m.num_variables == 3

    def test_add_rows_merges_like_linear_expr(self):
        m = LpModel()
        m.add_variables(["x", "y", "z"])
        cids = m.add_rows(["r0", "r1"], [Sense.LE, Sense.GE], [4.0, -1.0],
                          rows=[1, 0, 0, 0, 1, 0],
                          cols=[2, 1, 0, 1, 1, 2],
                          coefs=[5.0, 0.1, 3.0, 0.2, -5.0, -3.0])
        rows = read_back(m).rows
        assert cids.tolist() == [0, 1]
        # duplicates sum in the order given, exact zeros drop after the sum
        assert rows[0].coeffs == {0: 3.0, 1: 0.1 + 0.2, 2: -3.0}
        assert rows[1].coeffs == {1: -5.0, 2: 5.0}
        assert (rows[0].sense, rows[0].rhs, rows[0].name) == (Sense.LE, 4.0, "r0")
        assert (rows[1].sense, rows[1].rhs) == (Sense.GE, -1.0)
        m.add_rows(["gone"], Sense.EQ, 0.0, [0, 0], [0, 0], [1.5, -1.5])
        assert read_back(m).rows[2].coeffs == {}

    @pytest.mark.parametrize("kwargs, match", [
        (dict(coefs=[math.inf]), "non-finite coefficient"),
        (dict(coefs=[math.nan]), "non-finite coefficient"),
        (dict(rhs=math.nan), "non-finite rhs"),
        (dict(rhs=[0.0, -math.inf]), "non-finite rhs.*'b'"),
        (dict(cols=[5]), "unregistered variable 5"),
        (dict(cols=[-1]), "unregistered variable -1"),
        (dict(sense="!="), "sense"),
        (dict(sense=[Sense.LE, "<>"]), "sense"),
        (dict(rows=[2]), r"one row in \[0, 2\)"),
        (dict(sense="=="), "sense"),
        (dict(sense=np.array([0, 3])), "sense"),
        (dict(sense="<="), "sense"),
        (dict(sense=[Sense.LE, ">="]), "sense"),
    ])
    def test_add_rows_rejects(self, kwargs, match):
        m = LpModel()
        m.add_variables(["x", "y"])
        args = dict(names=["a", "b"], sense=Sense.LE, rhs=0.0,
                    rows=[0], cols=[1], coefs=[1.0])
        args.update(kwargs)
        with pytest.raises(ValueError, match=match):
            m.add_rows(**args)
        assert read_back(m).rows == {}

    def test_sense_codes_build_the_rows_of_a_sense_list(self):
        families = [("up", Sense.LE, 1.0, [(0, 1.0)]), ("eq", Sense.EQ, 2.0, [(1, 1.0)]),
                    ("down", Sense.GE, 3.0, [(0, 1.0), (1, -1.0)])]
        by_codes = LpModel()
        by_codes.add_variables(["x", "y"])
        add_hourly_rows(by_codes, 4, families)
        by_list = LpModel()
        by_list.add_variables(["x", "y"])
        by_list.add_rows([f"{name}_{t}" for t in range(4) for name, *_ in families],
                         [sense for _, sense, _, _ in families] * 4, [1.0, 2.0, 3.0] * 4,
                         np.repeat(np.arange(12), [1, 1, 2] * 4), [0, 1, 0, 1] * 4,
                         [1.0, 1.0, 1.0, -1.0] * 4)
        assert read_back(by_codes).rows == read_back(by_list).rows
        assert [row.sense for row in read_back(by_list).rows.values()] == [
            Sense.LE, Sense.EQ, Sense.GE] * 4

    def test_arrays_keep_one_block(self):
        """After _arrays the concatenated rows are the only block, shared
        with the matrix, and rows added afterwards still join them."""
        m = LpModel()
        m.add_variables(["x", "y"])
        m.add_rows(["a"], Sense.LE, 1.0, [0, 0], [0, 1], [1.0, 2.0])
        m.add_rows(["b"], Sense.GE, 0.0, [0], [1], [1.0])
        A = m._arrays()[4]
        assert len(m._rows) == len(m._vars) == 1
        assert A.data is m._rows[0][4] and A.indices is m._rows[0][3]
        m.add_variables(["z"], 0.0, 5.0)
        m.add_rows(["c"], Sense.EQ, 3.0, [0, 0], [0, 2], [1.0, -1.0])
        view = read_back(m)
        assert len(m._rows) == len(m._vars) == 1
        assert [(r.name, r.sense, r.rhs, r.coeffs) for r in view.rows.values()] == [
            ("a", Sense.LE, 1.0, {0: 1.0, 1: 2.0}), ("b", Sense.GE, 0.0, {1: 1.0}),
            ("c", Sense.EQ, 3.0, {0: 1.0, 2: -1.0})]
        assert view.bounds == [(0.0, math.inf), (0.0, math.inf), (0.0, 5.0)]

    def test_solve_leaves_model_unchanged(self, tmp_path):
        m = LpModel()
        x, y = m.add_variables(["x", "y"], 0, 10)
        m.add_rows(["lo", "hi"], [Sense.GE, Sense.LE], [4.0, 1.0], [0, 0, 1, 1], [x, y, x, y],
                   [1.0, 1.0, 1.0, -1.0])
        m.set_objective([x, y], [2.0, 1.0])
        m.write_lp(tmp_path / "before.lp")
        first = m.solve()
        second = m.solve()
        m.write_lp(tmp_path / "after.lp")
        assert (tmp_path / "before.lp").read_bytes() == (tmp_path / "after.lp").read_bytes()
        assert first.objective_value == second.objective_value == pytest.approx(4.0)


class TestSolve:
    def test_minimize_with_lower_bound_constraint(self):
        m = LpModel()
        [x] = m.add_variables(["x"], 0, 10)
        m.add_rows([""], Sense.GE, 3.0, [0], [x], [1.0])
        m.set_objective([x], [1.0])
        sol = m.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert sol.values[x] == pytest.approx(3.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_infeasible(self):
        m = LpModel()
        [x] = m.add_variables(["x"], 0, 10)
        m.add_rows(["", ""], [Sense.GE, Sense.LE], [1.0, 0.0], [0, 1], [x, x], [1.0, 1.0])
        sol = m.solve()
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.values is None

    def test_unbounded(self):
        m = LpModel()
        [x] = m.add_variables(["x"])
        m.set_objective([x], [-1.0])
        assert m.solve().status is LpStatus.UNBOUNDED

    def test_pinned_variable(self):
        m = LpModel()
        [x] = m.add_variables(["x"], 5, 5)
        m.set_objective([x], [1.0])
        sol = m.solve()
        assert sol.values[x] == pytest.approx(5.0)

    def test_equality_and_objective_constant(self):
        m = LpModel()
        x, y = m.add_variables(["x", "y"], -10, 10)
        m.add_rows([""], Sense.EQ, 4.0, [0, 0], [x, y], [1.0, 1.0])
        m.set_objective([x, y], [1.0, 2.0], 100.0)
        sol = m.solve()
        # min x + 2y with x+y=4 -> minimize y => y=-10 needs x=14 > ub, so x=10, y=-6
        assert sol.objective_value == pytest.approx(100.0 + 10.0 - 12.0, rel=1e-9)

    def test_optimal_point_refeasibility(self):
        m = LpModel()
        x, y = m.add_variables(["x", "y"], 0, 100)
        m.add_rows(["", ""], [Sense.GE, Sense.LE], [10.0, 2.0], [0, 0, 1, 1], [x, y, x, y],
                   [1.0, 1.0, 1.0, -1.0])
        m.set_objective([x, y], [3.0, 1.0])
        sol = m.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert m.check_feasibility(sol.values) == []

    def test_check_feasibility_flags_violation(self):
        m = LpModel()
        [x] = m.add_variables(["x"], 0, 10)
        m.add_rows(["floor"], Sense.GE, 3.0, [0], [x], [1.0])
        bad = np.array([1.0])
        msgs = m.check_feasibility(bad)
        assert len(msgs) == 1
        assert "floor" in msgs[0]

    def test_value_accessors(self):
        m = LpModel()
        x, y = m.add_variables(["x", "y"], [2, 3], [2, 3])
        m.set_objective([x], [1.0])
        sol = m.solve()
        assert sol.values[[y, x]].tolist() == pytest.approx([3.0, 2.0])


def golden_model(name: str) -> LpModel:
    scenario, dataset, tech = GOLDEN_CASES[name]()
    model, _ = build_scenario_model(scenario, PlantParameters(), dataset,
                                    storage_unit_cost(5000.0, tech), tech)
    return model


def golden_variant(name: str, storage_kg: float = 5000.0, **capacities):
    """A golden model with storage priced at another size, or with other
    capacity bounds: same variables and rows, other costs or bounds."""
    scenario, dataset, tech = GOLDEN_CASES[name]()
    scenario = replace(scenario, capacities=replace(scenario.capacities, **capacities))
    return build_scenario_model(scenario, PlantParameters(), dataset,
                                storage_unit_cost(storage_kg, tech), tech)


def scale_cost(model: LpModel, vid, factor: float) -> None:
    """Scale the objective coefficient of variable vid by factor."""
    cols, coefs, constant = model._obj
    model.set_objective(cols, np.where(cols == vid, factor * coefs, coefs), constant)


def public_linprog_input(model: LpModel):
    """model, read back, in scipy.optimize.linprog's layout: GE rows
    negated into A_ub, EQ rows in A_eq. Returns c, the other linprog
    arguments and the objective's constant."""
    view = read_back(model)
    ineq, eq = ([], [], [], []), ([], [], [], [])  # rows, cols, coefs, rhs
    for row in view.rows.values():
        rows, cols, coefs, rhs = eq if row.sense is Sense.EQ else ineq
        sign = -1.0 if row.sense is Sense.GE else 1.0
        rows.extend([len(rhs)] * len(row.coeffs))
        cols.extend(row.coeffs)
        coefs.extend(sign * v for v in row.coeffs.values())
        rhs.append(sign * row.rhs)
    n = len(view.bounds)
    (A_ub, b_ub), (A_eq, b_eq) = (
        (scipy.sparse.csr_matrix((coefs, (rows, cols)), shape=(len(rhs), n)), rhs)
        for rows, cols, coefs, rhs in (ineq, eq))
    c = np.zeros(n)
    c[list(view.objective)] = list(view.objective.values())
    return c, dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=view.bounds), view.constant


# the presolve, simplex_strategy and simplex_dual_edge_weight_strategy
# options of every cold and every warm HiGHS run
COLD, WARM = ("on", 0, 1), ("off", 0, 1)


# scipy.optimize.linprog's status codes as verdicts
_PUBLIC_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED,
                  4: LpStatus.SOLVER_FAILURE}


class TestBackend:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_models_match_public_linprog(self, name):
        """Each golden model, handed to scipy's public linprog in its own
        layout, gets our verdict; where that is optimal (grid_daily_capped
        is infeasible), it solves to our objective, and our point passes
        check_feasibility."""
        model = golden_model(name)
        c, public, constant = public_linprog_input(model)
        ref = scipy.optimize.linprog(c, **public, method="highs-ds")
        got = model.solve()
        assert (ref.status, got.status) in [(0, LpStatus.OPTIMAL), (2, LpStatus.INFEASIBLE)]
        if not got.is_optimal:
            return
        assert got.objective_value == pytest.approx(ref.fun + constant, rel=1e-9)
        assert model.check_feasibility(got.values) == []

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_cold_run_matches_public_linprog(self, name):
        """A cold backend run (one without a basis) on the model's own
        rows reaches the verdict scipy's public linprog reaches with
        presolve; where both are optimal the objectives agree within 1e-9
        and our point passes check_feasibility."""
        model = golden_model(name)
        lb, ub, sense, rhs, A = model._arrays()
        c, public, _ = public_linprog_input(model)
        got = lp.linprog(c, A, np.where(sense == Sense.LE, -math.inf, rhs),
                         np.where(sense == Sense.GE, math.inf, rhs), (lb, ub))
        ref = scipy.optimize.linprog(c, **public, method="highs-ds",
                                     options={"presolve": True})
        assert got.status is _PUBLIC_STATUS[ref.status]
        if got.status is not LpStatus.OPTIMAL:
            assert got.values is None
            return
        assert c @ got.values == pytest.approx(ref.fun, rel=1e-9)
        assert model.check_feasibility(got.values) == []

    @pytest.mark.parametrize("indices", [[0, 2], [1, 1]],
                             ids=["column-out-of-range", "repeated-entry"])
    def test_matrix_highs_rejects_is_a_model_error(self, indices):
        """A matrix HiGHS refuses to load is a solver failure named by
        HiGHS's status string, and no exception."""
        A = lp.CsrMatrix(np.array([0, 2]), np.array(indices), np.array([1.0, 1.0]), (1, 2))
        got = lp.linprog(np.ones(2), A, np.array([-math.inf]), np.array([4.0]),
                         (np.zeros(2), np.full(2, 10.0)))
        assert got == LpSolution(LpStatus.SOLVER_FAILURE, math.nan, None, "Model error", 0)

    @pytest.mark.parametrize("short", ["c", "b_lb", "b_ub", "bounds"])
    def test_array_shorter_than_the_shape_is_a_model_error(self, short):
        """HiGHS reads as many values from each array as the shape asks
        for, so an array that is too short is refused before the load, as
        a load error."""
        A = lp.CsrMatrix(np.array([0, 2]), np.array([0, 1]), np.array([1.0, 1.0]), (1, 2))
        args = dict(c=np.ones(2), A_ub=A, b_lb=np.array([-math.inf]), b_ub=np.array([4.0]),
                    bounds=(np.zeros(2), np.full(2, 10.0)))
        args[short] = (np.zeros(1), np.ones(1)) if short == "bounds" else args[short][:-1]
        got = lp.linprog(**args)
        assert got == LpSolution(LpStatus.SOLVER_FAILURE, math.nan, None, "Model error", 0)

    def test_model_without_rows_is_optimal(self):
        m = LpModel()
        x, y = m.add_variables(["x", "y"], [1.0, -2.0], [4.0, 3.0])
        m.set_objective([x, y], [1.0, -1.0])
        sol = m.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert sol.values.tolist() == [1.0, 3.0]
        assert sol.objective_value == -2.0

    def test_tiny_coefficient_is_loaded_with_a_warning(self):
        """HiGHS drops a coefficient of |a| <= 1e-9 and warns; the warning
        is not an error, so the model solves."""
        m = LpModel()
        x, y = m.add_variables(["x", "y"], 0.0, 10.0)
        m.add_rows(["floor"], Sense.GE, 2.0, [0, 0], [x, y], [1.0, 1e-12])
        m.set_objective([x, y], [1.0, 1.0])
        sol = m.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert sol.values.tolist() == pytest.approx([2.0, 0.0])
        assert sol.objective_value == pytest.approx(2.0)

    def test_basis_rows_are_model_rows(self):
        """HiGHS row i is model row i: with an EQ row first, the binding LE
        row's status sits at its own index, and on a golden model every
        row with slack at the optimum is basic."""
        status = lp._load_highs().HighsBasisStatus
        m = LpModel()
        x, y = m.add_variables(["x", "y"], 0.0, 10.0)
        m.add_rows(["tie", "cap", "floor"], [Sense.EQ, Sense.LE, Sense.GE], [0.0, 4.0, 0.5],
                   [0, 0, 1, 1, 2], [x, y, x, y, x], [1.0, -1.0, 1.0, 1.0, 1.0])
        m.set_objective([x, y], [-1.0, -1.0])
        sol = m.solve()
        assert sol.values.tolist() == pytest.approx([2.0, 2.0])
        rows = sol.basis.row_status
        assert rows[1] == status.kUpper  # cap: x + y <= 4 binds
        assert rows[2] == status.kBasic  # floor: x >= 0.5 has slack

        model = golden_model("split_yearly")
        sol = model.solve()
        _, _, sense, rhs, A = model._arrays()
        activity = np.array([sol.values[A.indices[lo:hi]] @ A.data[lo:hi]
                             for lo, hi in zip(A.indptr[:-1], A.indptr[1:])])
        slack = np.where(sense == Sense.EQ, 0.0, np.abs(activity - rhs))
        loose = slack > 1e-6 * np.maximum(1.0, np.abs(rhs))
        assert 0 < loose.sum() < loose.size
        rows = sol.basis.row_status
        assert len(rows) == loose.size
        assert all(rows[i] == status.kBasic for i in np.flatnonzero(loose).tolist())

    def test_warm_start_reaches_cold_optimum(self, monkeypatch):
        model = golden_model("offgrid_night")
        cold = model.solve()
        calls = recording_backend(monkeypatch)
        warm = model.solve(warm=cold)
        assert [w for w, _ in calls] == [True]
        assert calls[0][1].nit < 5
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-12)
        assert warm.basis is not None

    def test_non_optimal_warm_run_falls_back_to_cold(self, monkeypatch):
        model = golden_model("split_yearly")
        cold = model.solve()
        calls = recording_backend(monkeypatch, lambda basis: (
            LpSolution(LpStatus.SOLVER_FAILURE, math.nan, None, "forced failure", 0)
            if basis is not None else None))
        got = model.solve(warm=cold)
        assert [w for w, _ in calls] == [True, False]
        assert got.values.tobytes() == cold.values.tobytes()
        assert got.message == cold.message

    def test_solution_keeps_the_deciding_runs_iterations(self, monkeypatch, tmp_path):
        """nit is the simplex iterations of the run that decided the
        result: the cold run's, none for a warm re-solve from the model's
        own optimum, and the cold run's after a warm run that did not end
        optimal."""
        model = golden_model("split_yearly")
        runs = recording_highs(monkeypatch, tmp_path)
        cold = model.solve()
        assert [r.iterations for r in runs] == [cold.nit] and cold.nit > 0
        assert model.solve(warm=cold).nit == 0
        recording_backend(monkeypatch, lambda basis: (
            LpSolution(LpStatus.SOLVER_FAILURE, math.nan, None, "forced failure", 0)
            if basis is not None else None))
        got = model.solve(warm=cold)
        assert got.nit == runs[-1].iterations == cold.nit

    def test_warm_point_failing_the_gate_is_a_solver_failure(self, monkeypatch):
        """An optimal warm run is the one run: when its point fails
        check_feasibility, the result is a SOLVER_FAILURE that names the
        violation, and no cold run follows."""
        model = golden_model("split_yearly")
        cold = model.solve()
        checked = []

        def gate(self, x):
            checked.append(x)
            return ["forced violation"]

        monkeypatch.setattr(LpModel, "check_feasibility", gate)
        calls = recording_backend(monkeypatch)
        got = model.solve(warm=cold)
        assert [(w, r.status) for w, r in calls] == [(True, LpStatus.OPTIMAL)]
        assert len(checked) == 1
        assert (got.status, got.values, got.basis) == (LpStatus.SOLVER_FAILURE, None, None)
        assert got.message == "solver returned an infeasible point: forced violation"

    def test_basis_of_another_shape_falls_back_to_cold(self, monkeypatch):
        other = golden_model("offgrid_night").solve()
        model = golden_model("split_yearly")
        model.add_variables(["spare"], 0.0, 1.0)
        calls = recording_backend(monkeypatch)
        got = model.solve(warm=other)
        # another number of variables: no warm run
        assert [(w, r.status) for w, r in calls] == [(False, LpStatus.OPTIMAL)]
        assert got.values.tobytes() == model.solve().values.tobytes()

    def test_basis_of_other_rows_starts_warm_by_name(self, monkeypatch, tmp_path):
        """The two-bus model lacks the co-located model's balance rows and
        adds its own: the rows both have keep the seed's status, HiGHS
        runs dual simplex from that basis, and the run ends at the cold
        optimum's cost."""
        other = golden_model("offgrid_night").solve()
        model = golden_model("split_yearly")
        cold = model.solve()
        calls = recording_backend(monkeypatch)
        runs = recording_highs(monkeypatch, tmp_path)
        got = model.solve(warm=other)
        assert [(w, r.status) for w, r in calls] == [(True, LpStatus.OPTIMAL)]
        assert [(r.options, r.variants) for r in runs] == [(WARM, ("dual",))]
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert model.check_feasibility(got.values) == []

    def test_added_row_starts_warm_and_basic(self, monkeypatch, tmp_path):
        """A model with the seed's rows plus one, matched by name, starts
        from the seed's basis, and the added row starts basic. The seed's
        point breaks that row, so HiGHS runs dual simplex."""
        seed = golden_model("split_yearly").solve()
        model, pvars = golden_variant("split_yearly")
        # half the seed's PV: the seed's point breaks the new row
        model.add_rows(["pv_half"], Sense.LE, 0.5 * seed.values[pvars.c_pv_kw], [0],
                       [pvars.c_pv_kw], [1.0])
        assert model.check_feasibility(seed.values)
        cold = model.solve()
        bases = []
        calls = recording_backend(monkeypatch, bases=bases)
        runs = recording_highs(monkeypatch, tmp_path)
        got = model.solve(warm=seed)
        assert [w for w, _ in calls] == [True]
        assert [(r.options, r.variants) for r in runs] == [(WARM, ("dual",))]
        # the new row is the model's last row, and HiGHS's
        rows = bases[0].row_status
        assert rows[-1] == lp._load_highs().HighsBasisStatus.kBasic
        assert rows[:-1] == seed.basis.row_status
        assert bases[0].col_status == seed.basis.col_status
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert model.check_feasibility(got.values) == []

    def test_every_run_prices_dual_simplex_with_devex(self, monkeypatch, tmp_path):
        """One pricing rule: the cold run, a warm primal run, a warm dual
        run and two in-place runs (one after a cost change, one after a
        coefficient rewrite) each reach HiGHS with
        simplex_dual_edge_weight_strategy 1 (devex) and simplex_strategy
        0, which leaves the variant to HiGHS; only presolve differs, on
        for the cold run alone."""
        runs = recording_highs(monkeypatch, tmp_path)
        seed = golden_model("split_yearly").solve()                 # cold
        model, pvars = golden_variant("split_yearly")
        scale_cost(model, pvars.c_pv_kw, 2.0)
        assert model.solve(warm=seed).is_optimal                     # warm primal
        # the seed's point breaks this row, so the warm run is dual
        [half] = model.add_rows(["pv_half"], Sense.LE, 0.5 * seed.values[pvars.c_pv_kw],
                                [0], [pvars.c_pv_kw], [1.0])
        dual = model.solve(warm=seed)                                # warm dual
        scale_cost(model, pvars.c_wind_kw, 1.5)
        priced = model.solve(warm=dual)                              # in place
        model.rewrite([half], [pvars.c_pv_kw], [2.0])
        assert model.solve(warm=priced).is_optimal                   # in place
        assert [r.options for r in runs] == [COLD, WARM, WARM, WARM, WARM]
        assert [r.in_place for r in runs] == [False, False, False, True, True]
        assert [r.variants[:1] for r in runs[:3]] == [("dual",), ("primal",), ("dual",)]

    def test_seed_of_a_model_without_rows_starts_every_row_basic(self, monkeypatch):
        m = LpModel()
        [x] = m.add_variables(["x"], 0.0, 5.0)
        m.set_objective([x], [1.0])
        seed = m.solve()
        m.add_rows(["floor"], Sense.GE, 1.0, [0], [x], [1.0])
        bases = []
        calls = recording_backend(monkeypatch, bases=bases)
        got = m.solve(warm=seed)
        assert [w for w, _ in calls] == [True]
        assert bases[0].row_status == [lp._load_highs().HighsBasisStatus.kBasic]
        assert got.values.tolist() == [1.0]

    def test_seed_with_a_binding_row_this_model_lacks_starts_warm(self, monkeypatch,
                                                                  tmp_path):
        """The seed's model has one more row, binding at its optimum, so
        its basis has one basic variable too many here: the kept rows
        keep their status, HiGHS completes the basis, runs primal simplex
        from it (the seed's point meets every row here), and the run ends
        at the cold optimum's cost."""
        model, pvars = golden_variant("split_yearly")
        free = model.solve()
        model.add_rows(["pv_half"], Sense.LE, 0.5 * free.values[pvars.c_pv_kw], [0],
                       [pvars.c_pv_kw], [1.0])
        seed = model.solve()
        plain = golden_model("split_yearly")
        assert seed.is_optimal and plain.check_feasibility(seed.values) == []
        bases = []
        calls = recording_backend(monkeypatch, bases=bases)
        runs = recording_highs(monkeypatch, tmp_path)
        got = plain.solve(warm=seed)
        assert [(w, r.status) for w, r in calls] == [(True, LpStatus.OPTIMAL)]
        assert [(r.options, r.variants) for r in runs] == [(WARM, ("primal",))]
        assert bases[0].alien
        # the dropped row is the seed model's last row, and HiGHS's
        rows = seed.basis.row_status
        assert rows[-1] != lp._load_highs().HighsBasisStatus.kBasic
        assert bases[0].row_status == rows[:-1]
        assert bases[0].col_status == seed.basis.col_status
        assert got.objective_value == pytest.approx(free.objective_value, rel=1e-9)
        assert plain.check_feasibility(got.values) == []

    def test_seed_keyed_by_row_name_matches_the_same_shape_start(self, monkeypatch):
        """Matching HiGHS's status lists by row name keeps the basis: a
        model whose rows are the seed's, one slack row renamed, starts from
        the seed's very statuses and reaches the point that the seed's own
        model reaches from the basis as it is."""
        def variant(row):
            model, pvars = golden_variant("split_yearly")
            model.add_rows([row], Sense.LE, 1e9, [0], [pvars.c_pv_kw], [1.0])
            return model

        seed = variant("pv_cap").solve()
        assert seed.basis.row_status[-1] == lp._load_highs().HighsBasisStatus.kBasic
        bases = []
        recording_backend(monkeypatch, bases=bases)
        direct = variant("pv_cap").solve(warm=seed)
        keyed = variant("pv_limit").solve(warm=seed)
        assert bases[0] is seed.basis
        assert bases[1].alien and (bases[1].row_status, bases[1].col_status) == (
            seed.basis.row_status, seed.basis.col_status)
        assert keyed.values.tobytes() == direct.values.tobytes()

    def test_seed_basis_outlives_its_solver(self, monkeypatch):
        """A solution's basis is HiGHS's own copy: once the solver that
        returned it is collected, it still starts a model with other rows,
        from the seed's statuses on every row both models have."""
        core = lp._load_highs()
        solvers = []

        class Tracked(core._Highs):
            def __init__(self):
                super().__init__()
                solvers.append(weakref.ref(self))

        monkeypatch.setattr(core, "_Highs", Tracked)
        seed = golden_model("offgrid_night").solve()
        gc.collect()
        assert solvers and all(ref() is None for ref in solvers)
        model = golden_model("split_yearly")
        cold = model.solve()
        bases = []
        calls = recording_backend(monkeypatch, bases=bases)
        got = model.solve(warm=seed)
        assert [(w, r.status) for w, r in calls] == [(True, LpStatus.OPTIMAL)]
        assert bases[0].col_status == seed.basis.col_status
        seed_rows = dict(zip(seed.model_rows, seed.basis.row_status))
        names = tuple(model._row_names)
        shared = [i for i, name in enumerate(names) if name in seed_rows]
        assert 0 < len(shared) < len(names)
        rows = bases[0].row_status
        assert [rows[i] for i in shared] == [seed_rows[names[i]] for i in shared]
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)

    def test_cost_change_starts_primal(self, monkeypatch, tmp_path):
        """Only costs moved (PV capacity costs twice as much), so the
        seed's basis is primal feasible and HiGHS runs primal simplex from
        it to the cold optimum."""
        seed = golden_model("offgrid_night").solve()
        model, pvars = golden_variant("offgrid_night")
        scale_cost(model, pvars.c_pv_kw, 2.0)
        cold = model.solve()
        calls = recording_backend(monkeypatch)
        runs = recording_highs(monkeypatch, tmp_path)
        got = model.solve(warm=seed)
        assert [w for w, _ in calls] == [True]
        assert [(r.options, r.variants) for r in runs] == [(WARM, ("primal",))]
        assert runs[0].iterations > 0
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)

    def test_bounds_cutting_off_the_seed_start_dual(self, monkeypatch, tmp_path):
        seed = golden_model("offgrid_night").solve()
        _, pvars = golden_variant("offgrid_night")
        c_el = 1.1 * seed.values[pvars.c_el_kw]
        model, _ = golden_variant("offgrid_night", electrolyser_kw=CapacityBound(c_el, c_el))
        assert model.check_feasibility(seed.values)
        cold = model.solve()
        calls = recording_backend(monkeypatch)
        runs = recording_highs(monkeypatch, tmp_path)
        got = model.solve(warm=seed)
        golden_model("split_yearly").solve(warm=seed)  # other rows: a seed by name
        assert [w for w, _ in calls] == [True, True]
        # the same-rows start gets the very options a seed by name gets
        assert [(r.options, r.variants) for r in runs] == [(WARM, ("dual",))] * 2
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert model.check_feasibility(got.values) == []

    # options: the warm run's options and the variants its log names
    @pytest.mark.parametrize("rows, options", [
        (["cover", "gap", "x_cap"], (WARM, ("primal",))),   # seed's rows, one appended
        (["x_cap", "cover", "gap"], (WARM, ("primal",))),   # seed's rows, not a prefix
        (["cover", "x_cap"], (WARM, ("primal",))),          # seed's gap row dropped
        (["cover", "gap", "x_low"], (WARM, ("dual",))),     # seed's point breaks x_low
    ])
    def test_appended_rows_the_seed_meets_start_primal(self, monkeypatch, tmp_path, rows,
                                                       options):
        """HiGHS runs primal simplex from the seed's basis, matched by
        name, where that basis is primal feasible here: every row the seed
        meets appended, or the seed's slack gap row dropped. An appended
        row the seed's point breaks starts dual. That first run ends
        optimal."""
        # (sense, rhs, coefficients on x and y) per row name
        table = {"cover": (Sense.GE, 2.0, [1.0, 1.0]), "gap": (Sense.LE, 3.0, [1.0, -1.0]),
                 "x_cap": (Sense.LE, 5.0, [1.0, 0.0]), "x_low": (Sense.LE, 1.0, [1.0, 0.0])}

        def tiny(names, costs):
            m = LpModel()
            x, y = m.add_variables(["x", "y"], 0.0, 10.0)
            for name in names:
                sense, rhs, coefs = table[name]
                m.add_rows([name], sense, rhs, [0, 0], [x, y], coefs)
            m.set_objective([x, y], costs)
            return m

        seed = tiny(["cover", "gap"], [1.0, 2.0]).solve()
        assert seed.values.tolist() == pytest.approx([2.0, 0.0])
        model = tiny(rows, [2.0, 1.0])
        cold = model.solve()
        calls = recording_backend(monkeypatch)
        runs = recording_highs(monkeypatch, tmp_path)
        got = model.solve(warm=seed)
        assert [(w, r.status) for w, r in calls] == [(True, LpStatus.OPTIMAL)]
        assert [(r.options, r.variants) for r in runs] == [options]
        assert got.values.tolist() == pytest.approx(cold.values.tolist())
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-12)

    def test_non_optimal_dual_run_falls_back_to_cold(self, monkeypatch, tmp_path):
        seed = golden_model("offgrid_night").solve()
        _, pvars = golden_variant("offgrid_night")
        c_el = 1.1 * seed.values[pvars.c_el_kw]
        model, _ = golden_variant("offgrid_night", electrolyser_kw=CapacityBound(c_el, c_el))
        cold = model.solve()
        calls = recording_backend(monkeypatch, lambda basis: (
            LpSolution(LpStatus.SOLVER_FAILURE, math.nan, None, "forced limit", 0)
            if basis is not None else None))
        runs = recording_highs(monkeypatch, tmp_path)
        got = model.solve(warm=seed)
        assert [w for w, _ in calls] == [True, False]
        # the forced warm result makes no HiGHS run
        assert [r.options for r in runs] == [COLD]
        assert (got.status, got.message) == (cold.status, cold.message)
        assert got.values.tobytes() == cold.values.tobytes()

    def test_model_the_seed_makes_infeasible_gets_the_cold_verdict(self, monkeypatch,
                                                                   tmp_path):
        seed = golden_model("offgrid_night").solve()
        model, _ = golden_variant("offgrid_night", wind_kw=CapacityBound(0.0, 0.0),
                                  pv_kw=CapacityBound(0.0, 0.0))
        cold = model.solve()
        assert cold.status is LpStatus.INFEASIBLE
        calls = recording_backend(monkeypatch)
        runs = recording_highs(monkeypatch, tmp_path)
        got = model.solve(warm=seed)
        assert [w for w, _ in calls] == [True, False]
        assert [r.options for r in runs] == [WARM, COLD]
        assert runs[0].variants == ("dual",)
        assert (got.status, got.message) == (cold.status, cold.message)

    def test_infeasible_verdict_stands_after_one_run(self, monkeypatch, tmp_path):
        model, _ = golden_variant("offgrid_night", wind_kw=CapacityBound(0.0, 0.0),
                                  pv_kw=CapacityBound(0.0, 0.0))
        runs = recording_highs(monkeypatch, tmp_path)
        got = model.solve()
        assert got.status is LpStatus.INFEASIBLE and got.values is None
        assert [r.options for r in runs] == [COLD]

    def test_unbounded_verdict_stands_after_one_run(self, monkeypatch, tmp_path):
        m = LpModel()
        x, y = m.add_variables(["x", "y"])
        m.add_rows(["floor"], Sense.GE, 1.0, [0, 0], [x, y], [1.0, -1.0])
        m.set_objective([x, y], [-1.0, 0.5])
        runs = recording_highs(monkeypatch, tmp_path)
        assert m.solve().status is LpStatus.UNBOUNDED
        assert [r.options for r in runs] == [COLD]

    def test_failed_runs_try_every_cold_attempt(self, monkeypatch):
        """The cold attempt order is one run with presolve: when it ends
        without a verdict, the result is a SOLVER_FAILURE carrying HiGHS's
        status string."""
        model = golden_model("offgrid_night")
        calls = recording_backend(monkeypatch, lambda basis: LpSolution(
            LpStatus.SOLVER_FAILURE, math.nan, None, "forced failure", 0))
        got = model.solve()
        assert (got.status, got.message) == (LpStatus.SOLVER_FAILURE, "forced failure")
        assert [w for w, _ in calls] == [False]

    def test_seed_of_other_rows_failing_the_gate_is_a_solver_failure(self, monkeypatch,
                                                                      tmp_path):
        """A seed by row name makes the one dual warm run; its point
        failing check_feasibility is a SOLVER_FAILURE naming the
        violation, with no cold run after it."""
        other = golden_model("offgrid_night").solve()
        model = golden_model("split_yearly")
        checked = []

        def gate(self, x):
            checked.append(x)
            return ["forced violation"]

        monkeypatch.setattr(LpModel, "check_feasibility", gate)
        calls = recording_backend(monkeypatch)
        runs = recording_highs(monkeypatch, tmp_path)
        got = model.solve(warm=other)
        assert [(w, r.status) for w, r in calls] == [(True, LpStatus.OPTIMAL)]
        assert [(r.options, r.variants) for r in runs] == [(WARM, ("dual",))]
        assert len(checked) == 1
        assert (got.status, got.values) == (LpStatus.SOLVER_FAILURE, None)
        assert got.message == "solver returned an infeasible point: forced violation"

    def test_missing_binding_file_raises_named_error(self, monkeypatch, tmp_path, capsys):
        model = golden_model("offgrid_night")
        # a scipy package whose optimize/_highspy folder has no _core extension
        (tmp_path / "optimize" / "_highspy").mkdir(parents=True)
        empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        empty.submodule_search_locations = [str(tmp_path)]
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: (
            empty if name == "scipy" else find_spec(name, package)))
        monkeypatch.delitem(sys.modules, lp._HIGHS_MODULE, raising=False)
        core = str(tmp_path / "optimize" / "_highspy" / "_core")
        lp._load_highs.cache_clear()
        try:
            with pytest.raises(ImportError) as err:
                lp._load_highs()
            with pytest.raises(ImportError):
                model.solve()
            config = write_config(tmp_path)
            assert main(["solve", "--config", str(config), "--scenario", "flexible"]) == 1
        finally:
            lp._load_highs.cache_clear()
        assert err.value.path.startswith(core + ".")
        message = str(err.value)
        assert message.startswith(f"cannot load scipy's HiGHS binding {err.value.path} ")
        assert f"scipy {scipy.__version__} is installed" in message
        assert lp._HIGHS_MODULE not in sys.modules
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSession:
    """The HiGHS solver a model keeps from its last optimal run, and the
    in-place runs it makes."""

    def test_rewrite_of_an_entry_the_model_lacks_raises(self):
        m = LpModel()
        x, y = m.add_variables(["x", "y"], 0.0, 4.0)
        m.add_rows(["r0", "r1"], Sense.LE, 3.0, [0, 0, 1], [x, y, y], [1.0, 2.0, 1.0])
        held = read_back(m)
        for rows, cols, coefs, says in [
                ([1], [x], [1.0], "constraint 1 holds no entry on variable 0"),
                ([2], [x], [1.0], "constraint 2 holds no entry on variable 0"),
                ([0], [2], [1.0], "constraint 0 holds no entry on variable 2"),
                ([-1], [y], [1.0], "constraint -1 holds no entry on variable 1"),
                ([0, 1], [x, x], [5.0, 5.0], "constraint 1 holds no entry on variable 0"),
                ([0], [y], [0.0], "coefficient 0.0 on variable 1 in constraint 0"),
                ([0], [y], [math.nan], "coefficient nan on variable 1 in constraint 0"),
                ([0, 1], [y], [1.0], "one row, variable and coefficient per entry")]:
            with pytest.raises(ValueError, match=re.escape(says)):
                m.rewrite(rows, cols, coefs)
        # a refused rewrite changes nothing
        assert read_back(m) == held
        m.rewrite([1, 0], [y, x], [-1.5, 7.0])
        assert [row.coeffs for row in read_back(m).rows.values()] == [
            {x: 7.0, y: 2.0}, {y: -1.5}]

    def test_in_place_run_reaches_a_fresh_solve(self, monkeypatch, tmp_path):
        """After a cost change and a coefficient rewrite, a solve from the
        model's own last solution runs in place, in the solver of that
        run, and ends where a fresh model with those entries ends."""
        runs = recording_highs(monkeypatch, tmp_path)
        model, pvars = golden_variant("split_yearly")
        first = model.solve()
        scale_cost(model, pvars.c_pv_kw, 2.0)
        model.rewrite(pvars.comp2_rows, pvars.h_comp2_kg, np.full(pvars.horizon, -1.5))
        calls = recording_backend(monkeypatch)
        got = model.solve(warm=first)
        assert [w for w, _ in calls] == [True]
        fresh, fresh_vars = golden_variant("split_yearly")
        scale_cost(fresh, fresh_vars.c_pv_kw, 2.0)
        fresh.rewrite(fresh_vars.comp2_rows, fresh_vars.h_comp2_kg,
                      np.full(fresh_vars.horizon, -1.5))
        ref = fresh.solve()
        assert [(r.options, r.in_place) for r in runs] == [(COLD, False), (WARM, True),
                                                           (COLD, False)]
        assert got.objective_value == pytest.approx(ref.objective_value, rel=1e-9)
        assert model.check_feasibility(got.values) == []

    def test_only_the_last_solution_runs_in_place(self, monkeypatch, tmp_path):
        """An earlier solution of the same model, or another model's,
        starts a new solver from its basis."""
        runs = recording_highs(monkeypatch, tmp_path)
        model = golden_model("split_yearly")
        first = model.solve()
        second = model.solve(warm=first)
        model.solve(warm=first)
        golden_model("split_yearly").solve(warm=second)
        assert [(r.options, r.in_place) for r in runs] == [
            (COLD, False), (WARM, True), (WARM, False), (WARM, False)]

    def test_adding_rows_or_variables_drops_the_session(self, monkeypatch, tmp_path):
        """A model with rows added since its last solve starts a new
        solver from that solution's basis, matched by name; one with
        variables added starts cold."""
        runs = recording_highs(monkeypatch, tmp_path)
        model, pvars = golden_variant("split_yearly")
        first = model.solve()
        model.add_rows(["pv_cap"], Sense.LE, 2.0 * first.values[pvars.c_pv_kw], [0],
                       [pvars.c_pv_kw], [1.0])
        second = model.solve(warm=first)
        model.add_variables(["spare"], 0.0, 1.0)
        assert model.solve(warm=second).is_optimal
        assert [(r.options, r.in_place) for r in runs] == [
            (COLD, False), (WARM, False), (COLD, False)]

    def test_non_optimal_in_place_run_falls_back_to_cold(self, monkeypatch, tmp_path):
        """An in-place run that does not end optimal is followed by a cold
        run in a new solver, which the next in-place run goes on in."""
        runs = recording_highs(monkeypatch, tmp_path)
        model, pvars = golden_variant("offgrid_night")
        first = model.solve()
        scale_cost(model, pvars.c_pv_kw, 2.0)
        with monkeypatch.context() as mp:
            calls = recording_backend(mp, lambda start: (
                LpSolution(LpStatus.SOLVER_FAILURE, math.nan, None, "forced limit", 0)
                if start is not None else None))
            got = model.solve(warm=first)
        assert [w for w, _ in calls] == [True, False]
        # the forced in-place result makes no HiGHS run
        assert [(r.options, r.in_place) for r in runs] == [(COLD, False), (COLD, False)]
        assert model.solve(warm=got).nit == 0
        assert [(r.options, r.in_place) for r in runs[2:]] == [(WARM, True)]
        fresh, fresh_vars = golden_variant("offgrid_night")
        scale_cost(fresh, fresh_vars.c_pv_kw, 2.0)
        assert got.values.tobytes() == fresh.solve().values.tobytes()

    def test_end_session_releases_the_solver(self, monkeypatch, tmp_path):
        solvers = []
        runs = recording_highs(monkeypatch, tmp_path, solvers)
        model = golden_model("offgrid_night")
        first = model.solve()
        assert [ref() is not None for ref in solvers] == [True]
        model.end_session()
        assert [ref() for ref in solvers] == [None]
        # no session: the last solution's basis starts a new solver
        model.solve(warm=first)
        assert [(r.options, r.in_place) for r in runs] == [(COLD, False), (WARM, False)]


class TestWriteLp:
    def test_layout(self, tmp_path):
        m = LpModel()
        x, y = m.add_variables(["flow", "slack"], [0, -math.inf], [10, math.inf])
        m.add_rows(["cap", "bal"], [Sense.LE, Sense.EQ], [4.0, 1.0], [0, 0, 1, 1], [x, y, x, y],
                   [2.0, -1.0, 1.0, 1.0])
        m.set_objective([x], [1.5], 2.0)
        path = tmp_path / "model.lp"
        m.write_lp(path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("\\")
        assert lines[1] == "Minimize"
        assert lines[2] == " obj: 1.5 flow + 2.0"
        assert lines[3] == "Subject To"
        assert lines[4] == " cap: 2.0 flow - 1.0 slack <= 4.0"
        assert lines[5] == " bal: 1.0 flow + 1.0 slack = 1.0"
        assert lines[6] == "Bounds"
        assert lines[7] == " 0.0 <= flow <= 10.0"
        assert lines[8] == " slack free"
        assert lines[9] == "End"

    def test_deterministic_bytes(self, tmp_path):
        def build():
            m = LpModel()
            a, b = m.add_variables(["a", "b"], [0, 1], [5, math.inf])
            m.add_rows(["floor"], Sense.GE, 2.0, [0, 0], [a, b], [1.0, 2.0])
            m.set_objective([a, b], [1.0, 1.0])
            return m

        p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
        build().write_lp(p1)
        build().write_lp(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kind", ["variable", "constraint"])
    @pytest.mark.parametrize("names, bad, reason", [
        (["x", ""], "", "is not an ASCII identifier"),
        (["x", "a b"], "a b", "is not an ASCII identifier"),
        (["x", "a\nb"], "a\nb", "is not an ASCII identifier"),
        (["x", "x"], "x", "repeats"),
    ], ids=["empty", "space", "newline", "repeat"])
    def test_names_must_be_distinct_identifiers(self, tmp_path, kind, names, bad, reason):
        m = LpModel()
        ids = m.add_variables(names if kind == "variable" else ["u", "v"], 0.0, 1.0)
        m.add_rows(names if kind == "constraint" else ["r", "s"], Sense.LE, 1.0,
                   [0, 1], ids, [1.0, 1.0])
        path = tmp_path / "model.lp"
        with pytest.raises(ValueError, match=re.escape(f"{kind} name {bad!r} {reason}")):
            m.write_lp(path)
        assert not path.exists()


class TestEnumerator:
    def test_matches_hand_solution(self):
        m = LpModel()
        x, y = m.add_variables(["x", "y"], 0, 10)
        m.add_rows([""], Sense.GE, 6.0, [0, 0], [x, y], [1.0, 1.0])
        m.set_objective([x, y], [2.0, 3.0])
        ref = enumerate_solve(m)
        assert ref.status is LpStatus.OPTIMAL
        assert ref.objective_value == pytest.approx(12.0, abs=1e-9)
        assert m.solve().objective_value == pytest.approx(12.0, abs=1e-9)

    def test_detects_infeasible(self):
        m = LpModel()
        [x] = m.add_variables(["x"], 0, 1)
        m.add_rows([""], Sense.GE, 2.0, [0], [x], [1.0])
        assert enumerate_solve(m).status is LpStatus.INFEASIBLE

    def test_requires_finite_bounds(self):
        m = LpModel()
        m.add_variables(["x"], 0, math.inf)
        with pytest.raises(ValueError, match="finite"):
            enumerate_solve(m)

    def test_requires_small_model(self):
        m = LpModel()
        m.add_variables(["a", "b", "c", "d"], 0, 1)
        with pytest.raises(ValueError, match="1-3"):
            enumerate_solve(m)


def small_lp_models():
    """Random integer-data LPs with <=3 boxed variables."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 3))
        ends = [sorted(draw(st.integers(-6, 6)) for _ in range(2)) for _ in range(n)]
        m = LpModel()
        m.add_variables([""] * n, *zip(*ends))
        n_cons = draw(st.integers(0, 3))
        for _ in range(n_cons):
            coeffs = [draw(st.integers(-3, 3)) for _ in range(n)]
            sense = draw(st.sampled_from([Sense.LE, Sense.GE, Sense.EQ]))
            rhs = draw(st.integers(-8, 8))
            m.add_rows([""], sense, rhs, [0] * n, range(n), coeffs)
        m.set_objective(range(n), [draw(st.integers(-4, 4)) for _ in range(n)])
        return m

    return build()


@settings(max_examples=80, deadline=None)
@given(model=small_lp_models())
def test_solver_agrees_with_enumerator(model):
    got = model.solve()
    ref = enumerate_solve(model)
    assert got.status is ref.status
    if got.status is LpStatus.OPTIMAL:
        tol = 1e-6 * max(1.0, abs(ref.objective_value))
        assert abs(got.objective_value - ref.objective_value) <= tol


@settings(max_examples=60, deadline=None)
@given(model=small_lp_models(), k=st.floats(0.1, 50.0, allow_nan=False))
def test_objective_scaling_preserves_argmin(model, k):
    base = model.solve()
    view = read_back(model)
    model.set_objective(list(view.objective), [c * k for c in view.objective.values()],
                        view.constant * k)
    scaled = model.solve()
    assert scaled.status is base.status
    if base.status is LpStatus.OPTIMAL:
        tol = 1e-6 * max(1.0, abs(k * base.objective_value))
        assert abs(scaled.objective_value - k * base.objective_value) <= tol
