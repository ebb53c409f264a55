"""LP layer: model construction, solve contract, and a brute-force
vertex enumerator that serves as the reference solver for tiny LPs."""

import importlib.machinery
import importlib.util
import math
import re
import sys
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
from h2grid.lp import (
    FEASIBILITY_TOL,
    LpModel,
    LpStatus,
    LpSolution,
    Sense,
    SolverResult,
)
from h2grid.plant import add_hourly_rows
from h2grid.types import Fixed, PlantParameters
from conftest import read_back, recording_backend
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
        if model.check_feasibility(x, tol=1e-7):
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
        assert m.add_variable(0, math.inf) == 0
        assert m.add_variable(5, 5) == 1
        assert m.num_variables == 2
        assert read_back(m).bounds[1] == (5.0, 5.0)

    def test_bad_bounds_rejected(self):
        m = LpModel()
        with pytest.raises(ValueError, match="exceeds"):
            m.add_variable(1.0, 0.0)
        with pytest.raises(ValueError, match="NaN"):
            m.add_variable(math.nan, 1.0)

    def test_unregistered_variable_rejected(self):
        m = LpModel()
        m.add_variable()
        with pytest.raises(ValueError, match="unregistered"):
            m.add_rows([""], Sense.LE, 1.0, [0], [3], [1.0])
        with pytest.raises(ValueError, match="unregistered"):
            m.set_objective([1], [1.0])

    def test_constraint_count_and_removal(self):
        m = LpModel()
        x = m.add_variable(0, 10)
        c1, c2 = m.add_rows(["", ""], [Sense.GE, Sense.LE], [3.0, 8.0], [0, 1], [x, x], [1.0, 1.0])
        assert list(read_back(m).rows) == [c1, c2]

    def test_constraint_round_trip(self):
        m = LpModel()
        x = m.add_variable()
        y = m.add_variable()
        [cid] = m.add_rows(["bal"], Sense.EQ, 7.0, [0, 0], [x, y], [2.0, -3.0])
        row = read_back(m).rows[cid]
        assert row.coeffs == {x: 2.0, y: -3.0}
        assert row.sense is Sense.EQ
        assert row.rhs == 7.0
        assert row.name == "bal"

    def test_unknown_sense_rejected(self):
        m = LpModel()
        x = m.add_variable()
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
        x = m.add_variable(0, 10, name="x")
        y = m.add_variable(0, 10, name="y")
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
        x = m.add_variable(0, 10)
        m.add_rows([""], Sense.GE, 3.0, [0], [x], [1.0])
        m.set_objective([x], [1.0])
        sol = m.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value(x) == pytest.approx(3.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_infeasible(self):
        m = LpModel()
        x = m.add_variable(0, 10)
        m.add_rows(["", ""], [Sense.GE, Sense.LE], [1.0, 0.0], [0, 1], [x, x], [1.0, 1.0])
        sol = m.solve()
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.values is None

    def test_unbounded(self):
        m = LpModel()
        x = m.add_variable(0, math.inf)
        m.set_objective([x], [-1.0])
        assert m.solve().status is LpStatus.UNBOUNDED

    def test_pinned_variable(self):
        m = LpModel()
        x = m.add_variable(5, 5)
        m.set_objective([x], [1.0])
        sol = m.solve()
        assert sol.value(x) == pytest.approx(5.0)

    def test_equality_and_objective_constant(self):
        m = LpModel()
        x = m.add_variable(-10, 10)
        y = m.add_variable(-10, 10)
        m.add_rows([""], Sense.EQ, 4.0, [0, 0], [x, y], [1.0, 1.0])
        m.set_objective([x, y], [1.0, 2.0], 100.0)
        sol = m.solve()
        # min x + 2y with x+y=4 -> minimize y => y=-10 needs x=14 > ub, so x=10, y=-6
        assert sol.objective_value == pytest.approx(100.0 + 10.0 - 12.0, rel=1e-9)

    def test_optimal_point_refeasibility(self):
        m = LpModel()
        x = m.add_variable(0, 100)
        y = m.add_variable(0, 100)
        m.add_rows(["", ""], [Sense.GE, Sense.LE], [10.0, 2.0], [0, 0, 1, 1], [x, y, x, y],
                   [1.0, 1.0, 1.0, -1.0])
        m.set_objective([x, y], [3.0, 1.0])
        sol = m.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert m.check_feasibility(sol.values) == []

    def test_check_feasibility_flags_violation(self):
        m = LpModel()
        x = m.add_variable(0, 10)
        m.add_rows(["floor"], Sense.GE, 3.0, [0], [x], [1.0])
        bad = np.array([1.0])
        msgs = m.check_feasibility(bad)
        assert len(msgs) == 1
        assert "floor" in msgs[0]

    def test_value_accessors(self):
        m = LpModel()
        x = m.add_variable(2, 2)
        y = m.add_variable(3, 3)
        m.set_objective([x], [1.0])
        sol = m.solve()
        assert sol.series([y, x]).tolist() == pytest.approx([3.0, 2.0])

    def test_empty_model(self):
        m = LpModel()
        sol = m.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == 0.0


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

    @pytest.mark.parametrize("options", ["_TIGHT_OPTIONS", "_TIGHT_NO_PRESOLVE",
                                         "_STOCK_OPTIONS"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_cold_run_matches_public_linprog(self, name, options):
        """A cold backend run on the model's own rows, under each option set
        of the cold attempt order, reaches the verdict scipy's public
        linprog reaches under the same options; where both are optimal the
        objectives agree within 1e-9 and our point passes
        check_feasibility."""
        model = golden_model(name)
        lb, ub, sense, rhs, A = model._arrays()
        c, public, _ = public_linprog_input(model)
        opts = getattr(lp, options)
        got = lp.linprog(c, A, np.where(sense == Sense.LE, -math.inf, rhs),
                         np.where(sense == Sense.GE, math.inf, rhs), (lb, ub), options=opts)
        ref = scipy.optimize.linprog(c, **public, method="highs-ds", options=opts)
        assert got.status is _PUBLIC_STATUS[ref.status]
        if got.status is not LpStatus.OPTIMAL:
            assert got.x is None
            return
        assert c @ got.x == pytest.approx(ref.fun, rel=1e-9)
        assert model.check_feasibility(got.x) == []

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
        rows = sol.as_seed().basis.rows
        assert rows[1] == status.kUpper.value  # cap: x + y <= 4 binds
        assert rows[2] == status.kBasic.value  # floor: x >= 0.5 has slack

        model = golden_model("split_yearly")
        sol = model.solve()
        _, _, sense, rhs, A = model._arrays()
        activity = np.array([sol.values[A.indices[lo:hi]] @ A.data[lo:hi]
                             for lo, hi in zip(A.indptr[:-1], A.indptr[1:])])
        slack = np.where(sense == Sense.EQ, 0.0, np.abs(activity - rhs))
        loose = slack > 1e-6 * np.maximum(1.0, np.abs(rhs))
        assert 0 < loose.sum() < loose.size
        assert (sol.as_seed().basis.rows[loose] == status.kBasic.value).all()

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
            SolverResult(LpStatus.SOLVER_FAILURE, None, 0, "forced failure")
            if basis is not None else None))
        got = model.solve(warm=cold)
        assert [w for w, _ in calls] == [True, False]
        assert got.values.tobytes() == cold.values.tobytes()
        assert got.message == cold.message

    def test_warm_point_failing_the_gate_falls_back_to_cold(self, monkeypatch):
        model = golden_model("split_yearly")
        cold = model.solve()
        checked = []
        original = LpModel.check_feasibility

        def gate(self, x, tol=FEASIBILITY_TOL):
            checked.append(x)
            return ["forced violation"] if len(checked) == 1 else original(self, x, tol)

        monkeypatch.setattr(LpModel, "check_feasibility", gate)
        calls = recording_backend(monkeypatch)
        got = model.solve(warm=cold)
        assert [w for w, _ in calls] == [True, False] and len(checked) == 2
        assert got.values.tobytes() == cold.values.tobytes()

    def test_basis_of_another_shape_falls_back_to_cold(self, monkeypatch):
        other = golden_model("offgrid_night").solve()
        model = golden_model("split_yearly")
        model.add_variable(0.0, 1.0, name="spare")
        calls = recording_backend(monkeypatch)
        got = model.solve(warm=other)
        # another number of variables: no warm run
        assert [(w, r.status) for w, r in calls] == [(False, LpStatus.OPTIMAL)]
        assert got.values.tobytes() == model.solve().values.tobytes()

    def test_basis_of_other_rows_starts_warm_by_name(self, monkeypatch):
        """The two-bus model lacks the co-located model's balance rows and
        adds its own: the rows both have keep the seed's status, and the
        run ends at the cold optimum's cost."""
        other = golden_model("offgrid_night").solve()
        model = golden_model("split_yearly")
        cold = model.solve()
        options = []
        calls = recording_backend(monkeypatch, options=options)
        got = model.solve(warm=other)
        assert [(w, r.status) for w, r in calls] == [(True, LpStatus.OPTIMAL)]
        assert options[0] == lp._SEED_OPTIONS
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert model.check_feasibility(got.values) == []

    def test_added_row_starts_warm_and_basic(self, monkeypatch):
        """A model with the seed's rows plus one, matched by name, starts
        from the seed's basis, and the added row starts basic."""
        seed = golden_model("split_yearly").solve()
        model, pvars = golden_variant("split_yearly")
        # half the seed's PV: the seed's point breaks the new row
        model.add_rows(["pv_half"], Sense.LE, 0.5 * seed.value(pvars.c_pv), [0],
                       [pvars.c_pv], [1.0])
        assert model.check_feasibility(seed.values)
        cold = model.solve()
        options, bases = [], []
        calls = recording_backend(monkeypatch, options=options, bases=bases)
        got = model.solve(warm=seed)
        assert [w for w, _ in calls] == [True]
        assert options[0] == lp._SEED_OPTIONS
        assert options[0]["simplex_dual_edge_weight_strategy"] == 1
        # the new row is the model's last row, and HiGHS's
        rows = bases[0].row_status
        assert rows[-1] == lp._load_highs().HighsBasisStatus.kBasic
        assert rows[:-1] == seed.basis.row_status
        assert bases[0].col_status == seed.basis.col_status
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert model.check_feasibility(got.values) == []

    def test_seed_of_a_model_without_rows_starts_every_row_basic(self, monkeypatch):
        m = LpModel()
        x = m.add_variable(0.0, 5.0, name="x")
        m.set_objective([x], [1.0])
        seed = m.solve()
        m.add_rows(["floor"], Sense.GE, 1.0, [0], [x], [1.0])
        bases = []
        calls = recording_backend(monkeypatch, bases=bases)
        got = m.solve(warm=seed)
        assert [w for w, _ in calls] == [True]
        assert bases[0].row_status == [lp._load_highs().HighsBasisStatus.kBasic]
        assert got.values.tolist() == [1.0]

    def test_seed_with_a_binding_row_this_model_lacks_starts_warm(self, monkeypatch):
        """The seed's model has one more row, binding at its optimum, so
        its basis has one basic variable too many here: the kept rows
        keep their status, HiGHS completes the basis, and the run ends at
        the cold optimum's cost."""
        model, pvars = golden_variant("split_yearly")
        free = model.solve()
        model.add_rows(["pv_half"], Sense.LE, 0.5 * free.value(pvars.c_pv), [0],
                       [pvars.c_pv], [1.0])
        seed = model.solve()
        plain = golden_model("split_yearly")
        assert seed.is_optimal and plain.check_feasibility(seed.values) == []
        for warm in (seed, seed.as_seed()):
            options, bases = [], []
            calls = recording_backend(monkeypatch, options=options, bases=bases)
            got = plain.solve(warm=warm)
            assert [(w, r.status) for w, r in calls] == [(True, LpStatus.OPTIMAL)]
            assert options[0] == lp._SEED_OPTIONS and bases[0].alien
            # the dropped row is the seed model's last row, and HiGHS's
            rows = seed.basis.row_status
            assert rows[-1] != lp._load_highs().HighsBasisStatus.kBasic
            assert bases[0].row_status == rows[:-1]
            assert got.objective_value == pytest.approx(free.objective_value, rel=1e-9)
            assert plain.check_feasibility(got.values) == []

    def test_seed_keyed_by_row_name_matches_the_same_shape_start(self, monkeypatch):
        """as_seed keeps the basis: a seed of the same rows starts the
        same run as the HiGHS basis it came from."""
        seed = golden_model("split_yearly").solve()
        model = golden_model("split_yearly")
        bases = []
        recording_backend(monkeypatch, bases=bases)
        direct, keyed = model.solve(warm=seed), model.solve(warm=seed.as_seed())
        assert bases[0] is seed.basis
        assert (bases[1].row_status, bases[1].col_status) == (
            seed.basis.row_status, seed.basis.col_status)
        assert keyed.values.tobytes() == direct.values.tobytes()
        assert seed.as_seed().basis.rows.dtype == np.int8

    def test_cost_change_starts_primal(self, monkeypatch):
        seed = golden_model("offgrid_night").solve()
        model, _ = golden_variant("offgrid_night", storage_kg=20000.0)
        cold = model.solve()
        options = []
        calls = recording_backend(monkeypatch, options=options)
        got = model.solve(warm=seed)
        assert [w for w, _ in calls] == [True]
        assert options[0]["simplex_strategy"] == 4 and not options[0]["presolve"]
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)

    def test_bounds_cutting_off_the_seed_start_dual(self, monkeypatch):
        seed = golden_model("offgrid_night").solve()
        _, pvars = golden_variant("offgrid_night")
        model, _ = golden_variant("offgrid_night",
                                  electrolyser_kw=Fixed(1.1 * seed.value(pvars.c_el)))
        assert model.check_feasibility(seed.values)
        cold = model.solve()
        options = []
        calls = recording_backend(monkeypatch, options=options)
        got = model.solve(warm=seed)
        assert [w for w, _ in calls] == [True]
        assert options[0]["simplex_strategy"] == 1 and not options[0]["presolve"]
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert model.check_feasibility(got.values) == []

    def test_non_optimal_dual_run_falls_back_to_cold(self, monkeypatch):
        seed = golden_model("offgrid_night").solve()
        _, pvars = golden_variant("offgrid_night")
        model, _ = golden_variant("offgrid_night",
                                  electrolyser_kw=Fixed(1.1 * seed.value(pvars.c_el)))
        cold = model.solve()
        options = []
        calls = recording_backend(monkeypatch, lambda basis: (
            SolverResult(LpStatus.SOLVER_FAILURE, None, 0, "forced limit")
            if basis is not None else None),
            options=options)
        got = model.solve(warm=seed)
        assert [w for w, _ in calls] == [True, False]
        assert options[0]["simplex_strategy"] == 1
        assert (got.status, got.message) == (cold.status, cold.message)
        assert got.values.tobytes() == cold.values.tobytes()

    def test_model_the_seed_makes_infeasible_gets_the_cold_verdict(self, monkeypatch):
        seed = golden_model("offgrid_night").solve()
        model, _ = golden_variant("offgrid_night", wind_kw=Fixed(0.0), pv_kw=Fixed(0.0))
        cold = model.solve()
        assert cold.status is LpStatus.INFEASIBLE
        options = []
        calls = recording_backend(monkeypatch, options=options)
        got = model.solve(warm=seed)
        assert calls[0][0] and not any(w for w, _ in calls[1:]) and len(calls) > 1
        assert options[0]["simplex_strategy"] == 1
        assert (got.status, got.message) == (cold.status, cold.message)

    def test_infeasible_verdict_is_confirmed_at_stock_tolerances(self, monkeypatch):
        model, _ = golden_variant("offgrid_night", wind_kw=Fixed(0.0), pv_kw=Fixed(0.0))
        options = []
        recording_backend(monkeypatch, options=options)
        got = model.solve()
        assert got.status is LpStatus.INFEASIBLE and got.values is None
        assert options == [lp._TIGHT_OPTIONS, lp._STOCK_OPTIONS]

    def test_unbounded_verdict_stands_after_one_run(self, monkeypatch):
        m = LpModel()
        x, y = m.add_variables(["x", "y"])
        m.add_rows(["floor"], Sense.GE, 1.0, [0, 0], [x, y], [1.0, -1.0])
        m.set_objective([x, y], [-1.0, 0.5])
        options = []
        recording_backend(monkeypatch, options=options)
        assert m.solve().status is LpStatus.UNBOUNDED
        assert options == [lp._TIGHT_OPTIONS]

    def test_failed_runs_try_every_cold_attempt(self, monkeypatch):
        model = golden_model("offgrid_night")
        options = []
        recording_backend(monkeypatch, lambda basis: SolverResult(
            LpStatus.SOLVER_FAILURE, None, 0, "forced failure"), options=options)
        got = model.solve()
        assert (got.status, got.message) == (LpStatus.SOLVER_FAILURE, "forced failure")
        assert options == [lp._TIGHT_OPTIONS, lp._TIGHT_NO_PRESOLVE, lp._STOCK_OPTIONS]

    def test_seed_of_other_rows_failing_the_gate_falls_back_to_cold(self, monkeypatch):
        other = golden_model("offgrid_night").solve()
        model = golden_model("split_yearly")
        cold = model.solve()
        checked = []
        original = LpModel.check_feasibility

        def gate(self, x, tol=FEASIBILITY_TOL):
            checked.append(x)
            return ["forced violation"] if len(checked) == 1 else original(self, x, tol)

        monkeypatch.setattr(LpModel, "check_feasibility", gate)
        options = []
        calls = recording_backend(monkeypatch, options=options)
        got = model.solve(warm=other)
        assert calls[0][1].status is LpStatus.OPTIMAL
        assert options == [lp._SEED_OPTIONS, lp._TIGHT_OPTIONS] and len(checked) == 2
        assert got.values.tobytes() == cold.values.tobytes()

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


class TestWriteLp:
    def test_layout(self, tmp_path):
        m = LpModel()
        x = m.add_variable(0, 10, name="flow")
        y = m.add_variable(-math.inf, math.inf, name="slack")
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
            a = m.add_variable(0, 5, name="a")
            b = m.add_variable(1, math.inf, name="b")
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
        x = m.add_variable(0, 10)
        y = m.add_variable(0, 10)
        m.add_rows([""], Sense.GE, 6.0, [0, 0], [x, y], [1.0, 1.0])
        m.set_objective([x, y], [2.0, 3.0])
        ref = enumerate_solve(m)
        assert ref.status is LpStatus.OPTIMAL
        assert ref.objective_value == pytest.approx(12.0, abs=1e-9)
        assert m.solve().objective_value == pytest.approx(12.0, abs=1e-9)

    def test_detects_infeasible(self):
        m = LpModel()
        x = m.add_variable(0, 1)
        m.add_rows([""], Sense.GE, 2.0, [0], [x], [1.0])
        assert enumerate_solve(m).status is LpStatus.INFEASIBLE

    def test_requires_finite_bounds(self):
        m = LpModel()
        m.add_variable(0, math.inf)
        with pytest.raises(ValueError, match="finite"):
            enumerate_solve(m)

    def test_requires_small_model(self):
        m = LpModel()
        for _ in range(4):
            m.add_variable(0, 1)
        with pytest.raises(ValueError, match="1-3"):
            enumerate_solve(m)


def small_lp_models():
    """Random integer-data LPs with <=3 boxed variables."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 3))
        m = LpModel()
        for _ in range(n):
            a = draw(st.integers(-6, 6))
            b = draw(st.integers(-6, 6))
            m.add_variable(min(a, b), max(a, b))
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
