"""LP layer: model construction, solve contract, and a brute-force
vertex enumerator that serves as the reference solver for tiny LPs."""

import math
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from h2grid import lp
from h2grid.economics import build_scenario_model, storage_unit_cost
from h2grid.lp import (
    FEASIBILITY_TOL,
    LinearExpr,
    LpModel,
    LpStatus,
    LpSolution,
    Sense,
    SolverResult,
    term,
)
from h2grid.types import PlantParameters
from conftest import recording_backend
from test_golden_lp import CASES as GOLDEN_CASES


def enumerate_solve(model: LpModel) -> LpSolution:
    """Reference solver for tiny LPs: enumerate candidate vertices from
    all n-subsets of constraint/bound hyperplanes and take the best
    feasible one. Requires <= 3 variables and finite bounds (so the
    feasible region is a polytope and the optimum sits on a vertex)."""
    n = model.num_variables
    if n == 0 or n > 3:
        raise ValueError(f"reference solver handles 1-3 variables, got {n}")
    planes: list[tuple[np.ndarray, float]] = []
    for vid in range(n):
        lo, hi = model.bounds(vid)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"reference solver requires finite bounds, "
                             f"variable {vid} has [{lo}, {hi}]")
        e = np.zeros(n)
        e[vid] = 1.0
        planes.append((e.copy(), lo))
        planes.append((e, hi))
    for cons in model.constraints().values():
        a = np.zeros(n)
        for vid, coeff in cons.expr.coeffs.items():
            a[vid] = coeff
        planes.append((a, cons.rhs - cons.expr.constant))

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
        obj = model.objective.evaluate(x)
        if obj < best_obj:
            best_obj, best_x = obj, x
    if best_x is None:
        return LpSolution(LpStatus.INFEASIBLE, math.nan, None, "no feasible vertex")
    return LpSolution(LpStatus.OPTIMAL, best_obj, best_x, "vertex enumeration")


class TestLinearExpr:
    def test_duplicate_vars_merge(self):
        e = LinearExpr([(0, 1.0), (0, 2.5), (1, -1.0)])
        assert e.coefficient(0) == 3.5
        assert e.coefficient(1) == -1.0
        assert e.coefficient(7) == 0.0

    def test_exact_cancellation_reads_as_zero(self):
        e = term(0, 2.0) - term(0, 2.0)
        assert e.coefficient(0) == 0.0
        assert e.coeffs == {}

    def test_operators(self):
        e = 2.0 * term(0) + term(1, -1.0) + 5.0
        assert e.coefficient(0) == 2.0
        assert e.constant == 5.0
        f = -(e - 1.0)
        assert f.coefficient(0) == -2.0
        assert f.constant == -4.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            term(0, math.inf)
        with pytest.raises(ValueError):
            LinearExpr([], constant=math.nan)
        with pytest.raises(ValueError):
            term(0) * math.inf

    def test_immutable(self):
        e = term(0)
        with pytest.raises(AttributeError):
            e.constant = 3.0

    def test_evaluate(self):
        e = term(0, 2.0) + term(2, -1.0) + 3.0
        assert e.evaluate(np.array([1.0, 99.0, 4.0])) == 1.0


class TestModelConstruction:
    def test_add_variable_ids_sequential(self):
        m = LpModel()
        assert m.add_variable(0, math.inf) == 0
        assert m.add_variable(5, 5) == 1
        assert m.num_variables == 2
        assert m.bounds(1) == (5.0, 5.0)

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
            m.add_constraint(term(3), Sense.LE, 1.0)
        with pytest.raises(ValueError, match="unregistered"):
            m.set_objective(term(1))

    def test_constraint_count_and_removal(self):
        m = LpModel()
        x = m.add_variable(0, 10)
        c1 = m.add_constraint(term(x), ">=", 3.0)
        c2 = m.add_constraint(term(x), "<=", 8.0)
        assert m.num_constraints == 2
        m.remove_constraint(c1)
        assert m.num_constraints == 1
        assert c2 in m.constraints()
        with pytest.raises(ValueError, match="no constraint"):
            m.remove_constraint(c1)

    def test_constraint_round_trip(self):
        m = LpModel()
        x = m.add_variable()
        y = m.add_variable()
        cid = m.add_constraint(term(x, 2.0) + term(y, -3.0), Sense.EQ, 7.0, name="bal")
        cons = m.constraints()[cid]
        assert cons.expr.coefficient(x) == 2.0
        assert cons.expr.coefficient(y) == -3.0
        assert cons.sense is Sense.EQ
        assert cons.rhs == 7.0
        assert cons.name == "bal"

    def test_unknown_sense_rejected(self):
        m = LpModel()
        x = m.add_variable()
        with pytest.raises(ValueError, match="sense"):
            m.add_constraint(term(x), "!=", 0.0)


class TestBlocks:
    def test_add_variables_block(self):
        m = LpModel()
        ids = m.add_variables(["a", "b", "c"], 0.0, [1.0, 2.0, math.inf])
        assert ids.tolist() == [0, 1, 2]
        assert m.bounds(1) == (0.0, 2.0)
        assert m.variable_name(2) == "c"
        with pytest.raises(ValueError, match="exceeds.*'e'"):
            m.add_variables(["d", "e"], [0.0, 3.0], 2.0)
        with pytest.raises(ValueError, match="NaN.*'f'"):
            m.add_variables(["f"], math.nan)
        assert m.num_variables == 3

    def test_add_rows_merges_like_linear_expr(self):
        m = LpModel()
        m.add_variables(["x", "y", "z"])
        cids = m.add_rows(["r0", "r1"], [Sense.LE, ">="], [4.0, -1.0],
                          rows=[1, 0, 0, 0, 1, 0],
                          cols=[2, 1, 0, 1, 1, 2],
                          coefs=[5.0, 0.1, 3.0, 0.2, -5.0, -3.0])
        rows = m.constraints()
        assert cids.tolist() == [0, 1]
        # duplicates sum in the order given, exact zeros drop after the sum
        expected = LinearExpr([(1, 0.1), (0, 3.0), (1, 0.2), (2, -3.0)])
        assert rows[0].expr.coeffs == expected.coeffs == {0: 3.0, 1: 0.1 + 0.2, 2: -3.0}
        assert rows[1].expr.coeffs == {1: -5.0, 2: 5.0}
        assert (rows[0].sense, rows[0].rhs, rows[0].name) == (Sense.LE, 4.0, "r0")
        assert (rows[1].sense, rows[1].rhs) == (Sense.GE, -1.0)
        m.add_rows(["gone"], "=", 0.0, [0, 0], [0, 0], [1.5, -1.5])
        assert m.constraints()[2].expr.coeffs == {}

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
    ])
    def test_add_rows_rejects(self, kwargs, match):
        m = LpModel()
        m.add_variables(["x", "y"])
        args = dict(names=["a", "b"], sense=Sense.LE, rhs=0.0,
                    rows=[0], cols=[1], coefs=[1.0])
        args.update(kwargs)
        with pytest.raises(ValueError, match=match):
            m.add_rows(**args)
        assert m.num_constraints == 0

    def test_constant_moves_to_rhs(self):
        m = LpModel()
        x = m.add_variable(0, 10)
        cid = m.add_constraint(term(x) + 2.0, "<=", 5.0)
        assert m.constraints()[cid].rhs == 3.0
        m.set_objective(term(x, -1.0))
        assert m.solve().value(x) == pytest.approx(3.0)

    def test_remove_constraint_array(self):
        m = LpModel()
        x = m.add_variable(0, 10)
        cids = m.add_rows(["a", "b", "c"], ">=", [1.0, 2.0, 3.0],
                          [0, 1, 2], [x, x, x], [1.0, 1.0, 1.0])
        m.remove_constraint(cids[[0, 2]])
        assert list(m.constraints()) == [1]
        with pytest.raises(ValueError, match="no constraint with id 2"):
            m.remove_constraint([1, 2])
        assert m.num_constraints == 1

    def test_solve_leaves_model_unchanged(self, tmp_path):
        m = LpModel()
        x = m.add_variable(0, 10)
        y = m.add_variable(0, 10)
        m.add_constraint(term(x) + term(y), ">=", 4.0)
        m.add_constraint(term(x) - term(y), "<=", 1.0)
        m.set_objective(term(x, 2.0) + term(y))
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
        m.add_constraint(term(x), ">=", 3.0)
        m.set_objective(term(x))
        sol = m.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value(x) == pytest.approx(3.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_infeasible(self):
        m = LpModel()
        x = m.add_variable(0, 10)
        m.add_constraint(term(x), ">=", 1.0)
        m.add_constraint(term(x), "<=", 0.0)
        sol = m.solve()
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.values is None

    def test_unbounded(self):
        m = LpModel()
        x = m.add_variable(0, math.inf)
        m.set_objective(term(x, -1.0))
        assert m.solve().status is LpStatus.UNBOUNDED

    def test_pinned_variable(self):
        m = LpModel()
        x = m.add_variable(5, 5)
        m.set_objective(term(x))
        sol = m.solve()
        assert sol.value(x) == pytest.approx(5.0)

    def test_equality_and_objective_constant(self):
        m = LpModel()
        x = m.add_variable(-10, 10)
        y = m.add_variable(-10, 10)
        m.add_constraint(term(x) + term(y), Sense.EQ, 4.0)
        m.set_objective(term(x, 1.0) + term(y, 2.0) + 100.0)
        sol = m.solve()
        # push y to its floor: x=14 impossible (ub 10), so x=10, y=-6? No:
        # min x + 2y with x+y=4 -> minimize y => y=-10 needs x=14 > ub, so x=10, y=-6
        assert sol.objective_value == pytest.approx(100.0 + 10.0 - 12.0, rel=1e-9)

    def test_removed_constraint_not_enforced(self):
        m = LpModel()
        x = m.add_variable(0, 10)
        cid = m.add_constraint(term(x), ">=", 3.0)
        m.set_objective(term(x))
        m.remove_constraint(cid)
        assert m.solve().objective_value == pytest.approx(0.0, abs=1e-9)

    def test_optimal_point_refeasibility(self):
        m = LpModel()
        x = m.add_variable(0, 100)
        y = m.add_variable(0, 100)
        m.add_constraint(term(x, 1.0) + term(y, 1.0), ">=", 10.0)
        m.add_constraint(term(x, 1.0) + term(y, -1.0), "<=", 2.0)
        m.set_objective(term(x, 3.0) + term(y, 1.0))
        sol = m.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert m.check_feasibility(sol.values) == []

    def test_check_feasibility_flags_violation(self):
        m = LpModel()
        x = m.add_variable(0, 10)
        m.add_constraint(term(x), ">=", 3.0, name="floor")
        bad = np.array([1.0])
        msgs = m.check_feasibility(bad)
        assert len(msgs) == 1
        assert "floor" in msgs[0]

    def test_value_accessors(self):
        m = LpModel()
        x = m.add_variable(2, 2)
        y = m.add_variable(3, 3)
        m.set_objective(term(x))
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


class TestBackend:
    @pytest.mark.parametrize("options", ["_TIGHT_OPTIONS", "_TIGHT_NO_PRESOLVE",
                                         "_STOCK_OPTIONS"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_cold_run_matches_public_linprog(self, name, options):
        c, problem = golden_model(name)._solver_input()
        opts = getattr(lp, options)
        got = lp.linprog(c, **problem, options=opts)
        ref = scipy.optimize.linprog(c, **problem, method="highs-ds", options=opts)
        assert (got.status, got.nit, got.message) == (ref.status, ref.nit, ref.message)
        if ref.x is None:
            assert got.x is None
        else:
            assert got.x.tobytes() == ref.x.tobytes()

    def test_infeasible_message_matches_public_path(self, monkeypatch):
        model = golden_model("grid_daily_capped")
        got = model.solve()
        monkeypatch.setattr(lp, "_load_highs", lambda: None)
        ref = model.solve()
        assert got.status is ref.status is LpStatus.INFEASIBLE
        assert got.message == ref.message

    def test_public_path_gives_no_basis(self, monkeypatch):
        monkeypatch.setattr(lp, "_load_highs", lambda: None)
        model = golden_model("offgrid_night")
        sol = model.solve()
        assert sol.is_optimal and sol.basis is None
        calls = recording_backend(monkeypatch)
        assert model.solve(warm=sol).values.tobytes() == sol.values.tobytes()
        assert [warm for warm, _ in calls] == [False]

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
            SolverResult(4, None, 0, "forced failure") if basis is not None else None))
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
        calls = recording_backend(monkeypatch)
        got = model.solve(warm=other)
        assert [(w, r.status) for w, r in calls] == [(True, 4), (False, 0)]
        assert got.values.tobytes() == model.solve().values.tobytes()


class TestWriteLp:
    def test_layout(self, tmp_path):
        m = LpModel()
        x = m.add_variable(0, 10, name="flow")
        y = m.add_variable(-math.inf, math.inf)
        m.add_constraint(term(x, 2.0) + term(y, -1.0), "<=", 4.0, name="cap")
        m.add_constraint(term(x) + term(y), Sense.EQ, 1.0)
        m.set_objective(term(x, 1.5) + 2.0)
        path = tmp_path / "model.lp"
        m.write_lp(path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("\\")
        assert lines[1] == "Minimize"
        assert lines[2] == " obj: 1.5 flow + 2.0"
        assert lines[3] == "Subject To"
        assert lines[4] == " cap: 2.0 flow - 1.0 x1 <= 4.0"
        assert lines[5] == " c1: 1.0 flow + 1.0 x1 = 1.0"
        assert lines[6] == "Bounds"
        assert lines[7] == " 0.0 <= flow <= 10.0"
        assert lines[8] == " x1 free"
        assert lines[9] == "End"

    def test_deterministic_bytes(self, tmp_path):
        def build():
            m = LpModel()
            a = m.add_variable(0, 5)
            b = m.add_variable(1, math.inf, name="b")
            m.add_constraint(term(a) + term(b, 2.0), ">=", 2.0)
            m.set_objective(term(a) + term(b))
            return m

        p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
        build().write_lp(p1)
        build().write_lp(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestEnumerator:
    def test_matches_hand_solution(self):
        m = LpModel()
        x = m.add_variable(0, 10)
        y = m.add_variable(0, 10)
        m.add_constraint(term(x) + term(y), ">=", 6.0)
        m.set_objective(term(x, 2.0) + term(y, 3.0))
        ref = enumerate_solve(m)
        assert ref.status is LpStatus.OPTIMAL
        assert ref.objective_value == pytest.approx(12.0, abs=1e-9)
        assert m.solve().objective_value == pytest.approx(12.0, abs=1e-9)

    def test_detects_infeasible(self):
        m = LpModel()
        x = m.add_variable(0, 1)
        m.add_constraint(term(x), ">=", 2.0)
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
            sense = draw(st.sampled_from(["<=", ">=", "="]))
            rhs = draw(st.integers(-8, 8))
            m.add_constraint(LinearExpr(list(enumerate(coeffs))), sense, rhs)
        m.set_objective(LinearExpr([(i, draw(st.integers(-4, 4))) for i in range(n)]))
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
    model.set_objective(model.objective * k)
    scaled = model.solve()
    assert scaled.status is base.status
    if base.status is LpStatus.OPTIMAL:
        tol = 1e-6 * max(1.0, abs(k * base.objective_value))
        assert abs(scaled.objective_value - k * base.objective_value) <= tol
