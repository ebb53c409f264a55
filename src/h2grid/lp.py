"""Minimal LP layer: build a model, solve it, verify the result.

Only this module talks to a solver. A model keeps its rows as numpy
blocks, and index arrays are the one way to fill it: `add_variables`
(or `add_variable`) appends variables, `add_rows` appends constraint
rows, `set_objective` sets the objective; entries that share a row and
a variable are summed in one place, `_merge`. A row's sense is a
`Sense`, stored as its integer value. `write_lp` writes each name as
its label, so the names of an exported model are distinct ASCII
identifiers.

Every HiGHS run goes through `linprog`, the solver backend: scipy's
bundled HiGHS binding, handed the model's own CSR matrix as a rowwise
HiGHS matrix, so HiGHS row i is model row i. Each row is ranged by its
sense: LE [-inf, b], GE [b, inf], EQ [b, b]. HiGHS's model status is the
verdict (optimal, infeasible, unbounded, anything else a solver failure)
and its status string the message. `LpModel.solve(warm=...)` hands
the backend the optimal basis of an earlier solve of a model with the
same variables. With the same rows, HiGHS's basis is passed on as it
is (storage-pricing re-solves, sweep points), and the data picks the
simplex variant that starts there: primal simplex when the earlier point
passes this model's `check_feasibility` (only costs moved, as between
storage-pricing re-solves; primal needs a few iterations, dual from the
same basis took longer than a cold solve), else dual simplex (bounds
moved, as between sweep points; the basis is no longer primal feasible,
and dual simplex needed fewer iterations than primal from it). With other
rows (suite members, whose models differ in their matching or cap rows),
the basis is keyed by row name (`LpSolution.as_seed`, int8 statuses,
done only on this path because reading HiGHS's status lists costs a few
milliseconds): a row both models have keeps its status, a row only this
model has starts basic, its slack taking up the new constraint, and a
row only the earlier model had is dropped. HiGHS factors that basis
as an alien one and completes it where dropped binding rows left too
many basic variables. Dual simplex priced with devex starts there (see
_SEED_OPTIONS). A warm result that is not optimal or fails
`check_feasibility` is discarded for the cold attempt order, so
infeasible and unbounded verdicts come only from cold runs. The binding
is loaded from its extension file inside the installed scipy package,
and the matrices are plain numpy arrays, so no scipy module is imported;
a scipy without that file raises a named ImportError, as there is no
other solver path.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from typing import NamedTuple, Sequence

import numpy as np

VarId = int

FEASIBILITY_TOL = 1e-6

# hand HiGHS tighter tolerances than the 1e-6 we verify against, so the
# post-solve check has headroom. Two failure modes force fallbacks, both
# deterministic (the attempt order is fixed): postsolve can fail to
# re-attain 1e-9 on degenerate models and report an unknown status, and
# constraints whose terms reach ~1e7 cannot be satisfied to 1e-9
# absolute at all (rounding alone is larger), so a tight-tolerance
# "infeasible" needs confirmation at stock tolerances before we believe
# it. Unbounded and optimal are scale-free verdicts and stand as is.
_TIGHT_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}
_TIGHT_NO_PRESOLVE = dict(_TIGHT_OPTIONS, presolve=False)
_STOCK_OPTIONS = {"presolve": True}
# warm starts skip presolve, which would discard the basis; LpModel.solve
# picks primal or dual simplex from the data
_WARM_OPTIONS = dict(_TIGHT_NO_PRESOLVE, simplex_strategy=4)
_WARM_DUAL_OPTIONS = dict(_TIGHT_NO_PRESOLVE, simplex_strategy=1)
# a start from another model's basis (other rows) is dual simplex priced
# with devex: on two T=840 suites the four seeded members took 0.25 s in
# all with it, 0.63-0.84 s with HiGHS's default dual pricing (steepest
# edge) and 0.46-0.53 s with primal simplex, for similar iteration
# counts; the likely cost of steepest edge is the exact edge weights it
# first computes for a starting basis other than the slack basis. It runs
# at HiGHS's stock feasibility tolerances (1e-7). At the 1e-9 of the other
# runs, dual simplex from these bases can stop at "possibly optimal" with
# primal infeasibilities near 1e-6, rebuild and go on, again and again:
# on input 2000 of the benchmark's T=840 suite the seeded flexible member
# did so 200 times (0.64 s, 1,617 iterations, against 0.06 s and 1,411
# iterations at 1e-7), and 5 of its 24 inputs had a seeded run over
# 0.3 s, none at 1e-7. The point still has to pass check_feasibility.
_SEED_OPTIONS = {"presolve": False, "simplex_strategy": 1,
                 "simplex_dual_edge_weight_strategy": 1}


class Sense(IntEnum):
    """A row's sense. Its value is the code the row is stored under, so
    an integer array of values gives one sense per row."""

    LE = 0
    EQ = 1
    GE = 2

    @property
    def symbol(self) -> str:
        """The relation in LP text and in check_feasibility's messages."""
        return ("<=", "=", ">=")[self]


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    SOLVER_FAILURE = "solver_failure"


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    objective_value: float
    values: np.ndarray | None
    message: str = ""
    # HiGHS's optimal basis (opaque), or a Basis (see as_seed); None when
    # no solver run ended optimal (every result that is not optimal, and a
    # model without variables)
    basis: object = field(default=None, repr=False, compare=False)
    # the solved model's row names, in LpModel order: what keys the basis
    # by row name
    model_rows: tuple = field(default=(), repr=False, compare=False)

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    def as_seed(self) -> LpSolution:
        """This solution with its basis as a Basis, which can start a model
        with other rows (see LpModel.solve) and holds no HiGHS object.
        Converting costs a few milliseconds at T=840, so it is done only
        for a solution that seeds another model."""
        if self.basis is None or isinstance(self.basis, Basis):
            return self
        cols, rows = (np.array([s.value for s in status], dtype=np.int8)
                      for status in (self.basis.col_status, self.basis.row_status))
        return replace(self, basis=Basis(cols, rows))

    def value(self, vid: VarId) -> float:
        return float(self.series([vid])[0])

    def series(self, vids) -> np.ndarray:
        if self.values is None:
            raise ValueError(f"no solution values (status {self.status.value})")
        return self.values[np.asarray(vids, dtype=int)]


class Basis(NamedTuple):
    """A HiGHS basis as arrays: the int8 HighsBasisStatus value of each
    column and of each row."""

    cols: np.ndarray
    rows: np.ndarray


class LpModel:
    """LP under construction: bounded variables, constraints, minimize
    objective. Variables and rows are numbered in insertion order; a
    constraint's id is its row number."""

    def __init__(self):
        self._var_names: list[str] = []
        self._row_names: list[str] = []
        self._vars = [(np.zeros(0), np.zeros(0))]        # (lower, upper) per block
        self._rows = [(np.zeros(0, np.int8), np.zeros(0), np.zeros(0, np.int64),
                       np.zeros(0, np.int64), np.zeros(0))]  # (sense, rhs, row, col, coef)
        self._obj = (np.zeros(0, np.int64), np.zeros(0), 0.0)  # (cols, coefs, constant)
        self._cache = None

    # -- construction -------------------------------------------------

    def add_variables(self, names: Sequence[str], lower=0.0, upper=math.inf) -> np.ndarray:
        """Append len(names) variables; lower and upper are one bound for
        the block or one per variable. Returns their ids."""
        k, first = len(names), self.num_variables
        lower, upper = (np.array(np.broadcast_to(np.asarray(b, dtype=float), (k,)))
                        for b in (lower, upper))
        for i in np.flatnonzero(np.isnan(lower) | np.isnan(upper))[:1]:
            raise ValueError(f"NaN bound on variable {names[i]!r}")
        for i in np.flatnonzero(lower > upper)[:1]:
            raise ValueError(f"lower bound {lower[i]} exceeds upper bound {upper[i]}"
                             f" on variable {names[i]!r}")
        self._vars.append((lower, upper))
        self._var_names.extend(names)
        self._cache = None
        return np.arange(first, first + k)

    def add_variable(self, lower: float = 0.0, upper: float = math.inf,
                     name: str = "") -> VarId:
        return int(self.add_variables([name], float(lower), float(upper))[0])

    def _entries(self, rows, cols, coefs, m: int):
        """Checked and merged entries of an m-row block (see _merge)."""
        rows, cols, coefs = (np.asarray(a, dtype=t).reshape(-1) for a, t in
                             ((rows, np.int64), (cols, np.int64), (coefs, float)))
        if not rows.size == cols.size == coefs.size or np.any((rows < 0) | (rows >= m)):
            raise ValueError(f"need one row in [0, {m}), variable and coefficient per entry")
        for i in np.flatnonzero((cols < 0) | (cols >= self.num_variables))[:1]:
            raise ValueError(f"entry references unregistered variable {cols[i]}")
        for i in np.flatnonzero(~np.isfinite(coefs))[:1]:
            raise ValueError(f"non-finite coefficient {coefs[i]} on variable {cols[i]}")
        return _merge(rows, cols, coefs, self.num_variables)

    def add_rows(self, names: Sequence[str], sense, rhs, rows, cols, coefs) -> np.ndarray:
        """Append len(names) constraints and return their ids.

        Entry k puts coefs[k] on variable cols[k] in row rows[k] of the
        block (0-based). sense is a Sense for the whole block, or one
        per row: a sequence of Senses or an integer array of their values
        (symbols such as "<=" are not senses); rhs is one value or one
        per row. Names may be empty or repeat here, but write_lp writes
        each one as its label and so needs distinct identifiers."""
        m, first = len(names), len(self._row_names)
        codes = np.asarray(sense)
        if codes.dtype.kind not in "iu" or np.any((codes < Sense.LE) | (codes > Sense.GE)):
            raise ValueError(f"constraint sense must be a Sense or one per row, got {sense!r}")
        codes = np.array(np.broadcast_to(codes, (m,)), dtype=np.int8)
        rhs = np.array(np.broadcast_to(np.asarray(rhs, dtype=float), (m,)))
        for i in np.flatnonzero(~np.isfinite(rhs))[:1]:
            raise ValueError(f"non-finite rhs {rhs[i]} on constraint {names[i]!r}")
        rows, cols, coefs = self._entries(rows, cols, coefs, m)
        self._rows.append((codes, rhs, rows + first, cols, coefs))
        self._row_names.extend(names)
        self._cache = None
        return np.arange(first, first + m)

    def set_objective(self, cols, coefs, constant: float = 0.0) -> None:
        """Minimize sum(coefs[k] * x[cols[k]]) + constant."""
        if not math.isfinite(constant):
            raise ValueError(f"non-finite objective constant {constant}")
        _, cols, coefs = self._entries(np.zeros(np.size(cols)), cols, coefs, 1)
        self._obj = (cols, coefs, float(constant))

    # -- inspection ---------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._var_names)

    def _arrays(self) -> tuple:
        """The blocks so far, concatenated: lb, ub, sense (Sense values),
        rhs and A, the CSR matrix of the rows."""
        if self._cache is None:
            lb, ub = (np.concatenate(part) for part in zip(*self._vars))
            sense, rhs, rows, cols, coefs = (np.concatenate(part) for part in zip(*self._rows))
            # the concatenation is the one block from now on, so that each
            # row is held once; A shares its cols and coefs
            self._vars = [(lb, ub)]
            self._rows = [(sense, rhs, rows, cols, coefs)]
            m = len(self._row_names)
            A = CsrMatrix(np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m)))),
                          cols, coefs, (m, self.num_variables))
            self._cache = (lb, ub, sense, rhs, A)
        return self._cache

    # -- feasibility --------------------------------------------------

    def check_feasibility(self, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> list[str]:
        """Violations of constraints and bounds at x, scaled per row by
        max(1, |rhs|, max |a_ij x_j|). Empty list means feasible.

        A row within the rounding error of its floating-point row sum of
        its threshold is decided again with an exactly rounded sum."""
        x = np.asarray(x, dtype=float)
        lb, ub, sense, rhs, _ = self._arrays()
        vids, cids, lhs, resid = self._violated(x, tol)
        return [
            f"variable {vid} ({self._var_names[vid]!r}) value {float(x[vid])} outside "
            f"[{float(lb[vid])}, {float(ub[vid])}]" for vid in vids.tolist()
        ] + [
            f"constraint {cid} ({self._row_names[cid]!r}) violated by {r:.3e} "
            f"(lhs {lhs_i}, {Sense(sense[cid]).symbol} rhs {float(rhs[cid])})"
            for cid, lhs_i, r in zip(cids.tolist(), lhs.tolist(), resid.tolist())]

    def _violated(self, x: np.ndarray, tol: float) -> tuple:
        """check_feasibility's verdict as arrays: the variables outside
        their bounds, then the violated rows with their exact lhs and
        residual."""
        lb, ub, sense, rhs, A = self._arrays()
        scale = np.maximum(1.0, np.maximum(np.where(np.isfinite(lb), np.abs(lb), 1.0),
                                           np.where(np.isfinite(ub), np.abs(ub), 1.0)))
        vids = np.flatnonzero((x < lb - tol * scale) | (x > ub + tol * scale))

        prod = A.data * x[A.indices]
        nnz = np.diff(A.indptr)
        row_sum, row_max, row_abs = np.zeros((3, nnz.size))
        if prod.size:
            starts = A.indptr[:-1][nnz > 0]
            row_sum[nnz > 0] = np.add.reduceat(prod, starts)
            row_max[nnz > 0] = np.maximum.reduceat(np.abs(prod), starts)
            row_abs[nnz > 0] = np.add.reduceat(np.abs(prod), starts)
        limit = tol * np.maximum(1.0, np.maximum(np.abs(rhs), row_max))
        # bounds the error of any order of summing a row, and of the residual
        rounding = np.finfo(float).eps * (nnz * row_abs + np.abs(rhs))
        near = np.flatnonzero(_residual(sense, row_sum, rhs) + rounding > limit)
        lhs = np.array([math.fsum(prod[A.indptr[i]:A.indptr[i + 1]].tolist())
                        for i in near.tolist()])
        resid = _residual(sense[near], lhs, rhs[near])
        bad = resid > limit[near]
        return vids, near[bad], lhs[bad], resid[bad]

    def _feasible(self, x) -> bool:
        """Whether x, if it has one value per variable, passes
        check_feasibility."""
        x = np.asarray(x, dtype=float)
        return x.shape == (self.num_variables,) and not any(
            a.size for a in self._violated(x, FEASIBILITY_TOL)[:2])

    # -- solving ------------------------------------------------------

    def solve(self, warm: LpSolution | None = None) -> LpSolution:
        """Minimize the objective. warm is an optimal solution of an
        earlier model with the same variables; its basis starts one
        simplex run, and the cold attempts decide whenever that run does
        not end at a point that passes check_feasibility. A warm solution
        with another number of variables starts no run.

        With the same rows (as between storage-pricing re-solves and
        sweep points) the run is primal simplex when warm's point is
        feasible here (only costs moved: the basis stays primal feasible
        and a few primal iterations finish), else dual simplex (bounds
        moved: primal simplex would first have to regain feasibility).
        With other rows (as between suite members) the basis is matched
        by row name; rows only this model has start basic, rows only
        warm's model had are dropped, HiGHS completes the basis, and the
        run is dual simplex with devex pricing."""
        cols, coefs, constant = self._obj
        if self.num_variables == 0:  # every row is a constant
            if self.check_feasibility(np.zeros(0)):
                return LpSolution(LpStatus.INFEASIBLE, math.nan, None,
                                  "constant constraint violated")
            return LpSolution(LpStatus.OPTIMAL, constant, np.zeros(0))

        lb, ub, sense, rhs, A = self._arrays()
        c = np.zeros(self.num_variables)
        c[cols] = coefs
        problem = dict(A_ub=A, b_lb=np.where(sense == Sense.LE, -math.inf, rhs),
                       b_ub=np.where(sense == Sense.GE, math.inf, rhs), bounds=(lb, ub))

        def attempt(options, basis=None):
            return linprog(c, **problem, options=options, basis=basis)

        names = tuple(self._row_names)

        def optimal(res):
            return LpSolution(LpStatus.OPTIMAL,
                              math.fsum((coefs * res.x[cols]).tolist()) + constant, res.x,
                              res.message, res.basis, names)

        start = self._start(warm, names)
        if start is not None:
            basis, options = start
            res = attempt(options, basis)
            if res.status is LpStatus.OPTIMAL and not self.check_feasibility(res.x):
                return optimal(res)

        res = attempt(_TIGHT_OPTIONS)
        decided = (LpStatus.OPTIMAL, LpStatus.UNBOUNDED)
        if res.status not in decided:
            if res.status is not LpStatus.INFEASIBLE:  # unknown verdict: postsolve gave up
                res = attempt(_TIGHT_NO_PRESOLVE)
            if res.status not in decided:
                res = attempt(_STOCK_OPTIONS)
        if res.status is not LpStatus.OPTIMAL:
            return LpSolution(res.status, math.nan, None, res.message)

        violations = self.check_feasibility(res.x)
        if violations:
            return LpSolution(LpStatus.SOLVER_FAILURE, math.nan, None,
                              "solver returned an infeasible point: "
                              + "; ".join(violations[:5]))
        return optimal(res)

    def _start(self, warm: LpSolution | None, names: tuple):
        """The basis and the options warm starts this model, whose row
        names are names, with (see solve), or None."""
        if warm is None or warm.basis is None or warm.values.size != self.num_variables:
            return None
        if warm.model_rows == names:
            options = _WARM_OPTIONS if self._feasible(warm.values) else _WARM_DUAL_OPTIONS
            if not isinstance(warm.basis, Basis):
                return warm.basis, options
        else:
            options = _SEED_OPTIONS
        index = {name: i for i, name in enumerate(warm.model_rows)}
        at = np.array([index.get(name, -1) for name in names], dtype=np.int64)
        found = at >= 0
        cols, rows = warm.as_seed().basis
        status = np.full(at.size, _load_highs().HighsBasisStatus.kBasic.value, dtype=np.int8)
        status[found] = rows[at[found]]
        return _highs_basis(cols, status), options

    # -- export -------------------------------------------------------

    def write_lp(self, path) -> None:
        """Write the model in LP text format: Minimize / Subject To /
        Bounds / End, variables and constraints in id order, each under
        its name. Raises ValueError unless the variable names, and the
        row names, are distinct ASCII identifiers."""
        labels = _labels(self._var_names, "variable")
        lb, ub, sense, rhs, A = self._arrays()
        cols, coefs, constant = self._obj
        objective = _format_rows(np.array([0, cols.size]), cols, coefs, labels)[0]
        if constant:
            tail = f"+ {constant!r}" if constant > 0 else f"- {-constant!r}"
            objective = f"{constant!r}" if not cols.size else f"{objective} {tail}"
        lines = ["\\ h2grid linear program", "Minimize", " obj: " + objective, "Subject To"]
        lines.extend(f" {label}: {body} {op} {b!r}" for label, body, op, b in zip(
            _labels(self._row_names, "constraint"),
            _format_rows(A.indptr, A.indices, A.data, labels),
            np.array([s.symbol for s in Sense], dtype=object)[sense].tolist(),
            rhs.tolist()))
        lines.append("Bounds")
        for label, lo, hi in zip(labels, lb.tolist(), ub.tolist()):
            if lo == -math.inf and hi == math.inf:
                lines.append(f" {label} free")
            elif hi == math.inf:
                lines.append(f" {label} >= {lo!r}")
            elif lo == -math.inf:
                lines.append(f" {label} <= {hi!r}")
            else:
                lines.append(f" {lo!r} <= {label} <= {hi!r}")
        lines.append("End")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _merge(rows, cols, coefs, n: int):
    """Sort entries by (row, column), sum the ones that share both in
    their given order, and drop exact zeros."""
    order = np.argsort(rows * max(n, 1) + cols, kind="stable")
    rows, cols, coefs = rows[order], cols[order], coefs[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    # bincount adds each slot's weights in order, starting from 0.0
    rows, cols = rows[first], cols[first]
    coefs = np.bincount(np.cumsum(first) - 1, weights=coefs, minlength=rows.size)
    keep = coefs != 0.0
    return rows[keep], cols[keep], coefs[keep]


def _residual(sense, lhs, rhs):
    """How far lhs falls on the wrong side of rhs (<= 0 when satisfied)."""
    return np.where(sense == Sense.LE, lhs - rhs,
                    np.where(sense == Sense.GE, rhs - lhs, np.abs(lhs - rhs)))


class CsrMatrix(NamedTuple):
    """A sparse matrix by rows, as plain numpy arrays: row i has the
    entries data[indptr[i]:indptr[i + 1]] in the columns
    indices[indptr[i]:indptr[i + 1]]."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return self.data.size
def _highs_basis(cols: np.ndarray, rows: np.ndarray):
    """A HiGHS basis from HighsBasisStatus values per column and per
    HiGHS row. It is marked alien, so HiGHS factors it and, where it has
    more or fewer basic variables than rows or is singular, completes it
    to a basis of this model before the run."""
    core = _load_highs()
    status = [core.HighsBasisStatus(v) for v in range(5)]
    basis = core.HighsBasis()
    basis.col_status = [status[v] for v in cols.tolist()]
    basis.row_status = [status[v] for v in rows.tolist()]
    basis.valid = basis.alien = True
    return basis


class SolverResult(NamedTuple):
    """What one solver run reports: its verdict, the point and HiGHS
    basis of an optimal run (else None), the simplex iterations and
    HiGHS's model status string."""

    status: LpStatus
    x: np.ndarray | None
    nit: int
    message: str
    basis: object = None


_HIGHS_MODULE = "scipy.optimize._highspy._core"


@functools.cache
def _load_highs():
    """scipy's bundled HiGHS binding. The extension is loaded from its
    file in the installed scipy package, which imports no scipy module,
    and is registered under its dotted name, so that a later `import
    scipy.optimize` reuses this very module. It is private API: a scipy
    without it raises ImportError naming the file and the scipy version."""
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    scipy_spec = importlib.util.find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    folder = os.path.join(roots[0] if roots else "<scipy>", "optimize", "_highspy")
    paths = [os.path.join(folder, "_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    reason = "no such file"
    if path is not None:
        spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS_MODULE] = module
            spec.loader.exec_module(module)
            return module
        except ImportError as err:
            sys.modules.pop(_HIGHS_MODULE, None)
            reason = str(err)
    from importlib import metadata  # only here: importing it takes tens of ms
    try:
        installed = "scipy " + metadata.version("scipy")
    except metadata.PackageNotFoundError:
        installed = "no scipy"
    raise ImportError(f"cannot load scipy's HiGHS binding {path or paths[0]} ({reason}); "
                      f"{installed} is installed, and h2grid needs scipy>=1.17,<1.18",
                      name=_HIGHS_MODULE, path=path or paths[0])


# The one place a solver runs. The benchmark harness times the HiGHS layer
# by wrapping this module attribute by name; it reads c (the first
# positional argument), the shape[0] and nnz of the A_ub keyword (the
# whole ranged matrix) and the result's nit.
def linprog(c, A_ub, b_lb, b_ub, bounds, options=_TIGHT_OPTIONS, basis=None) -> SolverResult:
    """Minimize c @ x subject to b_lb <= A_ub @ x <= b_ub and the column
    bounds (lower, upper), with HiGHS simplex under these options
    (presolve and the two feasibility tolerances; simplex_strategy 4
    selects primal simplex). A_ub is a CsrMatrix (or anything with the
    same indptr, indices, data and shape), loaded by rows: HiGHS row i is
    its row i. basis, from an earlier result of a model of the same
    shape, is the starting basis. Dual simplex is the default:
    deterministic, and its vertex solutions resolve degenerate ties such
    as simultaneous import and export."""
    core = _load_highs()
    model = core.HighsLp()
    m, n = A_ub.shape
    model.num_row_ = model.a_matrix_.num_row_ = m
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.a_matrix_.format_ = core.MatrixFormat.kRowwise
    model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = (
        A_ub.indptr, A_ub.indices, A_ub.data)
    model.col_cost_ = c
    model.col_lower_, model.col_upper_ = bounds
    model.row_lower_, model.row_upper_ = b_lb, b_ub

    highs_options = core.HighsOptions()
    settings = {"log_to_console": False, "output_flag": False, "solver": "simplex",
                "simplex_strategy": 1, **options}
    for key, value in settings.items():
        if key == "presolve":
            value = "on" if value else "off"
        setattr(highs_options, key, value)
    solver = core._Highs()
    solver.passOptions(highs_options)

    nit = 0
    passed = solver.passModel(model)
    del model  # HiGHS holds its own copy
    if passed == core.HighsStatus.kError:
        status = core.HighsModelStatus.kModelError
    elif basis is not None and solver.setBasis(basis) == core.HighsStatus.kError:
        status = core.HighsModelStatus.kLoadError
    else:
        solver.run()
        status = solver.getModelStatus()
        nit = solver.getInfo().simplex_iteration_count
    message = solver.modelStatusToString(status)
    verdict = _VERDICTS.get(status.name, LpStatus.SOLVER_FAILURE)
    if verdict is not LpStatus.OPTIMAL:
        return SolverResult(verdict, None, nit, message)
    return SolverResult(verdict, np.array(solver.getSolution().col_value), nit, message,
                        solver.getBasis())


# the HiGHS model statuses that are a verdict; any other is a failure
_VERDICTS = {"kOptimal": LpStatus.OPTIMAL, "kInfeasible": LpStatus.INFEASIBLE,
             "kUnbounded": LpStatus.UNBOUNDED}


# newline-separated ASCII identifiers
_PLAIN_NAMES = re.compile(r"[A-Za-z_]\w*(?:\n[A-Za-z_]\w*)*", re.ASCII)


def _labels(names: list[str], what: str) -> list[str]:
    """names as LP labels: each must be an ASCII identifier, and no two
    the same."""
    joined = "\n".join(names)
    if names and not (_PLAIN_NAMES.fullmatch(joined) and joined.count("\n") == len(names) - 1):
        bad = next(name for name in names if not (name.isascii() and name.isidentifier()))
        raise ValueError(f"{what} name {bad!r} is not an ASCII identifier, so it cannot "
                         "be an LP label")
    if len(set(names)) < len(names):
        seen: set[str] = set()
        bad = next(name for name in names if name in seen or seen.add(name))
        raise ValueError(f"{what} name {bad!r} repeats, so it cannot be an LP label")
    return names


def _format_rows(indptr: np.ndarray, cols: np.ndarray, coefs: np.ndarray,
                 labels: list[str]) -> list[str]:
    """The terms of each CSR row as LP text: "2.0 x - 1.5 y + 3.0 z", or
    "0" for a row without terms."""
    # words: sign, |coefficient|, label per entry; a row's text joins its
    # words from its first coefficient, which carries its own sign
    words = [""] * (3 * coefs.size)
    words[0::3] = np.where(coefs < 0, "-", "+").tolist()
    words[1::3] = _reprs(np.abs(coefs))
    words[2::3] = np.array(labels, dtype=object)[cols].tolist()
    starts, ends = indptr[:-1], indptr[1:]
    firsts = starts[starts < ends]
    for lo, c in zip(firsts.tolist(), coefs[firsts].tolist()):
        words[3 * lo + 1] = repr(c)
    return [" ".join(words[3 * lo + 1:3 * hi]) if hi > lo else "0"
            for lo, hi in zip(starts.tolist(), ends.tolist())]


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each value, formatting each distinct value once."""
    distinct, index = np.unique(values, return_inverse=True)
    return np.array(list(map(repr, distinct.tolist())), dtype=object)[index].tolist()
