"""Minimal LP layer: build a model, solve it, verify the result.

Only this module talks to a solver. A model keeps its rows as numpy
blocks, and index arrays are the one way to fill it: `add_variables`
appends variables, `add_rows` appends constraint rows, `set_objective`
sets the objective; entries that share a row and a variable are summed
in one place, `_merge`. A row's sense is a `Sense`, stored as its
integer value. `write_lp` writes each name as its label, so the names
of an exported model are distinct ASCII identifiers.

Every HiGHS run goes through `linprog`, the solver backend: scipy's
bundled HiGHS binding, handed the model's own CSR matrix as a rowwise
HiGHS matrix, so HiGHS row i is model row i, in one array call that
HiGHS copies (see linprog). Each row is ranged by its sense: LE
[-inf, b], GE [b, inf], EQ [b, b]. A run returns an `LpSolution`, as
`LpModel.solve` does: HiGHS's model status is the verdict (optimal,
infeasible, unbounded, anything else a solver failure), its status
string the message and its simplex iterations `nit`. Every run keeps
HiGHS's stock feasibility tolerances (1e-7), ten times tighter than the
1e-6 of `check_feasibility`, the one test every point must pass.

`LpModel.solve` makes at most two runs. With `warm=`, the optimal
solution of an earlier solve of a model with the same variables, it
first makes one warm run from that solution's basis. A model keeps the
HiGHS solver of its last optimal run (never an `LpSolution`) until rows
or variables are added, its next solve, or `end_session`; a warm run
from that run's own solution is made in place: `rewrite` changes
coefficients the model already holds, and that solver takes the changed
costs and coefficients and runs on from its own basis and factors,
without presolve and without reloading the model (the storage-pricing
loop's re-solves). Only when there is no warm run, or it does not end
optimal, does one cold run with presolve follow in a new solver; so
infeasible and unbounded verdicts come only from cold runs.
The optimal point of either run must pass `check_feasibility`, or the
result is a solver failure that names the violated rows. Any other warm
run loads the model into a new solver. With the same rows, HiGHS's
basis is passed on as it is (sweep points). With other rows (suite
members, whose models differ in their matching or cap rows), HiGHS's
row statuses are matched by row name (`LpSolution.model_rows`): a row
both models have keeps its status, a row only this model has starts
basic, its slack taking up the new constraint, and a row only the
earlier model had is dropped. HiGHS factors that basis as an alien one
and completes it where dropped binding rows left too many basic
variables. HiGHS picks the simplex
variant of every run from the basis it starts at: primal simplex when
that basis is primal feasible (as when only costs moved), else dual (as
when bounds moved, between sweep points, or when a storage-pricing
re-solve moves the storage coefficient of a binding `capex_cap` row).
Every dual run, cold or warm, is priced with devex (see linprog). The
binding is loaded from its extension file inside the installed scipy
package, and the matrices are plain numpy arrays, so no scipy module is
imported; a scipy without that file raises a named ImportError, as
there is no other solver path.
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

FEASIBILITY_TOL = 1e-6


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
    values: np.ndarray | None   # None unless optimal
    message: str = ""
    nit: int = 0                # simplex iterations of the run that decided it
    # the HighsBasis of the optimal run, HiGHS's own copy, which outlives
    # its solver; None when no solver run ended optimal (every result that
    # is not optimal)
    basis: object = field(default=None, repr=False, compare=False)
    # the solved model's row names, in LpModel order: what keys the basis
    # by row name
    model_rows: tuple = field(default=(), repr=False, compare=False)

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


class _Session(NamedTuple):
    """The live HiGHS solver of a model's last optimal run, the solution
    LpModel.solve returned from it, and the costs it holds."""

    solver: object
    solution: LpSolution
    costs: np.ndarray


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
        # the _Session of the last optimal run, and the positions in A.data
        # of the coefficients rewritten since (see solve)
        self._session: _Session | None = None
        self._rewritten: list[np.ndarray] = []

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
        self._cache = self._session = None
        return np.arange(first, first + k)

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
        self._cache = self._session = None
        return np.arange(first, first + m)

    def set_objective(self, cols, coefs, constant: float = 0.0) -> None:
        """Minimize sum(coefs[k] * x[cols[k]]) + constant."""
        if not math.isfinite(constant):
            raise ValueError(f"non-finite objective constant {constant}")
        _, cols, coefs = self._entries(np.zeros(np.size(cols)), cols, coefs, 1)
        self._obj = (cols, coefs, float(constant))

    def rewrite(self, rows, cols, coefs) -> None:
        """Give entries the model holds new coefficients: coefs[k] on
        variable cols[k] in constraint rows[k]. Raises ValueError for an
        entry the model does not hold, or a coefficient that is zero or
        not finite, as either would change which entries it holds."""
        rows, cols, coefs = (np.asarray(a, dtype=t).reshape(-1) for a, t in
                             ((rows, np.int64), (cols, np.int64), (coefs, float)))
        if not rows.size == cols.size == coefs.size:
            raise ValueError("need one row, variable and coefficient per entry")
        _, _, _, _, A = self._arrays()
        m, n = A.shape
        valid = (rows >= 0) & (rows < m) & (cols >= 0) & (cols < n)
        # the held entries are sorted by (row, column) (see _merge), so each
        # one is found by bisection on row * n + column, among the entries
        # of the rows from the first to the last one named
        first, last = (rows[valid].min(), rows[valid].max()) if valid.any() else (0, -1)
        lo, hi = A.indptr[first], A.indptr[last + 1]
        held = self._rows[0][2][lo:hi] * n + A.indices[lo:hi]
        keys = np.where(valid, rows * n + cols, -1)
        at = np.searchsorted(held, keys)
        found = at < held.size
        found[found] = held[at[found]] == keys[found]
        for i in np.flatnonzero(~found)[:1]:
            raise ValueError(f"constraint {rows[i]} holds no entry on variable {cols[i]}")
        for i in np.flatnonzero((coefs == 0.0) | ~np.isfinite(coefs))[:1]:
            raise ValueError(f"coefficient {coefs[i]} on variable {cols[i]} in constraint "
                             f"{rows[i]} would change the entries the model holds")
        at += lo
        self._rewritten.append(at[A.data[at] != coefs])
        A.data[at] = coefs

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

    def check_feasibility(self, x: np.ndarray) -> list[str]:
        """Violations of constraints and bounds at x, scaled per row by
        max(1, |rhs|, max |a_ij x_j|). Empty list means feasible.

        A row within the rounding error of its floating-point row sum of
        its threshold is decided again with an exactly rounded sum."""
        x = np.asarray(x, dtype=float)
        lb, ub, sense, rhs, _ = self._arrays()
        vids, cids, lhs, resid = self._violated(x, FEASIBILITY_TOL)
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

    # -- solving ------------------------------------------------------

    def solve(self, warm: LpSolution | None = None) -> LpSolution:
        """Minimize the objective, in at most two HiGHS runs. warm is an
        optimal solution of an earlier model with the same variables; it
        starts one simplex run, and one cold run with presolve follows
        only when that run does not end optimal. A warm solution with
        another number of variables starts no run. The optimal point of
        whichever run ended optimal must pass check_feasibility, else the
        result is a SOLVER_FAILURE naming the violated rows. The result
        carries the nit of the run that decided it.

        The model keeps the HiGHS solver of its last optimal run until
        rows or variables are added, the next solve, or end_session.
        When warm is the solution that run gave, the run is in place:
        that solver takes the costs set_objective changed and the
        coefficients rewrite changed since, and runs on from its own
        basis without presolve (as storage-pricing re-solves do). Any
        other warm solution's basis starts a new solver: with the same
        rows (as between sweep points) it is passed on as it is; with
        other rows (as between suite members) it is matched by row name,
        rows only this model has start basic, rows only warm's model had
        are dropped, and HiGHS completes the basis. HiGHS runs primal
        simplex from a primal feasible basis, else dual (see linprog)."""
        cols, coefs, constant = self._obj
        lb, ub, sense, rhs, A = self._arrays()
        c = np.zeros(self.num_variables)
        c[cols] = coefs
        problem = dict(A_ub=A, b_lb=np.where(sense == Sense.LE, -math.inf, rhs),
                       b_ub=np.where(sense == Sense.GE, math.inf, rhs), bounds=(lb, ub))
        names = tuple(self._row_names)
        session, self._session = self._session, None
        rewritten, self._rewritten = self._rewritten, []
        highs, res = _load_highs(), None
        if session is not None and session.solution is warm:
            solver = session.solver
            # an entry rewritten twice is passed twice, which is harmless
            # (np.unique would import numpy.ma, about 1 MiB)
            entries = np.concatenate([np.zeros(0, np.int64), *rewritten])
            res = linprog(c, **problem, solver=solver,
                          changed=(np.flatnonzero(c != session.costs), entries))
        elif (basis := self._start(warm, names)) is not None:
            solver = highs._Highs()
            res = linprog(c, **problem, basis=basis, solver=solver)
        if res is None or not res.is_optimal:
            solver = highs._Highs()
            res = linprog(c, **problem, solver=solver)
        if not res.is_optimal:
            return res

        violations = self.check_feasibility(res.values)
        if violations:
            return LpSolution(LpStatus.SOLVER_FAILURE, math.nan, None,
                              "solver returned an infeasible point: "
                              + "; ".join(violations[:5]), res.nit)
        solution = replace(res, model_rows=names, objective_value=math.fsum(
            (coefs * res.values[cols]).tolist()) + constant)
        self._session = _Session(solver, solution, c)
        return solution

    def end_session(self) -> None:
        """Release the HiGHS solver kept from the last optimal run, and
        with it its copy of the model; the next solve starts a new one."""
        self._session = None

    def _start(self, warm: LpSolution | None, names: tuple):
        """The basis warm starts this model, whose row names are names,
        from (see solve), or None."""
        if warm is None or warm.basis is None or warm.values.size != self.num_variables:
            return None
        # the same rows: matching by name would give this very basis, after
        # reading every row status into a dict (about 0.1 s a start at T=8760)
        if warm.model_rows == names:
            return warm.basis
        # each access to a status list converts all of it, so read it once
        rows = dict(zip(warm.model_rows, warm.basis.row_status))
        basic = _load_highs().HighsBasisStatus.kBasic
        return _highs_basis(warm.basis.col_status, [rows.get(name, basic) for name in names])

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


def _highs_basis(cols: list, rows: list):
    """A HiGHS basis from HighsBasisStatus lists, one status per column and
    one per HiGHS row. It is marked alien, so HiGHS factors it and, where it
    has more or fewer basic variables than rows or is singular, completes it
    to a basis of this model before the run."""
    basis = _load_highs().HighsBasis()
    basis.col_status, basis.row_status = cols, rows
    basis.valid = basis.alien = True
    return basis


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
# whole ranged matrix) and the nit of the returned LpSolution.
def linprog(c, A_ub, b_lb, b_ub, bounds, basis=None, solver=None, changed=None) -> LpSolution:
    """Minimize c @ x subject to b_lb <= A_ub @ x <= b_ub and the column
    bounds (lower, upper), with HiGHS simplex, in solver (a new HiGHS
    solver when None). basis, from an earlier result of a model of the
    same shape, starts a warm run without presolve, which would discard
    it; a run without one is cold, with presolve. changed, a pair of
    arrays (the columns whose costs, and the positions in A_ub.data whose
    coefficients, differ from what solver holds), makes the run in place:
    solver holds this model from its last optimal run, takes those costs
    (changeColsCost) and coefficients (changeCoeff) from c and A_ub, and
    runs on from its own basis, without presolve. HiGHS picks the variant
    from the basis it starts at (simplex_strategy 0): primal simplex when
    that basis is primal feasible, else dual. Every dual run is priced
    with devex (simplex_dual_edge_weight_strategy 1), not HiGHS's default
    dual steepest edge, which first computes exact edge weights for any
    basis but the slack basis: at T=8760 the clean-up after postsolve on
    the original LP took 43 of a 54.5 s cold run with it (53 iterations)
    and 0.20 s with devex, and the seeded warm runs of two T=840 suites
    0.63-0.84 s in all against 0.25 s. Every other option is HiGHS's
    own, its feasibility tolerances (1e-7) included.

    A_ub is a CsrMatrix (or anything with the same indptr, indices, data
    and shape), loaded by rows: HiGHS row i is its row i. One array call
    loads the model, and HiGHS copies the arrays (indptr and indices as
    int32, HiGHS's HighsInt). A load that warns, as when HiGHS drops
    entries of |a| <= 1e-9, is not an error; a load error (an index out
    of range, a repeated entry, an array whose length does not match the
    shape) is a SOLVER_FAILURE with the message "Model error". The
    LpSolution has HiGHS's objective and, when optimal, its basis, but no
    row names: LpModel.solve adds them and its own exactly summed objective."""
    core = _load_highs()
    m, n = A_ub.shape
    if solver is None:
        solver = core._Highs()
    nit = 0
    if changed is not None:
        cost_cols, entries = changed
        statuses = [solver.changeColsCost(cost_cols.size, cost_cols.astype(np.int32),
                                          c[cost_cols])]
        statuses.extend(solver.changeCoeff(row, col, value) for row, col, value in zip(
            (np.searchsorted(A_ub.indptr, entries, side="right") - 1).tolist(),
            A_ub.indices[entries].tolist(), A_ub.data[entries].tolist()))
        solver.setOptionValue("presolve", "off")
        passed = min(statuses, key=int)   # kError is the lowest status
    else:
        highs_options = core.HighsOptions()
        settings = {"log_to_console": False, "output_flag": False, "solver": "simplex",
                    "presolve": "on" if basis is None else "off", "simplex_strategy": 0,
                    "simplex_dual_edge_weight_strategy": 1}
        for key, value in settings.items():
            setattr(highs_options, key, value)
        solver.passOptions(highs_options)
        lower, upper = bounds
        arrays = (c, lower, upper, b_lb, b_ub, A_ub.indptr, A_ub.indices, A_ub.data)
        # the array call reads n, m or nnz values from each array, past the
        # end of a shorter one
        if [np.size(a) for a in arrays] != [n, n, n, m, m, m + 1, A_ub.nnz, A_ub.nnz]:
            passed = core.HighsStatus.kError
        else:
            # zero integrality marks every column continuous (an empty array
            # is an error, and loads an empty model)
            passed = solver.passModel(
                n, m, A_ub.nnz, int(core.MatrixFormat.kRowwise), int(core.ObjSense.kMinimize),
                0.0, c, lower, upper, b_lb, b_ub, A_ub.indptr.astype(np.int32),
                A_ub.indices.astype(np.int32), A_ub.data, np.zeros(n, np.int32))
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
        return LpSolution(verdict, math.nan, None, message, nit)
    return LpSolution(verdict, solver.getInfo().objective_function_value,
                      np.array(solver.getSolution().col_value), message, nit, solver.getBasis())


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
