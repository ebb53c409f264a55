"""Minimal LP layer: build a model, solve it, verify the result.

Only this module talks to a solver. A model keeps its rows as numpy
blocks: callers append variables and constraint rows in bulk from index
arrays (`add_variables`, `add_rows`). LinearExpr is the small-expression
API for hand-written rows and objectives; `add_constraint` and
`set_objective` merge it into the same arrays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

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
# dual simplex: deterministic and returns vertex solutions (so degenerate
# ties like simultaneous import/export resolve to a basic solution)
_SOLVER_METHOD = "highs-ds"


class Sense(Enum):
    LE = "<="
    EQ = "="
    GE = ">="


# a row's sense is stored as its index in _SENSES
_SENSES = (Sense.LE, Sense.EQ, Sense.GE)
_LE, _EQ, _GE = range(3)
_SENSE_CODES = {Sense.LE: _LE, "<=": _LE, "=<": _LE, Sense.EQ: _EQ, "=": _EQ, "==": _EQ,
                Sense.GE: _GE, ">=": _GE, "=>": _GE}


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    SOLVER_FAILURE = "solver_failure"


class LinearExpr:
    """Immutable linear expression sum(coeff * var) + constant.

    Duplicate variables merge additively; exact-zero coefficients are
    dropped (coefficient() reports them as 0.0 either way).
    """

    __slots__ = ("coeffs", "constant")

    def __init__(self, terms: Mapping[int, float] | Iterable[tuple[int, float]] = (),
                 constant: float = 0.0):
        merged: dict[int, float] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for vid, coeff in items:
            c = float(coeff)
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient {coeff} on variable {vid}")
            merged[int(vid)] = merged.get(int(vid), 0.0) + c
        constant = float(constant)
        if not math.isfinite(constant):
            raise ValueError(f"non-finite constant {constant}")
        object.__setattr__(self, "coeffs", {v: c for v, c in merged.items() if c != 0.0})
        object.__setattr__(self, "constant", constant)

    def __setattr__(self, name, value):
        raise AttributeError("LinearExpr is immutable")

    def coefficient(self, vid: VarId) -> float:
        return self.coeffs.get(vid, 0.0)

    def __add__(self, other: "LinearExpr | float") -> "LinearExpr":
        if isinstance(other, LinearExpr):
            merged = dict(self.coeffs)
            for vid, c in other.coeffs.items():
                merged[vid] = merged.get(vid, 0.0) + c
            return LinearExpr(merged, self.constant + other.constant)
        return LinearExpr(self.coeffs, self.constant + float(other))

    __radd__ = __add__

    def __sub__(self, other: "LinearExpr | float") -> "LinearExpr":
        return self + (-other if isinstance(other, LinearExpr) else -float(other))

    def __neg__(self) -> "LinearExpr":
        return self * -1.0

    def __mul__(self, k: float) -> "LinearExpr":
        k = float(k)
        if not math.isfinite(k):
            raise ValueError(f"non-finite scale factor {k}")
        return LinearExpr({v: c * k for v, c in self.coeffs.items()}, self.constant * k)

    __rmul__ = __mul__

    def evaluate(self, x: np.ndarray) -> float:
        return math.fsum(c * float(x[v]) for v, c in self.coeffs.items()) + self.constant

    def __repr__(self):
        body = " + ".join(f"{c}*x{v}" for v, c in sorted(self.coeffs.items()))
        return f"LinearExpr({body or '0'} + {self.constant})"


def term(vid: VarId, coeff: float = 1.0) -> LinearExpr:
    return LinearExpr([(vid, coeff)])


@dataclass(frozen=True)
class Constraint:
    expr: LinearExpr
    sense: Sense
    rhs: float
    name: str = ""


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    objective_value: float
    values: np.ndarray | None
    message: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    def value(self, vid: VarId) -> float:
        return float(self.series([vid])[0])

    def series(self, vids) -> np.ndarray:
        if self.values is None:
            raise ValueError(f"no solution values (status {self.status.value})")
        return self.values[np.asarray(vids, dtype=int)]


class LpModel:
    """LP under construction: bounded variables, removable constraints,
    minimize objective. Variables and rows are numbered in insertion
    order; a constraint's id is its row number, and a removed row is
    masked, so ids never shift."""

    def __init__(self):
        self._var_names: list[str] = []
        self._row_names: list[str] = []
        self._vars = [(np.zeros(0), np.zeros(0))]        # (lower, upper) per block
        self._rows = [(np.zeros(0, np.int8), np.zeros(0), np.zeros(0, np.int64),
                       np.zeros(0, np.int64), np.zeros(0))]  # (sense, rhs, row, col, coef)
        self._removed = [np.zeros(0, np.int64)]
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
            raise ValueError(f"expression references unregistered variable {cols[i]}")
        for i in np.flatnonzero(~np.isfinite(coefs))[:1]:
            raise ValueError(f"non-finite coefficient {coefs[i]} on variable {cols[i]}")
        return _merge(rows, cols, coefs, self.num_variables)

    def add_rows(self, names: Sequence[str], sense, rhs, rows, cols, coefs) -> np.ndarray:
        """Append len(names) constraints and return their ids.

        Entry k puts coefs[k] on variable cols[k] in row rows[k] of the
        block (0-based). sense is a Sense (or its symbol) for the whole
        block or one per row; rhs is one value or one per row."""
        m, first = len(names), len(self._row_names)
        try:
            codes = (np.full(m, _SENSE_CODES[sense], dtype=np.int8)
                     if isinstance(sense, (Sense, str)) else
                     np.fromiter(map(_SENSE_CODES.__getitem__, sense), np.int8, count=m))
        except KeyError as err:
            raise ValueError(f"unknown constraint sense {err.args[0]!r}") from None
        rhs = np.array(np.broadcast_to(np.asarray(rhs, dtype=float), (m,)))
        for i in np.flatnonzero(~np.isfinite(rhs))[:1]:
            raise ValueError(f"non-finite rhs {rhs[i]} on constraint {names[i]!r}")
        rows, cols, coefs = self._entries(rows, cols, coefs, m)
        self._rows.append((codes, rhs, rows + first, cols, coefs))
        self._row_names.extend(names)
        self._cache = None
        return np.arange(first, first + m)

    def add_constraint(self, expr: LinearExpr, sense: Sense | str,
                       rhs: float = 0.0, name: str = "") -> int:
        """One row from an expression; its constant moves to the rhs."""
        return int(self.add_rows([name], sense, float(rhs) - expr.constant,
                                 np.zeros(len(expr.coeffs), np.int64),
                                 list(expr.coeffs), list(expr.coeffs.values()))[0])

    def remove_constraint(self, cids) -> None:
        """Remove one constraint id, or an array of them."""
        ids = np.atleast_1d(np.asarray(cids, dtype=np.int64))
        alive = self._arrays()[4]
        missing = ids[(ids < 0) | (ids >= alive.size)]
        for cid in (missing if missing.size else ids[~alive[ids]])[:1]:
            raise ValueError(f"no constraint with id {cid}")
        self._removed.append(ids)
        alive[ids] = False

    def set_objective(self, expr: LinearExpr, cols=(), coefs=()) -> None:
        """Minimize expr plus sum(coefs[k] * x[cols[k]])."""
        cols = np.concatenate([list(expr.coeffs), cols])
        _, cols, coefs = self._entries(np.zeros(cols.size), cols, np.concatenate(
            [list(expr.coeffs.values()), coefs]), 1)
        self._obj = (cols, coefs, expr.constant)

    # -- inspection ---------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._var_names)

    @property
    def num_constraints(self) -> int:
        return int(np.count_nonzero(self._arrays()[4]))

    @property
    def objective(self) -> LinearExpr:
        cols, coefs, constant = self._obj
        return LinearExpr(dict(zip(cols.tolist(), coefs.tolist())), constant)

    def bounds(self, vid: VarId) -> tuple[float, float]:
        lb, ub = self._arrays()[:2]
        return (float(lb[vid]), float(ub[vid]))

    def variable_name(self, vid: VarId) -> str:
        return self._var_names[vid]

    def _arrays(self) -> tuple:
        """The blocks so far, concatenated: lb, ub, sense (index into
        _SENSES), rhs, alive (False for removed rows) and A, the CSR
        matrix of every row added, removed ones included."""
        if self._cache is None:
            lb, ub = (np.concatenate(part) for part in zip(*self._vars))
            sense, rhs, rows, cols, coefs = (np.concatenate(part) for part in zip(*self._rows))
            m = len(self._row_names)
            alive = np.ones(m, dtype=bool)
            alive[np.concatenate(self._removed)] = False
            indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))
            A = sp.csr_matrix((coefs, cols, indptr), shape=(m, self.num_variables))
            self._cache = (lb, ub, sense, rhs, alive, A)
        return self._cache

    def constraints(self) -> dict[int, Constraint]:
        lb, ub, sense, rhs, alive, A = self._arrays()
        out = {}
        for i in np.flatnonzero(alive).tolist():
            lo, hi = A.indptr[i], A.indptr[i + 1]
            expr = LinearExpr(dict(zip(A.indices[lo:hi].tolist(), A.data[lo:hi].tolist())))
            out[i] = Constraint(expr, _SENSES[sense[i]], float(rhs[i]), self._row_names[i])
        return out

    # -- feasibility --------------------------------------------------

    def check_feasibility(self, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> list[str]:
        """Violations of constraints and bounds at x, scaled per row by
        max(1, |rhs|, max |a_ij x_j|). Empty list means feasible.

        A row within the rounding error of A @ x of its threshold is
        decided again with an exactly rounded sum."""
        x = np.asarray(x, dtype=float)
        lb, ub, sense, rhs, alive, A = self._arrays()
        scale = np.maximum(1.0, np.maximum(np.where(np.isfinite(lb), np.abs(lb), 1.0),
                                           np.where(np.isfinite(ub), np.abs(ub), 1.0)))
        violations = [
            f"variable {vid} ({self._var_names[vid]!r}) value {float(x[vid])} outside "
            f"[{float(lb[vid])}, {float(ub[vid])}]"
            for vid in np.flatnonzero((x < lb - tol * scale) | (x > ub + tol * scale)).tolist()]

        prod = A.data * x[A.indices]
        nnz = np.diff(A.indptr)
        row_max, row_abs = np.zeros(nnz.size), np.zeros(nnz.size)
        if prod.size:
            starts = A.indptr[:-1][nnz > 0]
            row_max[nnz > 0] = np.maximum.reduceat(np.abs(prod), starts)
            row_abs[nnz > 0] = np.add.reduceat(np.abs(prod), starts)
        limit = tol * np.maximum(1.0, np.maximum(np.abs(rhs), row_max))
        rounding = np.finfo(float).eps * (nnz * row_abs + np.abs(rhs))
        near = np.flatnonzero(alive & (_residual(sense, A @ x, rhs) + rounding > limit))
        lhs = np.array([math.fsum(prod[A.indptr[i]:A.indptr[i + 1]].tolist())
                        for i in near.tolist()])
        resid = _residual(sense[near], lhs, rhs[near])
        bad = resid > limit[near]
        violations += [
            f"constraint {cid} ({self._row_names[cid]!r}) violated by {r:.3e} "
            f"(lhs {lhs_i}, {_SENSES[sense[cid]].value} rhs {float(rhs[cid])})"
            for cid, lhs_i, r in zip(near[bad].tolist(), lhs[bad].tolist(),
                                     resid[bad].tolist())]
        return violations

    # -- solving ------------------------------------------------------

    def solve(self) -> LpSolution:
        cols, coefs, constant = self._obj
        if self.num_variables == 0:  # every row is a constant
            if self.check_feasibility(np.zeros(0)):
                return LpSolution(LpStatus.INFEASIBLE, math.nan, None,
                                  "constant constraint violated")
            return LpSolution(LpStatus.OPTIMAL, constant, np.zeros(0))

        lb, ub, sense, rhs, alive, A = self._arrays()
        c = np.zeros(self.num_variables)
        c[cols] = coefs
        eq = np.flatnonzero(alive & (sense == _EQ))
        ineq = np.flatnonzero(alive & (sense != _EQ))
        # GE rows enter A_ub negated
        sign = np.where(sense[ineq] == _GE, -1.0, 1.0)
        A_ub = A_eq = b_ub = b_eq = None
        if ineq.size:
            A_ub, b_ub = A[ineq], sign * rhs[ineq]
            A_ub.data *= np.repeat(sign, np.diff(A_ub.indptr))
        if eq.size:
            A_eq, b_eq = A[eq], rhs[eq]
        bounds = np.column_stack((lb, ub))

        def attempt(options):
            return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                           bounds=bounds, method=_SOLVER_METHOD, options=options)

        res = attempt(_TIGHT_OPTIONS)
        if res.status not in (0, 3):
            if res.status != 2:  # unknown verdict: postsolve gave up
                res = attempt(_TIGHT_NO_PRESOLVE)
            if res.status not in (0, 3):
                res = attempt(_STOCK_OPTIONS)

        if res.status == 2:
            return LpSolution(LpStatus.INFEASIBLE, math.nan, None, res.message)
        if res.status == 3:
            return LpSolution(LpStatus.UNBOUNDED, math.nan, None, res.message)
        if res.status != 0 or res.x is None:
            return LpSolution(LpStatus.SOLVER_FAILURE, math.nan, None, res.message)

        x = np.asarray(res.x, dtype=float)
        violations = self.check_feasibility(x)
        if violations:
            return LpSolution(LpStatus.SOLVER_FAILURE, math.nan, None,
                              "solver returned an infeasible point: "
                              + "; ".join(violations[:5]))
        return LpSolution(LpStatus.OPTIMAL,
                          math.fsum((coefs * x[cols]).tolist()) + constant, x, res.message)

    # -- export -------------------------------------------------------

    def write_lp(self, path) -> None:
        """Write the model in LP text format: Minimize / Subject To /
        Bounds / End, variables and constraints in id order."""
        labels = _unique_labels(self._var_names, "x", range(self.num_variables))
        lb, ub, sense, rhs, alive, A = self._arrays()
        cols, coefs, constant = self._obj
        lines = ["\\ h2grid linear program", "Minimize",
                 " obj: " + _format_terms(cols.tolist(), coefs.tolist(), labels, constant),
                 "Subject To"]
        cids = np.flatnonzero(alive).tolist()
        clabels = _unique_labels([self._row_names[i] for i in cids], "c", cids)
        indptr, cols, coefs = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
        for cid, label in zip(cids, clabels):
            body = _format_terms(cols[indptr[cid]:indptr[cid + 1]],
                                 coefs[indptr[cid]:indptr[cid + 1]], labels)
            lines.append(f" {label}: {body} {_SENSES[sense[cid]].value} {float(rhs[cid])!r}")
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
    return np.where(sense == _LE, lhs - rhs,
                    np.where(sense == _GE, rhs - lhs, np.abs(lhs - rhs)))


_UNSAFE_LABEL_CHARS = re.compile(r"[^A-Za-z0-9_]")


def _sanitize(name: str) -> str:
    out = _UNSAFE_LABEL_CHARS.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _unique_labels(names: list[str], prefix: str, ids: Iterable[int]) -> list[str]:
    used: set[str] = set()
    labels = []
    for i, name in zip(ids, names):
        label = _sanitize(name) if name else f"{prefix}{i}"
        if label in used:
            label = f"{label}_{i}"
        used.add(label)
        labels.append(label)
    return labels


def _format_terms(cols: list[int], coefs: list[float], labels: list[str],
                  constant: float = 0.0) -> str:
    parts = [f"+ {c!r} {labels[j]}" if c >= 0 else f"- {-c!r} {labels[j]}"
             for j, c in zip(cols, coefs)]
    if parts:
        parts[0] = f"{coefs[0]!r} {labels[cols[0]]}"
    if constant:
        parts.append((f"+ {constant!r}" if constant > 0 else f"- {-constant!r}")
                     if parts else f"{constant!r}")
    return " ".join(parts) if parts else "0"
