"""Hourly plant physics as LP variables and constraints.

Topology: grid imports and scaled renewable generation feed an
electricity bus that supplies the electrolyser and two compressors (one
on the pipeline path, one on the storage path); electrolyser output
splits between those paths; a constant hydrogen load draws from the
pipeline stream plus storage withdrawals. Exports and curtailment close
the bus balance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .lp import LpModel, LpSolution, Sense
from .types import CapacityBound, CapacitySpec, HourlySeries, Mode, PlantParameters


# the capacity fields of PlantVars and Dispatch, in types.CAPACITIES order
CAPACITY_FIELDS = ("c_el_kw", "c_wind_kw", "c_pv_kw", "c_store_kg")


@dataclass
class PlantVars:
    """Variable handles (and generation coefficients) for one built model.
    A handle has the name of the Dispatch field its solved values fill."""

    horizon: int
    # per-hour variable ids, arrays of length horizon
    e_el_kw: np.ndarray
    e_comp1_kw: np.ndarray
    e_comp2_kw: np.ndarray
    import_kw: np.ndarray
    export_kw: np.ndarray
    curtail_kw: np.ndarray
    h_el_kg: np.ndarray
    h_comp1_kg: np.ndarray
    h_comp2_kg: np.ndarray
    h_from_store_kg: np.ndarray
    soc_kg: np.ndarray
    # capacity / state variable ids
    c_wind_kw: int
    c_pv_kw: int
    c_el_kw: int
    c_store_kg: int
    soc0_kg: int
    # per-kW-installed generation coefficients: gen_wind_kw[t] = a_wind[t] * c_wind_kw
    a_wind: np.ndarray
    a_pv: np.ndarray

    @property
    def capacities(self) -> list[int]:
        """The capacity variable ids, in the order of types.CAPACITIES."""
        return [getattr(self, name) for name in CAPACITY_FIELDS]


@dataclass(frozen=True)
class Dispatch:
    """Solved hourly flows plus the capacities they were solved under."""

    gen_wind_kw: np.ndarray
    gen_pv_kw: np.ndarray
    e_el_kw: np.ndarray
    e_comp1_kw: np.ndarray
    e_comp2_kw: np.ndarray
    import_kw: np.ndarray
    export_kw: np.ndarray
    curtail_kw: np.ndarray
    h_el_kg: np.ndarray
    h_comp1_kg: np.ndarray
    h_comp2_kg: np.ndarray
    h_from_store_kg: np.ndarray
    soc_kg: np.ndarray
    c_wind_kw: float
    c_pv_kw: float
    c_el_kw: float
    c_store_kg: float
    soc0_kg: float

    @property
    def horizon(self) -> int:
        return int(self.import_kw.size)

    @property
    def built(self) -> np.ndarray:
        """The solved capacities, in the order of types.CAPACITIES."""
        return np.array([getattr(self, name) for name in CAPACITY_FIELDS])

    @property
    def re_capacity_factor(self) -> float | None:
        """Combined renewable capacity factor: produced energy over the
        horizon divided by installed capacity times hours; None when no
        renewable capacity is installed."""
        if self.c_wind_kw + self.c_pv_kw <= 0:
            return None
        return float((self.gen_wind_kw.sum() + self.gen_pv_kw.sum())
                     / ((self.c_wind_kw + self.c_pv_kw) * self.gen_wind_kw.size))


@functools.cache
def hour_suffixes(horizon: int) -> tuple[str, ...]:
    """"_0" ... f"_{horizon - 1}": an hourly name is its family's name
    plus one of these."""
    return tuple(f"_{t}" for t in range(horizon))


def add_hourly_rows(model: LpModel, horizon: int, families) -> np.ndarray:
    """Append row k*t + f = family f at hour t, named f"{name}_{t}", for
    k families (name, sense, rhs, terms). A term is (variable ids,
    coefficients), each one value or one per hour. Returns the row ids,
    shape (horizon, k)."""
    k = len(families)
    rows, cols, coefs = [], [], []
    for f, (_, _, _, terms) in enumerate(families):
        for vids, coef in terms:
            rows.append(k * np.arange(horizon) + f)
            cols.append(np.broadcast_to(vids, (horizon,)))
            coefs.append(np.broadcast_to(np.asarray(coef, dtype=float), (horizon,)))
    family_names = [name for name, *_ in families]
    names = [name + suffix for suffix in hour_suffixes(horizon) for name in family_names]
    ids = model.add_rows(names, np.tile([sense for _, sense, _, _ in families], horizon),
                         np.tile([rhs for _, _, rhs, _ in families], horizon),
                         np.concatenate(rows), np.concatenate(cols), np.concatenate(coefs))
    return ids.reshape(horizon, k)


def build_plant(params: PlantParameters, ref_wind: HourlySeries,
                ref_pv: HourlySeries, caps: CapacitySpec, mode: Mode, *,
                mu_comp2: float, two_bus: bool = False) -> tuple[LpModel, PlantVars]:
    """Build the LP skeleton: flow variables, bus balance, conversion
    chains, storage recursion with cyclic closure, capacity limits.

    The horizon is the reference profiles' length; they come from one
    Dataset, which holds them to one length, and ingest holds their
    values within the reference capacities.

    mu_comp2 is the storage-compressor coefficient for the currently
    selected storage technology; it must be a scalar for the model to
    stay linear.

    two_bus leaves the electricity bus out: the model then has no
    balance rows, and policy.wire_two_grid must append the farm-side and
    plant-side balances before any other rows are added.
    """
    model = LpModel()
    T = len(ref_wind)

    def var_block(name: str, upper=math.inf) -> np.ndarray:
        return model.add_variables([name + suffix for suffix in hour_suffixes(T)], 0.0, upper)

    e_el_kw = var_block("e_el")
    e_comp1_kw = var_block("e_comp1")
    e_comp2_kw = var_block("e_comp2")
    import_ub = 0.0 if mode is not Mode.GRID else math.inf
    export_ub = 0.0 if mode is Mode.OFF_GRID else math.inf
    import_kw = var_block("import", upper=import_ub)
    export_kw = var_block("export", upper=export_ub)
    curtail_kw = var_block("curtail")
    h_el_kg = var_block("h_el")
    h_comp1_kg = var_block("h_comp1")
    h_comp2_kg = var_block("h_comp2")
    h_from_store_kg = var_block("h_store_out")
    soc_kg = var_block("soc")

    bounds = (caps.wind_kw, caps.pv_kw, caps.electrolyser_kw, caps.storage_kg, CapacityBound())
    c_wind_kw, c_pv_kw, c_el_kw, c_store_kg, soc0_kg = model.add_variables(
        ["c_wind", "c_pv", "c_el", "c_store", "soc0"], [b.lower for b in bounds],
        [b.upper for b in bounds]).tolist()

    a_wind = ref_wind.values / params.c_ref_wind_kw
    a_pv = ref_pv.values / params.c_ref_pv_kw
    h_per_e = params.eta_el / params.hhv    # kg H2 per kWh into the electrolyser
    gen = [(c_wind_kw, -a_wind), (c_pv_kw, -a_pv)]
    soc_prev = np.concatenate(([soc0_kg], soc_kg[:-1]))

    # electricity bus: consumption + export + curtailment = generation + import
    bus = [] if two_bus else [
        ("balance", Sense.EQ, 0.0, [(e_el_kw, 1.0), (e_comp1_kw, 1.0), (e_comp2_kw, 1.0),
                                    (export_kw, 1.0), (curtail_kw, 1.0),
                                    (import_kw, -1.0), *gen])]
    add_hourly_rows(model, T, [
        *bus,
        # curtailment is surplus renewable generation, so it cannot exceed it
        # (without this, negative prices would let the model import-and-dump)
        ("curtail_cap", Sense.LE, 0.0, [(curtail_kw, 1.0), *gen]),
        # conversion chain
        ("electrolysis", Sense.EQ, 0.0, [(h_el_kg, 1.0), (e_el_kw, -h_per_e)]),
        ("h_split", Sense.EQ, 0.0, [(h_el_kg, 1.0), (h_comp1_kg, -1.0), (h_comp2_kg, -1.0)]),
        ("load", Sense.EQ, params.load_kg_per_h, [(h_comp1_kg, 1.0), (h_from_store_kg, 1.0)]),
        ("comp1", Sense.EQ, 0.0, [(e_comp1_kw, 1.0), (h_comp1_kg, -params.mu_comp1)]),
        ("comp2", Sense.EQ, 0.0, [(e_comp2_kw, 1.0), (h_comp2_kg, -mu_comp2)]),
        # storage level recursion
        ("soc_step", Sense.EQ, 0.0, [(soc_kg, 1.0), (soc_prev, -1.0), (h_comp2_kg, -1.0),
                                     (h_from_store_kg, 1.0)]),
        # capacity limits
        ("el_cap", Sense.LE, 0.0, [(e_el_kw, 1.0), (c_el_kw, -1.0)]),
        ("soc_cap", Sense.LE, 0.0, [(soc_kg, 1.0), (c_store_kg, -1.0)]),
    ])
    # the starting level fits in storage, and storage returns to it, so
    # net charge over the horizon is zero
    model.add_rows(["soc0_cap", "soc_cyclic"], [Sense.LE, Sense.EQ], 0.0, [0, 0, 1, 1],
                   [soc0_kg, c_store_kg, soc_kg[T - 1], soc0_kg], [1.0, -1.0, 1.0, -1.0])

    return model, PlantVars(
        horizon=T, e_el_kw=e_el_kw, e_comp1_kw=e_comp1_kw, e_comp2_kw=e_comp2_kw,
        import_kw=import_kw, export_kw=export_kw, curtail_kw=curtail_kw,
        h_el_kg=h_el_kg, h_comp1_kg=h_comp1_kg, h_comp2_kg=h_comp2_kg,
        h_from_store_kg=h_from_store_kg, soc_kg=soc_kg,
        c_wind_kw=c_wind_kw, c_pv_kw=c_pv_kw, c_el_kw=c_el_kw, c_store_kg=c_store_kg,
        soc0_kg=soc0_kg, a_wind=a_wind, a_pv=a_pv,
    )


def _clean(values):
    # solver noise below the feasibility tolerance leaves values such as
    # -1e-13, -0.0 or 1e-9 on quantities that are bounded at zero; snap
    # either sign to 0, so that two solves of one model that differ only
    # in their noise report the same zero
    arr = np.asarray(values, dtype=float)
    return np.where(np.abs(arr) < 1e-7, 0.0, arr)


def extract_dispatch(solution: LpSolution, pvars: PlantVars) -> Dispatch:
    """Each Dispatch field from the PlantVars handle of its name, but the
    generation, which follows from the solved capacities."""
    solved = {}
    for name in (f.name for f in fields(Dispatch)):
        if name not in ("gen_wind_kw", "gen_pv_kw"):
            value = _clean(solution.values[getattr(pvars, name)])
            solved[name] = float(value) if value.ndim == 0 else value
    return Dispatch(gen_wind_kw=pvars.a_wind * solved["c_wind_kw"],
                    gen_pv_kw=pvars.a_pv * solved["c_pv_kw"], **solved)


# relative tolerance of verify_conservation (absolute for cyclic closure)
_TOL = 1e-6


def verify_conservation(d: Dispatch, load_kg_per_h: float) -> list[str]:
    """Physical-consistency audit of a solved dispatch: hourly bus
    balance, load coverage, storage recursion and bounds, cyclic closure,
    horizon-level hydrogen mass balance. Returns violations."""
    problems = []
    lhs = d.e_el_kw + d.e_comp1_kw + d.e_comp2_kw + d.export_kw + d.curtail_kw
    rhs = d.gen_wind_kw + d.gen_pv_kw + d.import_kw
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    bad = np.flatnonzero(np.abs(lhs - rhs) > _TOL * scale)
    if bad.size:
        t = int(bad[0])
        problems.append(f"electricity balance off by {lhs[t]-rhs[t]:.3e} kW at hour {t}"
                        f" (+{bad.size - 1} more)")

    load_gap = np.abs(d.h_comp1_kg + d.h_from_store_kg - load_kg_per_h)
    bad = np.flatnonzero(load_gap > _TOL * max(1.0, load_kg_per_h))
    if bad.size:
        t = int(bad[0])
        problems.append(f"load not met at hour {t} (gap {load_gap[t]:.3e} kg)")

    soc_prev = np.concatenate(([d.soc0_kg], d.soc_kg[:-1]))
    step = np.abs(d.soc_kg - soc_prev - d.h_comp2_kg + d.h_from_store_kg)
    scale = np.maximum(1.0, np.abs(d.soc_kg))
    bad = np.flatnonzero(step > _TOL * scale)
    if bad.size:
        t = int(bad[0])
        problems.append(f"storage recursion off by {step[t]:.3e} kg at hour {t}")

    cap_scale = max(1.0, d.c_store_kg)
    if np.any(d.soc_kg < -_TOL * cap_scale) or np.any(d.soc_kg > d.c_store_kg + _TOL * cap_scale):
        problems.append("storage level outside [0, c_store]")
    if not 0.0 - _TOL * cap_scale <= d.soc0_kg <= d.c_store_kg + _TOL * cap_scale:
        problems.append(f"initial storage level {d.soc0_kg} outside [0, {d.c_store_kg}]")

    # closure is held to an absolute tolerance: basic solutions satisfy the
    # single equality row essentially exactly
    closure = abs(d.soc_kg[-1] - d.soc0_kg)
    if closure > _TOL:
        problems.append(f"cyclic closure violated: |soc(T-1) - soc0| = {closure:.3e} kg")

    produced = float(d.h_el_kg.sum())
    delivered = load_kg_per_h * d.horizon
    drift = abs(produced - delivered - (d.soc_kg[-1] - d.soc0_kg))
    if drift > _TOL * max(1.0, delivered):
        problems.append(f"hydrogen mass balance off by {drift:.3e} kg over the horizon")
    return problems
