"""Command-line orchestration: single solves, the standard scenario
suite, renewable-capacity sweeps, and geographic (two-market) sweeps.

Exit codes: 0 optimal, 1 input error, 2 infeasible, 3 unbounded,
4 solver failure. Diagnostics go to stderr; results go to --out as JSON
reports and CSV tables with stable key order (repeat runs with the same
config, seed, and backend are byte-identical).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .certification import certify, re_capacity_factor
from .economics import capex_cap_usd, optimize_plant, zone_pair
from .ingest import (
    RunConfig,
    atomic_write,
    breakdown_to_dict,
    dataset_from_config,
    dump_json,
    emissions_to_dict,
    load_config,
    write_dispatch_csv,
    write_report,
)
from .lp import LpStatus
from .types import CapacitySpec, CoLocated, Dataset, Fixed, Free, Mode, ScenarioSpec, Split, TcInterval

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_SOLVER = 4

_STATUS_EXIT = {
    LpStatus.OPTIMAL: EXIT_OK,
    LpStatus.INFEASIBLE: EXIT_INFEASIBLE,
    LpStatus.UNBOUNDED: EXIT_UNBOUNDED,
    LpStatus.SOLVER_FAILURE: EXIT_SOLVER,
}

# The built-in scenarios, one row each: mode, matching interval,
# marginal-emissions cap (kgCO2e/kgH2), and the earlier suite member
# whose final solution starts the row's first solve in the suite. The
# suite runs them in this order, without hourly; one rule needs no
# column: once offgrid is optimal, its capital cost caps every member,
# and a member seeded from offgrid (sell_only, which only relaxes it)
# also starts at the storage price that cost was computed at.
_BUILTINS = {
    "offgrid":   (Mode.OFF_GRID,  None,               None, None),
    "sell_only": (Mode.SELL_ONLY, None,               None, "offgrid"),
    "daily":     (Mode.GRID,      TcInterval.DAILY,   None, None),
    "monthly":   (Mode.GRID,      TcInterval.MONTHLY, None, "daily"),
    "yearly":    (Mode.GRID,      TcInterval.YEARLY,  None, "daily"),
    "flexible":  (Mode.GRID,      None,               None, "daily"),
    "mef_zero":  (Mode.GRID,      None,               0.0,  "flexible"),
    "hourly":    (Mode.GRID,      TcInterval.HOURLY,  None, None),
}
SUITE_ORDER = [name for name in _BUILTINS if name != "hourly"]
# what a suite_report.json row copies from each member's report, under
# the report's own keys (ingest.breakdown_to_dict, emissions_to_dict)
_SUITE_COSTS = ("capex_annualized_usd", "om_usd", "grid_electricity_usd")
_SUITE_INTENSITIES = ("ei_market_kgco2e_per_kgh2", "ei_recs_kgco2e_per_kgh2",
                      "ei_mef_kgco2e_per_kgh2")

REC_PRICE_BAND_AUD = (20.0, 60.0)


def builtin_scenario(name: str, config: RunConfig) -> ScenarioSpec:
    """A built-in scenario (see _BUILTINS) at the config's zone and
    capacity bounds."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown scenario {name!r}; config defines none by that "
                         f"name and built-ins are {list(_BUILTINS)}")
    mode, tc_interval, ei_mef_cap, _ = _BUILTINS[name]
    return ScenarioSpec(name, mode, CoLocated(config.zone), config.capacities,
                        tc_interval=tc_interval, ei_mef_cap=ei_mef_cap)


def resolve_scenario(config: RunConfig, name: str) -> ScenarioSpec:
    for scenario in config.scenarios:
        if scenario.name == name:
            return scenario
    return builtin_scenario(name, config)


def _inputs_block(config: RunConfig) -> dict:
    return {
        "horizon": config.horizon,
        "fx_usd_per_aud": config.fx_usd_per_aud,
        "zone": config.zone,
        "fixture_kind": config.fixture_kind,
        "fixture_seed": (config.fixture_seed if config.fixture_kind else None),
        "zone_files": sorted(Path(p).name for p in config.zone_files.values()),
    }


def _solve_one(scenario: ScenarioSpec, config: RunConfig, dataset: Dataset,
               out_dir: Path, export_lp: bool, start=None, price=None):
    """Optimize, certify, and write one scenario's outputs; start and
    price seed the first solve's basis and storage price (see
    optimize_plant). Returns (report, breakdown, emissions)."""
    lp_path = out_dir / f"{scenario.name}.lp" if export_lp else None
    report, breakdown = optimize_plant(scenario, config.params, dataset,
                                       export_lp_path=lp_path, start=start,
                                       price=price)
    emissions = None
    if report.is_optimal:
        emissions = certify(report.dispatch, *zone_pair(scenario, dataset))
        write_dispatch_csv(report.dispatch,
                           out_dir / f"{scenario.name}_dispatch.csv")
    write_report(report, breakdown, emissions,
                 out_dir / f"{scenario.name}_report.json",
                 scenario=scenario, inputs=_inputs_block(config))
    return report, breakdown, emissions


def _print_outcome(report, breakdown) -> None:
    if report.is_optimal:
        print(f"{report.scenario_name}: optimal, "
              f"lcoh={breakdown.lcoh_usd_per_kg:.4f} USD/kg")
    else:
        print(f"{report.scenario_name}: {report.status.value}", file=sys.stderr)


def cmd_solve(config: RunConfig, scenario_name: str, export_lp: bool) -> int:
    dataset = dataset_from_config(config)
    scenario = resolve_scenario(config, scenario_name)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report, breakdown, _ = _solve_one(scenario, config, dataset, out_dir,
                                      export_lp)
    _print_outcome(report, breakdown)
    return _STATUS_EXIT[report.status]


def cmd_suite(config: RunConfig, export_lp: bool) -> int:
    """Run the built-in scenarios in SUITE_ORDER. The isolated plant
    comes first: once it is optimal, its capital cost, rounded up to a
    whole cent, caps every member after it. A member that _BUILTINS
    names as a seed keeps its final solution, which starts the first
    solve of the members that name it: sell_only starts from offgrid (its
    model relaxes offgrid's export bounds and adds the cap row), at
    offgrid's converged storage technology and unit cost, where offgrid's
    plant meets the cap and so is a feasible start; monthly, yearly and
    flexible start from daily (their models are daily's with other
    matching rows, or none), and mef_zero from flexible (its model adds
    cap rows to flexible's)."""
    dataset = dataset_from_config(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    cap = cap_price = None
    worst = EXIT_OK
    seed_of = {name: row[-1] for name, row in _BUILTINS.items()}
    seeds = {}
    for name in SUITE_ORDER:
        scenario = replace(builtin_scenario(name, config), capex_cap_usd=cap)
        report, breakdown, emissions = _solve_one(
            scenario, config, dataset, out_dir, export_lp,
            start=seeds.get(seed_of[name]),
            price=cap_price if seed_of[name] == "offgrid" else None)
        _print_outcome(report, breakdown)
        if name == "offgrid" and report.is_optimal:
            cap = capex_cap_usd(report, config.params)
            cap_price = report.storage_tech, report.storage_unit_cost_usd_per_kg
        if name in seed_of.values() and report.solution is not None:
            # kept as a seed: its point and its HighsBasis, matched to a
            # later member's rows by name
            seeds[name] = report.solution
        if not report.is_optimal and worst == EXIT_OK:
            worst = _STATUS_EXIT[report.status]
        cost = None if breakdown is None else breakdown_to_dict(breakdown)
        ei = None if emissions is None else emissions_to_dict(emissions)
        rows.append({
            "scenario": name,
            "status": report.status.value,
            "converged": report.converged,
            "lcoh_usd_per_kg": None if cost is None else cost["lcoh_usd_per_kg"],
            "capacities": report.capacities or None,
            "cost_breakdown": None if cost is None else {k: cost[k] for k in _SUITE_COSTS},
            **{k: None if ei is None else ei[k] for k in _SUITE_INTENSITIES},
        })
    dump_json({
        "schema_version": 1,
        "capex_cap_usd": cap,
        "inputs": _inputs_block(config),
        "scenarios": rows,
    }, out_dir / "suite_report.json")
    return worst


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def _point_entry(key: str, value, report, breakdown, emissions) -> dict:
    """One point of a sweep's JSON summary."""
    return {key: value, "status": report.status.value,
            "lcoh_usd_per_kg": None if breakdown is None else breakdown.lcoh_usd_per_kg,
            "emissions": None if emissions is None else emissions_to_dict(emissions)}


def _write_sweep(name: str, points: list, header: list[str], cells, summary: dict,
                 config: RunConfig, dataset: Dataset, out_dir: Path,
                 export_lp: bool) -> None:
    """Solve each (value, scenario) point and write <name>.csv, one row
    per point (the value, the status, then cells(report, breakdown,
    emissions) when optimal, else empty cells), and <name>.json (schema
    version, summary, inputs and one entry per point, keyed header[0]).

    The points' models have the same variables and rows, so each point
    after the first starts from the final solution of the point before."""
    rows, entries = [], []
    start = None
    for value, scenario in points:
        report, breakdown, emissions = _solve_one(scenario, config, dataset, out_dir,
                                                  export_lp, start)
        start = report.solution
        rows.append([value, report.status.value] + (
            cells(report, breakdown, emissions) if report.is_optimal
            else [None] * (len(header) - 2)))
        entries.append(_point_entry(header[0], value, report, breakdown, emissions))
    _write_csv(out_dir / f"{name}.csv", header, rows)
    dump_json({"schema_version": 1, **summary, "inputs": _inputs_block(config),
               "points": entries}, out_dir / f"{name}.json")


def cmd_sweep_re(config: RunConfig, n_points: int, export_lp: bool) -> int:
    """Fix the electrolyser at the isolated optimum's size, then sweep
    installed renewable capacity from zero to 1.5x the isolated optimum's
    renewables-to-electrolyser ratio, re-optimizing storage and dispatch
    at each point and certifying under every accounting method."""
    if n_points < 2:
        raise ValueError("sweep-re needs --points >= 2")
    dataset = dataset_from_config(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    base_report, _, _ = _solve_one(builtin_scenario("offgrid", config), config,
                                   dataset, out_dir, export_lp)
    if not base_report.is_optimal:
        print(f"offgrid baseline failed: {base_report.status.value}",
              file=sys.stderr)
        return _STATUS_EXIT[base_report.status]
    d = base_report.dispatch
    c_el, c_wind, c_pv = d.c_el_kw, d.c_wind_kw, d.c_pv_kw
    re_total = c_wind + c_pv
    wind_share = c_wind / re_total if re_total > 0 else 1.0
    r_max = 1.5 * re_total / c_el if c_el > 0 else 0.0

    def scenario(i: int, r: float) -> ScenarioSpec:
        caps = CapacitySpec(
            wind_kw=Fixed(r * c_el * wind_share),
            pv_kw=Fixed(r * c_el * (1.0 - wind_share)),
            electrolyser_kw=Fixed(c_el),
            storage_kg=Free(),
        )
        return ScenarioSpec(f"re_{i:03d}", Mode.GRID, CoLocated(config.zone),
                            capacities=caps)

    def cells(report, breakdown, emissions) -> list:
        disp = report.dispatch
        cf = re_capacity_factor(disp.gen_wind_kw, disp.gen_pv_kw,
                                disp.c_wind_kw, disp.c_pv_kw)
        return [breakdown.lcoh_usd_per_kg, emissions.ei_market,
                emissions.ei_recs, emissions.ei_location, emissions.ei_mef,
                emissions.ei_aef, emissions.d_market, emissions.d_location, cf,
                disp.c_wind_kw, disp.c_pv_kw, disp.c_el_kw, disp.c_store_kg]

    rs = [r_max * i / (n_points - 1) for i in range(n_points)]
    _write_sweep("sweep_re", [(r, scenario(i, r)) for i, r in enumerate(rs)],
                 ["re_factor", "status", "lcoh_usd_per_kg", "ei_market",
                  "ei_recs", "ei_location", "ei_mef", "ei_aef", "d_market",
                  "d_location", "re_capacity_factor", "c_wind_kw", "c_pv_kw",
                  "c_el_kw", "c_store_kg"], cells,
                 {"baseline_capacities": base_report.capacities,
                  "notes": "electrolyser and renewable split fixed at the "
                           "isolated optimum; storage re-optimized at every point"},
                 config, dataset, out_dir, export_lp)
    return EXIT_OK


def cmd_sweep_geo(config: RunConfig, sell_zones: list[str],
                  export_lp: bool) -> int:
    """Solve one yearly-matched scenario per candidate sell-side zone
    (renewables trade there; the plant buys at home), plus a grid-only
    baseline annotated with the cost of covering every purchased MWh with
    a bought certificate."""
    if not sell_zones:
        raise ValueError("sweep-geo needs at least one sell zone")
    dataset = dataset_from_config(config)
    missing = [z for z in sell_zones if z not in dataset.zones]
    if missing:
        raise ValueError(f"unknown sell zones {missing}; dataset has "
                         f"{sorted(dataset.zones)}")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    baseline_caps = replace(config.capacities, wind_kw=Fixed(0.0),
                            pv_kw=Fixed(0.0))
    baseline = ScenarioSpec("grid_only", Mode.GRID, CoLocated(config.zone),
                            capacities=baseline_caps)
    base_report, base_breakdown, _ = _solve_one(baseline, config, dataset,
                                                out_dir, export_lp)
    baseline_block = {"status": base_report.status.value,
                      "lcoh_usd_per_kg": None,
                      "rec_price_band_aud_per_mwh": list(REC_PRICE_BAND_AUD),
                      "lcoh_with_recs_usd_per_kg": None}
    if base_report.is_optimal:
        imports_mwh = float(base_report.dispatch.import_kw.sum()) / 1000.0
        adders = [imports_mwh * p * config.fx_usd_per_aud
                  / base_report.annual_h2_kg for p in REC_PRICE_BAND_AUD]
        baseline_block["lcoh_usd_per_kg"] = base_breakdown.lcoh_usd_per_kg
        baseline_block["lcoh_with_recs_usd_per_kg"] = [
            base_breakdown.lcoh_usd_per_kg + a for a in adders]

    def cells(report, breakdown, emissions) -> list:
        disp = report.dispatch
        return [breakdown.lcoh_usd_per_kg, emissions.ei_market,
                emissions.ei_recs, emissions.ei_mef, disp.c_wind_kw,
                disp.c_pv_kw, disp.c_el_kw, disp.c_store_kg]

    points = [(zone, ScenarioSpec(f"geo_{zone}", Mode.GRID,
                                  Split(sell_zone=zone, buy_zone=config.zone),
                                  capacities=config.capacities,
                                  tc_interval=TcInterval.YEARLY))
              for zone in sell_zones]
    _write_sweep("sweep_geo", points,
                 ["sell_zone", "status", "lcoh_usd_per_kg", "ei_market",
                  "ei_recs", "ei_mef", "c_wind_kw", "c_pv_kw", "c_el_kw",
                  "c_store_kg"], cells,
                 {"buy_zone": config.zone, "grid_only_baseline": baseline_block},
                 config, dataset, out_dir, export_lp)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run configuration JSON")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--horizon", type=int, help="hours (overrides config)")
    common.add_argument("--seed", type=int,
                        help="fixture seed (overrides config)")
    common.add_argument("--fx", type=float,
                        help="USD per AUD (overrides config)")
    common.add_argument("--export-lp", action="store_true",
                        help="write each scenario's LP in text form")

    parser = argparse.ArgumentParser(
        prog="h2grid",
        description="size and dispatch a grid-connected hydrogen plant, "
                    "then certify its emissions under four accounting methods")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("solve", parents=[common],
                       help="optimize one scenario")
    p.add_argument("--scenario", required=True)
    sub.add_parser("suite", parents=[common],
                   help="run the standard scenario set")
    p = sub.add_parser("sweep-re", parents=[common],
                       help="sweep installed renewable capacity")
    p.add_argument("--points", type=int, default=7)
    p = sub.add_parser("sweep-geo", parents=[common],
                       help="sweep the renewable farm's market zone")
    p.add_argument("--sell-zones", required=True,
                   help="comma-separated zone ids")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.horizon is not None:
            if args.horizon < 1:
                raise ValueError("--horizon must be >= 1")
            config.horizon = args.horizon
        if args.seed is not None:
            if args.seed < 0:
                raise ValueError("--seed must be >= 0")
            if config.fixture_kind is None:
                raise ValueError("--seed needs a config with a fixture")
            config.fixture_seed = args.seed
        if args.fx is not None:
            if not 0 < args.fx < math.inf:
                raise ValueError("--fx must be positive and finite")
            config.fx_usd_per_aud = args.fx
        if args.out is not None:
            config.out_dir = args.out

        if args.command == "solve":
            return cmd_solve(config, args.scenario, args.export_lp)
        if args.command == "suite":
            return cmd_suite(config, args.export_lp)
        if args.command == "sweep-re":
            return cmd_sweep_re(config, args.points, args.export_lp)
        if args.command == "sweep-geo":
            zones = [z.strip() for z in args.sell_zones.split(",") if z.strip()]
            return cmd_sweep_geo(config, zones, args.export_lp)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError, KeyError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
