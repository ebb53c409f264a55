"""Command-line orchestration: single solves, the standard scenario
suite, renewable-capacity sweeps, and geographic (two-market) sweeps.

Exit codes: 0 optimal, 1 input error, 2 infeasible, 3 unbounded,
4 solver failure. main checks every input before it makes --out; then
one context (_Command) solves, certifies, writes and prints every
scenario of the command, and sets the exit code from the first scenario
that is not optimal. Diagnostics go to stderr; results go to --out as
JSON reports and CSV tables with stable key order (repeat runs with the
same config, seed, and backend are byte-identical). Each column of a
sweep table after the swept value and the status is the field of its
name on the point's CostBreakdown, EmissionsReport or Dispatch.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .certification import certify
from .economics import capex_cap_usd, optimize_plant, zone_pair
from .ingest import (
    SCHEMA_VERSION,
    RunConfig,
    dataset_from_config,
    dump_json,
    emissions_to_dict,
    load_config,
    write_csv,
    write_dispatch_csv,
    write_report,
)
from .lp import LpStatus
from .types import (CapacityBound, CapacitySpec, CoLocated, Dataset, Mode, ScenarioSpec,
                    Split, TcInterval)

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
# the report's own keys (the CostBreakdown fields, ingest.emissions_to_dict)
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


class _Command:
    """One command's run: its config, dataset, output directory and
    --export-lp flag, the inputs block every JSON output repeats, and
    the exit code, EXIT_OK until the first scenario that is not
    optimal sets it."""

    def __init__(self, config: RunConfig, dataset: Dataset, export_lp: bool):
        self.config = config
        self.dataset = dataset
        self.out_dir = Path(config.out_dir)
        self.export_lp = export_lp
        self.inputs = {
            "horizon": config.horizon,
            "fx_usd_per_aud": config.fx_usd_per_aud,
            "zone": config.zone,
            "fixture_kind": config.fixture_kind,
            "fixture_seed": config.fixture_seed,
            "zone_files": sorted(Path(p).name for p in config.zone_files.values()),
        }
        self.code = EXIT_OK

    def solve(self, scenario: ScenarioSpec, start=None, price=None):
        """Optimize, certify, write and print one scenario's outcome; start
        and price seed the first solve's basis and storage price (see
        optimize_plant). Returns (report, breakdown, emissions)."""
        lp_path = self.out_dir / f"{scenario.name}.lp" if self.export_lp else None
        report, breakdown = optimize_plant(scenario, self.config.params, self.dataset,
                                           export_lp_path=lp_path, start=start,
                                           price=price)
        emissions = None
        if report.is_optimal:
            emissions = certify(report.dispatch, *zone_pair(scenario, self.dataset))
            write_dispatch_csv(report.dispatch,
                               self.out_dir / f"{scenario.name}_dispatch.csv")
        write_report(report, breakdown, emissions,
                     self.out_dir / f"{scenario.name}_report.json",
                     scenario=scenario, inputs=self.inputs)
        if report.is_optimal:
            print(f"{scenario.name}: optimal, "
                  f"lcoh={breakdown.lcoh_usd_per_kg:.4f} USD/kg")
        else:
            print(f"{scenario.name}: {report.status.value}", file=sys.stderr)
            self.code = self.code or _STATUS_EXIT[report.status]
        return report, breakdown, emissions

    def sweep(self, name: str, points: list, header: list[str], summary: dict) -> None:
        """Solve each (value, scenario) point and write <name>.csv, one row
        per point (the value, the status, then each column's field by name on
        the first of the point's CostBreakdown, EmissionsReport and Dispatch
        that has it, all None unless optimal), and <name>.json (schema
        version, summary, inputs and one entry per point, keyed header[0]).

        The points' models have the same variables and rows, so each point
        after the first starts from the final solution of the point before."""
        rows, entries = [], []
        start = None
        for value, scenario in points:
            report, breakdown, emissions = self.solve(scenario, start)
            start = report.solution
            sources = (breakdown, emissions, report.dispatch)
            rows.append([value, report.status.value] + [
                next((getattr(s, column) for s in sources if hasattr(s, column)), None)
                for column in header[2:]])
            entries.append({
                header[0]: value, "status": report.status.value,
                "lcoh_usd_per_kg": None if breakdown is None else breakdown.lcoh_usd_per_kg,
                "emissions": None if emissions is None else emissions_to_dict(emissions)})
        write_csv(self.out_dir / f"{name}.csv", header, rows)
        dump_json({"schema_version": SCHEMA_VERSION, **summary, "inputs": self.inputs,
                   "points": entries}, self.out_dir / f"{name}.json")


def cmd_suite(run: _Command) -> None:
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
    config = run.config
    rows = []
    cap = cap_price = None
    seed_of = {name: row[-1] for name, row in _BUILTINS.items()}
    seeds = {}
    for name in SUITE_ORDER:
        scenario = replace(builtin_scenario(name, config), capex_cap_usd=cap)
        report, breakdown, emissions = run.solve(
            scenario, start=seeds.get(seed_of[name]),
            price=cap_price if seed_of[name] == "offgrid" else None)
        if name == "offgrid" and report.is_optimal:
            cap = capex_cap_usd(report, config.params)
            cap_price = report.storage_tech, report.storage_unit_cost_usd_per_kg
        if name in seed_of.values():
            # kept as a seed: its point and its HighsBasis, matched to a
            # later member's rows by name
            seeds[name] = report.solution
        cost = None if breakdown is None else asdict(breakdown)
        ei = None if emissions is None else emissions_to_dict(emissions)
        rows.append({
            "scenario": name,
            "status": report.status.value,
            "converged": report.converged,
            "lcoh_usd_per_kg": None if cost is None else cost["lcoh_usd_per_kg"],
            "capacities": report.capacities,
            "cost_breakdown": None if cost is None else {k: cost[k] for k in _SUITE_COSTS},
            **{k: None if ei is None else ei[k] for k in _SUITE_INTENSITIES},
        })
    dump_json({
        "schema_version": SCHEMA_VERSION,
        "capex_cap_usd": cap,
        "inputs": run.inputs,
        "scenarios": rows,
    }, run.out_dir / "suite_report.json")


def cmd_sweep_re(run: _Command, n_points: int) -> None:
    """Fix the electrolyser at the isolated optimum's size, then sweep
    installed renewable capacity from zero to 1.5x the isolated optimum's
    renewables-to-electrolyser ratio, re-optimizing storage and dispatch
    at each point and certifying under every accounting method."""
    config = run.config
    base_report, _, _ = run.solve(builtin_scenario("offgrid", config))
    if not base_report.is_optimal:
        return
    d = base_report.dispatch
    c_el, c_wind, c_pv = d.c_el_kw, d.c_wind_kw, d.c_pv_kw
    re_total = c_wind + c_pv
    wind_share = c_wind / re_total if re_total > 0 else 1.0
    r_max = 1.5 * re_total / c_el if c_el > 0 else 0.0

    def scenario(i: int, r: float) -> ScenarioSpec:
        wind, pv = r * c_el * wind_share, r * c_el * (1.0 - wind_share)
        caps = CapacitySpec(wind_kw=CapacityBound(wind, wind), pv_kw=CapacityBound(pv, pv),
                            electrolyser_kw=CapacityBound(c_el, c_el))
        return ScenarioSpec(f"re_{i:03d}", Mode.GRID, CoLocated(config.zone),
                            capacities=caps)

    rs = [r_max * i / (n_points - 1) for i in range(n_points)]
    run.sweep("sweep_re", [(r, scenario(i, r)) for i, r in enumerate(rs)],
              ["re_factor", "status", "lcoh_usd_per_kg", "ei_market",
               "ei_recs", "ei_location", "ei_mef", "ei_aef", "d_market",
               "d_location", "re_capacity_factor", "c_wind_kw", "c_pv_kw",
               "c_el_kw", "c_store_kg"],
              {"baseline_capacities": base_report.capacities,
               "notes": "electrolyser and renewable split fixed at the "
                        "isolated optimum; storage re-optimized at every point"})


def cmd_sweep_geo(run: _Command, sell_zones: list[str]) -> None:
    """Solve one yearly-matched scenario per candidate sell-side zone
    (renewables trade there; the plant buys at home), plus a grid-only
    baseline annotated with the cost of covering every purchased MWh with
    a bought certificate."""
    config = run.config
    baseline_caps = replace(config.capacities, wind_kw=CapacityBound(0.0, 0.0),
                            pv_kw=CapacityBound(0.0, 0.0))
    baseline = ScenarioSpec("grid_only", Mode.GRID, CoLocated(config.zone),
                            capacities=baseline_caps)
    base_report, base_breakdown, _ = run.solve(baseline)
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

    points = [(zone, ScenarioSpec(f"geo_{zone}", Mode.GRID,
                                  Split(sell_zone=zone, buy_zone=config.zone),
                                  capacities=config.capacities,
                                  tc_interval=TcInterval.YEARLY))
              for zone in sell_zones]
    run.sweep("sweep_geo", points,
              ["sell_zone", "status", "lcoh_usd_per_kg", "ei_market",
               "ei_recs", "ei_mef", "c_wind_kw", "c_pv_kw", "c_el_kw",
               "c_store_kg"],
              {"buy_zone": config.zone, "grid_only_baseline": baseline_block})


# each flag that replaces a config value: the RunConfig field it sets, its
# type and its help; RunConfig checks the new value by the config key's rule
_OVERRIDES = {
    "--out": ("out_dir", str, "output directory (replaces out_dir)"),
    "--horizon": ("horizon", int, "hours (replaces horizon)"),
    "--seed": ("fixture_seed", int, "fixture seed (replaces fixture.seed)"),
    "--fx": ("fx_usd_per_aud", float, "USD per AUD (replaces fx_usd_per_aud)"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run configuration JSON")
    for flag, (key, kind, text) in _OVERRIDES.items():
        common.add_argument(flag, dest=key, type=kind, metavar=flag[2:].upper(), help=text)
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
        overrides = {key: getattr(args, key) for key, _, _ in _OVERRIDES.values()
                     if getattr(args, key) is not None}
        config = replace(load_config(args.config), **overrides)

        if args.command == "sweep-re" and args.points < 2:
            raise ValueError("sweep-re needs --points >= 2")
        if args.command == "sweep-geo":
            zones = [z.strip() for z in args.sell_zones.split(",") if z.strip()]
            if not zones:
                raise ValueError("sweep-geo needs at least one sell zone")
            repeated = sorted({z for z in zones if zones.count(z) > 1})
            if repeated:
                raise ValueError(f"repeated sell zones {repeated}")
        dataset = dataset_from_config(config)
        if args.command == "solve":
            scenario = resolve_scenario(config, args.scenario)
        if args.command == "sweep-geo":
            missing = [z for z in zones if z not in dataset.zones]
            if missing:
                raise ValueError(f"unknown sell zones {missing}; dataset has "
                                 f"{sorted(dataset.zones)}")

        run = _Command(config, dataset, args.export_lp)
        run.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            run.solve(scenario)
        elif args.command == "suite":
            cmd_suite(run)
        elif args.command == "sweep-re":
            cmd_sweep_re(run, args.points)
        else:
            cmd_sweep_geo(run, zones)
        return run.code
    except (ValueError, OSError, KeyError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
