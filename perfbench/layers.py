"""Metric catalogue and the reduction of traced spans to per-layer metrics.

A layer's time is the self time of its spans: a span's duration minus the
part of it covered by its child spans. Spans nest (one thread), so the self
times of all spans add up to the traced wall time of the process body.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    bound: float | None = None   # end-to-end only


END_TO_END = [
    Metric("setup_s", "s", "lower", "process", 0.25),
    Metric("wall_s", "s", "lower", "cli", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", "process", 0.1),
]

# Per-scenario times are printed with the end-to-end table but carry no
# bound: a scenario is one or two LP solves, and on a shared 2-core machine
# their time drifted with the host's speed by more than the largest bound
# (scenario_s_max spread 0.30 over ten runs of suite), while the whole
# command, diluted by start-up, stayed within it. A traced run reports them
# for its untraced command.
SCENARIO_P50 = Metric("scenario_s_p50", "s", "lower", "cli")
SCENARIO_MAX = Metric("scenario_s_max", "s", "lower", "cli")
# failed_share is the result's failed / attempted; it is 0 on workloads with
# no defect, and an end-to-end metric must never be 0
FAILED_SHARE = Metric("failed_share", "ratio", "lower", "cli")

# span name -> layer time metric (self time, seconds)
SPAN_METRIC = {
    "process.import": "process.import_s",
    "cli.main": "cli.self_s",
    "ingest.config": "ingest.config_s",
    "ingest.dataset": "ingest.dataset_s",
    "ingest.write": "ingest.write_s",
    "ingest.write_report": "ingest.write_s",
    "plant.build": "plant.build_s",
    "plant.extract": "plant.extract_s",
    "policy.apply": "policy.apply_s",
    "policy.rewire": "policy.rewire_s",
    "economics.model": "economics.model_s",
    "economics.optimize": "economics.optimize_s",
    "lp.assemble": "lp.assemble_s",
    "lp.highs": "lp.highs_s",
    "lp.verify": "lp.verify_s",
    "lp.write_lp": "lp.write_lp_s",
    "certification.certify": "certification.certify_s",
}

PER_LAYER = [
    SCENARIO_P50,
    SCENARIO_MAX,
    Metric("process.import_s", "s", "lower", "process"),
    Metric("ingest.config_s", "s", "lower", "ingest"),
    Metric("ingest.dataset_s", "s", "lower", "ingest"),
    Metric("ingest.write_s", "s", "lower", "ingest"),
    Metric("ingest.bytes_written", "bytes", "lower", "ingest"),
    Metric("plant.build_s", "s", "lower", "plant"),
    Metric("plant.build_calls", "count", "lower", "plant"),
    Metric("plant.extract_s", "s", "lower", "plant"),
    Metric("economics.model_s", "s", "lower", "economics"),
    Metric("economics.optimize_s", "s", "lower", "economics"),
    Metric("economics.storage_iters", "count", "lower", "economics"),
    Metric("economics.converged_share", "ratio", "higher", "economics"),
    Metric("lp.assemble_s", "s", "lower", "lp"),
    Metric("lp.highs_s", "s", "lower", "lp"),
    Metric("lp.highs_calls", "count", "lower", "lp"),
    Metric("lp.highs_iters", "count", "lower", "lp"),
    Metric("lp.first_try_share", "ratio", "higher", "lp"),
    Metric("lp.verify_s", "s", "lower", "lp"),
    Metric("lp.rows", "count", "lower", "lp"),
    Metric("lp.cols", "count", "lower", "lp"),
    Metric("lp.nnz", "count", "lower", "lp"),
    Metric("certification.certify_s", "s", "lower", "certification"),
    Metric("certification.calls", "count", "higher", "certification"),
    Metric("cli.self_s", "s", "lower", "cli"),
    Metric("trace.overhead_s", "s", "lower", "trace"),
]

# measured and printed in the traced table, but zero by construction on
# workloads that never reach the layer (no policy rows on sweep-re, no
# two-bus rewire or LP export outside geo-export), so they are not part of
# the machine-read result
TABLE_ONLY = [
    Metric("policy.apply_s", "s", "lower", "policy"),
    Metric("policy.rewire_s", "s", "lower", "policy"),
    Metric("lp.write_lp_s", "s", "lower", "lp"),
]


def self_times(spans: list) -> list[float]:
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer times, counts and ratios of one traced command."""
    out = dict.fromkeys(SPAN_METRIC.values(), 0.0)
    calls: Counter = Counter()
    notes = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        name, note = span[0], span[5]
        out[SPAN_METRIC[name]] += own
        calls[name] += 1
        if note:
            notes[name].append(note)

    out["ingest.bytes_written"] = float(sum(n["bytes"] for n in notes["ingest.write"]))
    out["plant.build_calls"] = float(calls["plant.build"])
    reports = notes["economics.optimize"]
    out["economics.storage_iters"] = float(sum(n["iterations"] for n in reports))
    out["economics.converged_share"] = (
        sum(n["converged"] for n in reports) / len(reports) if reports else 0.0)
    highs = notes["lp.highs"]
    out["lp.highs_calls"] = float(calls["lp.highs"])
    out["lp.highs_iters"] = float(sum(n["nit"] for n in highs))
    largest = max(highs, key=lambda n: n["nnz"],
                  default={"rows": 0, "cols": 0, "nnz": 0})
    for key in ("rows", "cols", "nnz"):
        out[f"lp.{key}"] = float(largest[key])

    # an LP solve settled on its first try made exactly one linprog call
    solves = [i for i, span in enumerate(spans) if span[0] == "lp.assemble"]
    linprog_calls = Counter(span[3] for span in spans if span[0] == "lp.highs")
    out["lp.first_try_share"] = (
        sum(linprog_calls[i] == 1 for i in solves) / len(solves) if solves else 0.0)
    out["certification.calls"] = float(calls["certification.certify"])
    return out


def layer_calls(spans: list) -> Counter:
    """Number of spans behind each layer time metric."""
    return Counter(SPAN_METRIC[span[0]] for span in spans)


def traced_wall(spans: list) -> float:
    roots = [s for s in spans if s[3] < 0]
    return max(s[2] for s in roots) - min(s[1] for s in roots)


def scenario_stats(times: list[float]) -> tuple[float, float, int]:
    """(p50, max, samples) of per-scenario times."""
    if not times:
        return 0.0, 0.0, 0
    return statistics.median(times), max(times), len(times)


def scenario_intervals(spans: list) -> list[tuple[str, float, float]]:
    """(scenario, start, end) from optimize_plant's entry to the end of the
    write_report call that closes the scenario (optimize, certify, write)."""
    out, start, name = [], None, None
    for span_name, s, e, _, _, note in spans:
        if span_name == "economics.optimize":
            start, name = s, (note or {}).get("scenario")
        elif span_name == "ingest.write_report" and start is not None:
            out.append((name, start, e))
            start = None
    return out
