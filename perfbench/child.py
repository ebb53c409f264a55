"""Child process of the benchmark: runs one h2grid step in a fresh
interpreter and records spans around calls into h2grid's public functions.

    python3 child.py setup CONFIG
        import h2grid.cli, load the config and build its dataset, then exit.
    python3 child.py run SPANS RUN_ID -- ARGV...
        run `h2grid ARGV` in this process, recording only the two spans that
        delimit each scenario (optimize_plant entry, write_report exit).
    python3 child.py trace SPANS RUN_ID -- ARGV...
        the same command with a span around every layer boundary.

Spans are kept in memory and written to SPANS as JSON when the command
ends. Wrappers are installed by assigning to module attributes, from
outside the program; nothing under src/ is changed. The exit code is the
command's own.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

perf = time.perf_counter


class Recorder:
    """Spans as [name, start, end, parent index, run id, notes]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), None, parent, self.run_id, None])
        self._stack.append(index)
        return index

    def close(self, index: int, notes=None) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[2] = perf()
        span[5] = notes

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = inner(*args, **kwargs)
                return result
            finally:
                self.close(index, note(args, kwargs, result) if note else None)

        setattr(owner, attr, wrapper)


def _note_linprog(args, kwargs, res):
    c = args[0]
    a_ub, a_eq = kwargs.get("A_ub"), kwargs.get("A_eq")
    rows = sum(a.shape[0] for a in (a_ub, a_eq) if a is not None)
    nnz = sum(a.nnz for a in (a_ub, a_eq) if a is not None)
    return {"nit": int(getattr(res, "nit", 0) or 0),
            "rows": rows, "cols": len(c), "nnz": nnz}


def _note_written(args, kwargs, _result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    try:
        return {"bytes": Path(path).stat().st_size}
    except OSError:  # the write itself failed; its exception propagates
        return {"bytes": 0}


def _note_report(args, kwargs, result):
    if result is None:
        return None
    report = result[0]
    return {"scenario": report.scenario_name, "iterations": report.iterations,
            "converged": report.converged, "status": report.status.value}


def instrument_scenarios(rec: Recorder, cli) -> None:
    rec.wrap(cli, "optimize_plant", "economics.optimize", _note_report)
    rec.wrap(cli, "write_report", "ingest.write_report")


def instrument_layers(rec: Recorder, cli) -> None:
    """Wrap every layer boundary. Functions are patched where their caller
    looks them up: the CLI's and economics' imported names, module globals
    of lp, and LpModel's methods."""
    import h2grid.economics as economics
    import h2grid.ingest as ingest
    import h2grid.lp as lp

    instrument_scenarios(rec, cli)
    rec.wrap(cli, "load_config", "ingest.config")
    rec.wrap(cli, "dataset_from_config", "ingest.dataset")
    rec.wrap(cli, "write_dispatch_csv", "ingest.write", _note_written)
    rec.wrap(cli, "dump_json", "ingest.write", _note_written)
    rec.wrap(ingest, "dump_json", "ingest.write", _note_written)
    rec.wrap(cli, "certify", "certification.certify")
    rec.wrap(economics, "build_scenario_model", "economics.model")
    rec.wrap(economics, "build_plant", "plant.build")
    rec.wrap(economics, "extract_dispatch", "plant.extract")
    for name in ("apply_temporal_correlation", "apply_emission_cap",
                 "apply_capex_cap"):
        rec.wrap(economics, name, "policy.apply")
    rec.wrap(economics, "wire_two_grid", "policy.rewire")
    rec.wrap(lp.LpModel, "solve", "lp.assemble")
    rec.wrap(lp.LpModel, "check_feasibility", "lp.verify")
    rec.wrap(lp.LpModel, "write_lp", "lp.write_lp")
    rec.wrap(lp, "linprog", "lp.highs", _note_linprog)


def setup(config_path: str) -> int:
    import h2grid.cli as cli
    cli.dataset_from_config(cli.load_config(config_path))
    return 0


def run(mode: str, spans_path: str, run_id: str, argv: list) -> int:
    rec = Recorder(run_id)
    index = rec.open("process.import")
    import h2grid.cli as cli
    if mode == "trace":
        instrument_layers(rec, cli)
    else:
        instrument_scenarios(rec, cli)
    rec.close(index)
    index = rec.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        rec.close(index)
        import json
        Path(spans_path).write_text(json.dumps(rec.spans), encoding="utf-8")
    return code


def main(args: list) -> int:
    if len(args) == 2 and args[0] == "setup":
        return setup(args[1])
    if len(args) >= 4 and args[0] in ("run", "trace") and args[3] == "--":
        return run(args[0], args[1], args[2], args[4:])
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
