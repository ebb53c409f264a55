#!/usr/bin/env python3
"""h2grid benchmark: one CLI study workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds nothing: the program is the
Python source under src/. Inputs come from the seed (see workloads.py);
each CLI command runs as a fresh child process, one at a time.

--trace 0 prints the end-to-end metrics. Every input variant of the
workload runs once, and variants repeat in turn while the next command
would end within S seconds (at least one repeat, so that repeat runs can
be compared byte for byte). Set-up is timed by a fresh process, before
each command and then until there are at least SETUP_PROBES, that imports
h2grid.cli, loads the config and builds its dataset. Times are reported
at nominal CPU speed: the run is pinned to one CPU, whose speed a probe
thread measures while each child runs (speed.py).

--trace 1 runs variant 0 once untraced and once with a span around every
layer boundary, and prints the per-layer metrics of the traced command.

Every command's outputs go through the correctness gate (gate.py). The
last line of standard output is one JSON object: correct, attempted and
failed (scenarios), and metrics. The exit code is 0 when the benchmark
ran, and 2 when it cannot run here (no source tree, h2grid not
importable, a set-up probe failing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import (END_TO_END, FAILED_SHARE, PER_LAYER, SCENARIO_MAX, SCENARIO_P50,
                    SPAN_METRIC, layer_calls, layer_metrics,
                    scenario_intervals, scenario_stats, self_times, traced_wall)
from speed import SpeedProbe, pin_to_one_cpu
from workloads import (CONFIRMATION_SEED, DEVELOPMENT_SEED, WORKLOADS,
                       input_seeds)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 5
# every run must end within 180 s; leave room for the gate and printing
RUN_DEADLINE_S = 165.0


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def crash_exit(code: int) -> bool:
    """True unless `code` is an exit the CLI gives for a solver status
    (optimal, infeasible, unbounded, solver failure)."""
    from h2grid.cli import _STATUS_EXIT
    return code not in _STATUS_EXIT.values()


@dataclass
class Command:
    variant: int
    code: int
    wall_s: float
    speed: float     # of the CPU while it ran, relative to nominal
    rss_mb: float
    spans: list
    outcomes: list
    # a crash exit, or no output directory (argparse rejects argv with 2,
    # the same code as an infeasible solve)
    crashed: bool
    digests: dict = field(default_factory=dict)

    @property
    def nominal_s(self) -> float:
        """Wall time at nominal CPU speed."""
        return self.wall_s * self.speed


class Runner:
    def __init__(self, workload, work: Path, deadline: float, probe: SpeedProbe):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.probe = probe
        self.count = 0

    def spawn(self, args: list) -> tuple[int, float, float, float, Path]:
        """Run `python3 child.py ARGS` to completion; (exit code, wall
        seconds, CPU speed meanwhile, peak RSS of that child in MB, its
        stderr file)."""
        tag = self.work / f"child{self.count}"
        self.count += 1
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(f"{tag}.out", "wb") as out, open(f"{tag}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), *args],
                                    stdout=out, stderr=err, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Linux reports ru_maxrss in KiB
        return (proc.returncode, end - start, self.probe.speed(start, end),
                usage.ru_maxrss / 1024.0, Path(f"{tag}.err"))

    def setup_time(self, inputs) -> tuple[float, float]:
        """(wall seconds, the same at nominal CPU speed) of one set-up."""
        code, wall, speed, _, err = self.spawn(["setup", str(inputs.config_path)])
        if code != 0:
            die(f"set-up probe failed with exit code {code}\n{stderr_tail(err)}")
        return wall, wall * speed

    def scenario_times(self, spans: list) -> list[tuple[str, float]]:
        """(scenario, seconds at nominal CPU speed) of one command."""
        return [(name, (end - start) * self.probe.speed(start, end))
                for name, start, end in scenario_intervals(spans)]

    def command(self, variant: int, inputs, mode: str) -> Command:
        from gate import check_command, digests, Outcome

        out_dir = self.work / f"out{self.count}"
        spans_path = self.work / f"spans{self.count}.json"
        argv = [*self.workload.argv, "--config", str(inputs.config_path),
                "--out", str(out_dir)]
        code, wall, speed, rss, err = self.spawn([mode, str(spans_path),
                                                  f"run{self.count}", "--", *argv])
        spans = (json.loads(spans_path.read_text()) if spans_path.exists()
                 else [])
        crashed = crash_exit(code) or not out_dir.is_dir()
        cmd = Command(variant, code, wall, speed, rss, spans, [], crashed)
        if crashed:
            print(f"perfbench: {self.workload.command()} exited {code}"
                  f"{'' if out_dir.is_dir() else ' and wrote no outputs'}\n"
                  f"{stderr_tail(err)}", file=sys.stderr)
            cmd.outcomes = [Outcome(name, "crashed", f"command exited {code}")
                            for name in inputs.scenarios]
        else:
            cmd.outcomes = check_command(out_dir, inputs, code)
            cmd.digests = digests(out_dir)
            shutil.rmtree(out_dir)
        return cmd


def stderr_tail(path: Path) -> str:
    return path.read_text(errors="replace")[-2000:]


def scenario_files(name: str) -> set[str]:
    return {f"{name}_report.json", f"{name}_dispatch.csv", f"{name}.lp"}


def compare_repeats(first: Command, other: Command, problems: list) -> None:
    """Mark scenarios whose files differ between two runs of the same
    inputs as failed; any other differing file fails the whole run."""
    from gate import byte_mismatches, Outcome

    if first.crashed or other.crashed:
        return
    differing = set(byte_mismatches(first.digests, other.digests))
    for i, outcome in enumerate(other.outcomes):
        mine = differing & scenario_files(outcome.scenario)
        if mine:
            other.outcomes[i] = Outcome(outcome.scenario, outcome.status,
                                        f"not byte-identical on repeat: "
                                        f"{sorted(mine)}")
            differing -= mine
    if differing:
        problems.append(f"files differ between repeat runs: {sorted(differing)}")


def tally(commands: list[Command], problems: list) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every scenario of every command.
    A crashed command's scenarios all carry a problem."""
    outcomes = [o for c in commands for o in c.outcomes]
    correct = not (problems or any(o.problem for o in outcomes))
    return correct, len(outcomes), sum(o.failed for o in outcomes)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_header(workload, seed: int, seeds: list[int], trace: int) -> None:
    print(f"workload {workload.name}: {workload.command()}  T={workload.horizon}"
          f"  zones={','.join(workload.zone_ids)}")
    print(f"seed {seed} -> input seeds {seeds}  (tuned on {DEVELOPMENT_SEED}, "
          f"confirm claims on {CONFIRMATION_SEED})  trace={trace}")
    print("env " + json.dumps(environment(), sort_keys=True))


def print_failures(commands: list[Command], problems: list) -> None:
    for o in dict.fromkeys(o for c in commands for o in c.outcomes if o.failed):
        print(f"  failed scenario {o.scenario}: {o.status}"
              + (f" ({o.problem})" if o.problem else ""))
    for p in problems:
        print(f"  gate: {p}")


def untraced(workload, seed: int, seconds: float, runner: Runner) -> dict:
    seeds = input_seeds(workload, seed)
    print_header(workload, seed, seeds, 0)
    variants = [workload.make_inputs(runner.work / f"in{k}", s)
                for k, s in enumerate(seeds)]

    setup: list[tuple[float, float]] = []   # (wall, at nominal speed)
    commands: list[Command] = []
    start = time.perf_counter()
    # every input once, then inputs in turn while another set-up and
    # command, as long as the last ones, end within the time; at least one
    # repeat, so that repeat runs can be compared byte for byte. A set-up
    # probe precedes each command, so that set-up is sampled over the
    # whole run as commands are
    def another() -> bool:
        if len(commands) <= len(variants):
            return True
        last = setup[-1][0] + commands[-1].wall_s
        return time.perf_counter() - start + last <= seconds

    while another():
        k = len(commands) % len(variants)
        setup.append(runner.setup_time(variants[k]))
        commands.append(runner.command(k, variants[k], "run"))
        if time.monotonic() > runner.deadline - 2 * max(c.wall_s for c in commands):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(runner.setup_time(variants[len(setup) % len(variants)]))

    problems: list[str] = []
    for v in range(len(variants)):
        group = [c for c in commands if c.variant == v]
        for other in group[1:]:
            compare_repeats(group[0], other, problems)
    correct, attempted, failed = tally(commands, problems)

    scenarios = [runner.scenario_times(c.spans) for c in commands]
    p50, slowest, samples = scenario_stats([t for ts in scenarios for _, t in ts])
    values = {
        "setup_s": statistics.median(nominal for _, nominal in setup),
        "wall_s": statistics.median(c.nominal_s for c in commands),
        "peak_rss_mb": statistics.median(c.rss_mb for c in commands),
        "scenario_s_p50": p50,
        "scenario_s_max": slowest,
        "failed_share": failed / attempted if attempted else 1.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes at nominal CPU speed "
                   f"(as measured: {statistics.median(w for w, _ in setup):.4f} s)",
        "wall_s": f"median of {len(commands)} commands over {len(variants)} inputs "
                  f"at nominal CPU speed (as measured: "
                  f"{statistics.median(c.wall_s for c in commands):.4f} s)",
        "peak_rss_mb": "median over commands, per child process, from wait4",
        "scenario_s_p50": f"median of {samples} scenarios; no bound",
        "scenario_s_max": f"slowest of the {samples} scenarios; no bound",
        "failed_share": f"{failed} of {attempted} scenarios not optimal or "
                        f"failing the gate; no bound",
    }
    print("commands: wall as measured, CPU speed, wall and scenario times at "
          "nominal speed")
    for c, times in zip(commands, scenarios):
        print(f"  input {c.variant}: wall {c.wall_s:.3f} s x speed {c.speed:.3f} = "
              f"{c.nominal_s:.3f} s, peak rss {c.rss_mb:.1f} MB, scenarios "
              + " ".join(f"{t:.3f}" for _, t in times))
    print("end-to-end")
    for m in END_TO_END + [SCENARIO_P50, SCENARIO_MAX, FAILED_SHARE]:
        print(f"  {m.name:<16} {values[m.name]:>12.4f} {m.unit:<5}  [{m.layer}] "
              f"{notes[m.name]}")
    print_failures(commands, problems)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m.name: metric(values[m.name], m.unit) for m in END_TO_END}}


def traced(workload, seed: int, runner: Runner) -> dict:
    seeds = input_seeds(workload, seed)[:1]
    print_header(workload, seed, seeds, 1)
    inputs = workload.make_inputs(runner.work / "in0", seeds[0])
    plain = runner.command(0, inputs, "run")
    traced_cmd = runner.command(0, inputs, "trace")

    spans = traced_cmd.spans
    problems = [] if spans else ["traced command wrote no spans"]
    compare_repeats(plain, traced_cmd, problems)
    correct, attempted, failed = tally([plain, traced_cmd], problems)

    values = layer_metrics(spans) if spans else {}
    values["trace.overhead_s"] = traced_cmd.nominal_s - plain.nominal_s
    values["scenario_s_p50"], values["scenario_s_max"], _ = scenario_stats(
        [t for _, t in runner.scenario_times(plain.spans)])
    wall = traced_wall(spans) if spans else 0.0
    calls = layer_calls(spans)

    print(f"traced command: {traced_cmd.wall_s:.4f} s process wall at CPU speed "
          f"{traced_cmd.speed:.3f}, {wall:.4f} s in spans; untraced: "
          f"{plain.wall_s:.4f} s at speed {plain.speed:.3f}; tracing overhead "
          f"{values['trace.overhead_s']:+.4f} s at nominal speed. Layer times "
          f"are as measured.")
    print(f"  {'layer metric':<26} {'value':>12} {'unit':<6} {'calls':>6} {'share':>7}")
    times = sorted(set(SPAN_METRIC.values()), key=lambda n: -values.get(n, 0.0))
    for name in times:
        v = values.get(name, 0.0)
        print(f"  {name:<26} {v:>12.4f} {'s':<6} {calls.get(name, 0):>6} "
              f"{(v / wall if wall else 0.0):>7.1%}")
    accounted = sum(self_times(spans))
    print(f"  {'(sum of self times)':<26} {accounted:>12.4f} {'s':<6} {'':>6} "
          f"{(accounted / wall if wall else 0.0):>7.1%}")
    for m in PER_LAYER:
        if m.name not in SPAN_METRIC.values():
            print(f"  {m.name:<26} {values.get(m.name, 0.0):>12.4f} {m.unit}")
    print("  (scenario_s_p50 and scenario_s_max are of the untraced command)")
    share = failed / attempted if attempted else 1.0
    print(f"  {FAILED_SHARE.name:<26} {share:>12.4f} {FAILED_SHARE.unit}  "
          f"({failed} of {attempted} scenarios)")
    print_failures([plain, traced_cmd], problems)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m.name: metric(values.get(m.name, 0.0), m.unit)
                        for m in PER_LAYER}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="h2grid benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        die("--seed must be >= 0")

    if not (SRC / "h2grid" / "cli.py").is_file():
        die(f"no h2grid source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    try:
        import h2grid
        import gate  # noqa: F401  (the gate must be able to run)
    except ImportError as exc:
        die(f"cannot import h2grid or its dependencies: {exc}")
    if Path(h2grid.__file__).resolve().parent != SRC / "h2grid":
        die(f"h2grid imported from {h2grid.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    # on SIGTERM, unwind so that the running child is killed and reaped and
    # the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    # this process, its speed probe and every child share one CPU, so that
    # the probe sees the speed the child runs at (speed.py)
    pin_to_one_cpu()
    try:
        with SpeedProbe() as probe:
            runner = Runner(WORKLOADS[args.workload], work,
                            started + RUN_DEADLINE_S, probe)
            if args.trace:
                result = traced(runner.workload, args.seed, runner)
            else:
                result = untraced(runner.workload, args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
