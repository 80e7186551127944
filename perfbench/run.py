"""The repository's end-to-end benchmark: one command, three workloads.

Runs one workload of the paper's evaluation through the program's
public API, checks that the simulated outcome is correct, and prints
its metrics by name with their units.  The last line of standard output
is one JSON object::

    {"correct": true, "attempted": 64, "failed": 0,
     "metrics": {"wall_s": {"value": 10.4, "unit": "s"}, ...}}

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``reinstall`` -- Table I: 64 nodes reinstall at once from one HTTP
  frontend (closed loop: each installer fetches its next package only
  after the previous one lands).
* ``storm`` -- whole-site power-restore storm at 64 nodes with
  autoscaling (open loop in simulated time: seeded arrivals are issued
  on schedule whatever the servers' state).
* ``fork`` -- exec fanout over 16384 lab nodes, 5% dead, 2% stragglers,
  sliding window of 256 (closed loop).

``--trace 0`` measures the end-to-end metrics with tracing off: it runs
repetitions, each in a fresh process, until ``--seconds`` have passed
(at least three), and reports the median of each host metric.  Host
seconds are the repetition process's CPU seconds (every workload is
single-threaded) scaled to a nominal host speed: on a host shared with
other tenants the same code runs up to 1.6 times slower in some spells,
so a probe (``hostspeed.py``) samples the host's speed throughout each
phase and the benchmark reports the phase's seconds at the speed of the
host's fast spells.  The raw CPU seconds and each measured phase's
slowdown are printed per repetition.

* ``wall_s`` -- host seconds of the measured phase (``reinstall_all``,
  ``run_storm``, ``ExecLab.run``);
* ``setup_s`` -- host seconds before it, interpreter start-up and
  imports included: imports plus cluster build and insert-ethers
  (reinstall), imports plus options (storm, whose bring-up happens
  inside ``run_storm``), imports plus lab construction (fork);
* ``peak_rss_mb`` -- peak resident memory of the repetition's process;
* ``sim_makespan_s`` -- simulated seconds: Table I's first-start to
  last-finish span (reinstall), time to a stable cluster (storm),
  ``ExecReport.seconds`` (fork).  It repeats exactly for a seed.

The storm also prints its install-HTTP p99 latency and shed rate from
the SLO report.  ``--trace 1`` runs one untraced and one traced
repetition and reports the per-layer metrics (``layers.py``) and the
tracing overhead: the traced repetition's set-up plus measured host
seconds minus the untraced one's.  Either way every repetition must
pass the workload's correctness check and produce the same digest.

``--nodes`` resizes a workload (e.g. the 32/64/128-node reinstall growth
curve, or a 128-node storm) with the same code; the gated sizes are the
defaults.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload reinstall --seed 7 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 7   # each workload in turn

With ``--workload all`` each workload prints its own report and JSON
line, and the exit status is non-zero if any of them is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "workloads.py"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("reinstall", "storm", "fork")

#: Every run must end well inside the three minutes a run may take.
RUN_DEADLINE_S = 150.0
#: Bounds on repetitions per untraced run (tiny ``--nodes`` sizes stop
#: at the upper one).
MIN_REPS = 3
MAX_REPS = 25

#: The layer split must add up to the traced wall time to within float
#: rounding, and no layer may fall below zero by more than that.
SPLIT_TOLERANCE_S = 1e-6


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def run_child(workload: str, seed: int, nodes, trace: bool,
              timeout: float, imports_only: bool = False) -> dict:
    """Run one repetition in a fresh interpreter; returns its JSON."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    if nodes is not None:
        cmd += ["--nodes", str(nodes)]
    if imports_only:
        cmd.append("--imports-only")
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"repetition exceeded {timeout:.0f}s") from err
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise BenchError("repetition crashed:\n  " + "\n  ".join(tail))
    if imports_only:
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values)


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of each metric ``BENCHMARK.json`` declares for a run:
    the end-to-end ones untraced, the per-layer ones traced."""
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def layer_split_problems(layers: dict) -> list[str]:
    """The per-layer self times plus ``other``, each measured on its own,
    must add up to the traced wall time, with no layer below zero."""
    wall = layers["trace.wall_s"]
    parts = {name: value for name, value in layers.items()
             if name.endswith(".self_s")}
    problems = []
    total = sum(parts.values())
    if abs(total - wall) > SPLIT_TOLERANCE_S:
        problems.append(f"layer self times sum to {total:.6f}s, "
                        f"traced wall is {wall:.6f}s")
    for name, value in sorted(parts.items()):
        if value < -SPLIT_TOLERANCE_S:
            problems.append(f"{name} is negative ({value:.4f}s): a span "
                            "was counted twice")
    return problems


def measure(workload: str, args) -> tuple[list[dict], dict]:
    """Run the repetitions; returns them and the reported metrics."""
    start = time.perf_counter()

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - start)

    # Compile the bytecode cache first, so no repetition's import time
    # includes it (a user pays that once, not per run).
    run_child(workload, args.seed, args.nodes, False, remaining(),
              imports_only=True)
    reps = []
    if args.trace:
        plain = run_child(workload, args.seed, args.nodes, False,
                          remaining())
        traced = run_child(workload, args.seed, args.nodes, True,
                           remaining())
        reps = [plain, traced]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = sum(
            traced[name] - plain[name]
            for name in ("post_import_setup_s", "wall_s"))
        metrics = {name: (layers[name], unit)
                   for name, unit in declared_metrics(True)}
        return reps, metrics
    # Repeat until the next repetition would overrun --seconds, but at
    # least MIN_REPS times, so every run reports a real median.
    begun = time.perf_counter()
    durations = []
    while len(reps) < MAX_REPS:
        rep_start = time.perf_counter()
        reps.append(run_child(workload, args.seed, args.nodes, False,
                              remaining()))
        durations.append(time.perf_counter() - rep_start)
        next_end = time.perf_counter() - begun + median(durations)
        if len(reps) >= MIN_REPS and next_end > args.seconds:
            break
        if median(durations) > remaining():
            break
    values = {name: median(r[name] for r in reps)
              for name in ("wall_s", "setup_s", "peak_rss_mb")}
    values["sim_makespan_s"] = reps[0]["summary"]["sim_makespan_s"]
    return reps, {name: (values[name], unit)
                  for name, unit in declared_metrics(False)}


def run_workload(workload: str, args) -> int:
    """Measure and check one workload, print its report; exit status."""
    try:
        reps, metrics = measure(workload, args)
    except BenchError as err:
        print(f"error: {workload}: {err}", file=sys.stderr)
        return 2

    problems = []
    for i, rep in enumerate(reps):
        problems += [f"repetition {i + 1}: {p}" for p in rep["problems"]]
    digests = sorted({rep["summary"]["digest"] for rep in reps})
    if len(digests) != 1:
        problems.append(f"repetitions disagree: {len(digests)} digests "
                        "for one seed")
    if args.trace:
        problems += layer_split_problems(reps[1]["layers"])
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    correct = not problems and failed == 0

    summary = reps[0]["summary"]
    print(f"workload {workload}: {summary['nodes']} nodes, seed "
          f"{args.seed}, {len(reps)} repetition(s)"
          + (", traced" if args.trace else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    if workload == "storm":
        print(f"  {'http_p99_s':<28} {summary['http_p99_s']:>14.6g} s")
        print(f"  {'shed_rate':<28} {summary['shed_rate']:>14.6g} ratio")
    if args.trace:
        print(f"  spans written to {reps[1]['spans_file']}")
    else:
        for name in ("wall_s", "setup_s", "wall_cpu_s", "slowdown"):
            print(f"  {name} per repetition: "
                  + " ".join(f"{rep[name]:.4f}" for rep in reps))
    print(f"  digest {digests[0]}")
    print(f"  check: {attempted} ops attempted, {failed} failed, "
          + ("correct" if correct else "INCORRECT"))
    for problem in problems:
        print(f"    {problem}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure (repeat the workload) this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nodes", type=int, default=None,
                        help="resize the workload (not gated)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(workload, args) for workload in workloads)


if __name__ == "__main__":
    sys.exit(main())
