"""One repetition of one benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition
pays its own imports (part of ``setup_s``) and reports its own peak
resident memory.  It prints one JSON object: host timings, peak RSS,
the simulated metrics, a summary of the simulated outcome for the
correctness check, and the outcome's canonical digest.

Host timings are the process's CPU seconds (user plus system; every
workload runs on one thread), scaled to a nominal host speed by a
:class:`hostspeed.HostSpeed` probe that samples the host's speed
throughout each phase, traced or not, so that the tracing overhead
compares like with like.  The raw CPU seconds and the measured phase's
slowdown are reported beside them.

The three workloads drive the program only through its public API:

* ``reinstall`` -- Table I (§6.3): ``build_cluster`` and
  ``integrate_all`` (insert-ethers) are set-up; ``reinstall_all`` of
  every node at once from one HTTP frontend is measured.
* ``storm`` -- the whole-site power-restore storm with autoscaling
  (``run_storm``); set-up is imports plus options, because the cluster
  is built inside ``run_storm``.
* ``fork`` -- an exec fanout over an ``ExecLab`` with 5% dead nodes and
  2% stragglers; set-up is building the lab, ``ExecLab.run`` is measured.
  The per-attempt deadline lies between a healthy command's run time
  and a straggler's, so every straggler times out and is retried with
  backoff until its retries run out.

With ``--trace 1`` the same repetition runs under the engine
self-profiler and the benchmark's layer tracer (``layers.py``), and the
output gains the per-layer metrics; the simulated outcome must not
change.

Usage (from the checkout root)::

    python3 perfbench/workloads.py --workload reinstall --seed 7 --nodes 4
"""

import argparse
import contextlib
import hashlib
import json
import resource
import sys
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parents[1]
SPANS_DIR = ROOT / "perfbench" / "out"

#: Gated size of each workload; ``--nodes`` overrides it for curves that
#: are drawn with the same code but are not gated.
DEFAULT_NODES = {"reinstall": 64, "storm": 64, "fork": 16384}

#: Bytes one node's reinstall pulls from the frontend (the distribution
#: plus its kickstart file); Table I's bytes served are exactly N times it.
REINSTALL_BYTES_PER_NODE = 225_565_449

FORK_DEAD_FRACTION = 0.05
FORK_STRAGGLER_FRACTION = 0.02
FORK_FANOUT = 256
#: A lab command runs 4-6 s, 40-60 s on a straggler (10x slower), so a
#: 20 s deadline times out every straggler attempt and no healthy one.
FORK_TIMEOUT_S = 20.0
FORK_RETRIES = 2


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- reinstall -----------------------------------------------------------


def setup_reinstall(nodes: int, seed: int):
    from repro import build_cluster

    sim = build_cluster(n_compute=nodes, seed=seed)
    sim.integrate_all()
    return sim


def measure_reinstall(sim) -> dict:
    server = sim.frontend.install_server
    served_before = server.bytes_served
    reports = sim.reinstall_all()
    bytes_served = server.bytes_served - served_before
    started = min(r.started_at for r in reports)
    finished = max(
        (r.finished_at for r in reports if r.finished), default=started
    )
    lines = [
        f"{r.host} {'ok' if r.ok else 'FAILED'} {r.minutes:.6f}"
        for r in sorted(reports, key=lambda r: r.host)
    ]
    lines.append(f"span {(finished - started) / 60.0:.6f} min, "
                 f"{bytes_served:.0f} bytes")
    return {
        "nodes": len(sim.nodes),
        "failed_nodes": sorted(r.host for r in reports if not r.ok),
        "reported_nodes": len(reports),
        "bytes_served": bytes_served,
        "sim_makespan_s": finished - started,
        "digest": _digest("\n".join(lines) + "\n"),
    }


def check_reinstall(summary: dict) -> list[str]:
    problems = []
    n = summary["requested_nodes"]
    if summary["nodes"] != n:
        problems.append(f"cluster has {summary['nodes']} nodes, {n} asked for")
    if summary["reported_nodes"] != n:
        problems.append(f"{summary['reported_nodes']} reports for {n} nodes")
    if summary["failed_nodes"]:
        problems.append(f"nodes failed: {summary['failed_nodes']}")
    expected = n * REINSTALL_BYTES_PER_NODE
    if summary["bytes_served"] != expected:
        problems.append(
            f"bytes served {summary['bytes_served']!r} != {expected} "
            f"({n} x {REINSTALL_BYTES_PER_NODE})"
        )
    return problems


def ops_reinstall(summary: dict) -> tuple[int, int]:
    n = summary["requested_nodes"]
    failed = len(summary["failed_nodes"])
    failed += max(n - summary["reported_nodes"], 0)
    return n, failed


# -- storm ---------------------------------------------------------------


def setup_storm(nodes: int, seed: int):
    from repro.load import StormOptions

    return StormOptions(n_nodes=nodes, seed=seed, autoscale=True)


def measure_storm(options) -> dict:
    from repro.load import run_storm

    result = run_storm(options)
    report = result.report
    return {
        "nodes": options.n_nodes,
        "stable": result.stable,
        "nodes_up": report["nodes_up"],
        "sim_makespan_s": report["time_to_stable_s"],
        "http_p99_s": report["http"]["p99_s"],
        "shed_rate": report["shed"]["rate"],
        "digest": _digest(result.slo_json()),
    }


def check_storm(summary: dict) -> list[str]:
    problems = []
    n = summary["requested_nodes"]
    if summary["nodes"] != n:
        problems.append(f"storm ran {summary['nodes']} nodes, {n} asked for")
    if not summary["stable"]:
        problems.append("storm never reached a stable cluster")
    if summary["nodes_up"] != n:
        problems.append(f"{summary['nodes_up']}/{n} nodes up at the end")
    return problems


def ops_storm(summary: dict) -> tuple[int, int]:
    n = summary["requested_nodes"]
    return n, max(n - summary["nodes_up"], 0)


# -- fork ----------------------------------------------------------------


def setup_fork(nodes: int, seed: int):
    from repro.exec import ExecLab, LabOptions

    return ExecLab(LabOptions(
        nodes=nodes,
        seed=seed,
        dead_fraction=FORK_DEAD_FRACTION,
        straggler_fraction=FORK_STRAGGLER_FRACTION,
    ))


def measure_fork(lab) -> dict:
    from repro.exec import ExecOptions

    report = lab.run(exec_options=ExecOptions(
        fanout=FORK_FANOUT,
        command_timeout=FORK_TIMEOUT_S,
        max_retries=FORK_RETRIES,
        seed=lab.options.seed,
    ))
    return {
        "nodes": lab.options.nodes,
        "targets": list(report.targets),
        "states": {name: r.state.value for name, r in report.results.items()},
        "dark": sorted(lab.dark),
        "doom_at": dict(lab.doom_at),
        "slow": sorted(lab.slow),
        "finished_at": {
            name: r.finished_at for name, r in report.results.items()
        },
        "sim_makespan_s": report.seconds,
        "digest": _digest(report.render() + "\n"),
    }


def _fork_bad_targets(summary: dict) -> dict[str, str]:
    """Targets whose outcome breaks the expectation, with the reason.

    Dark nodes are off before the fanout starts and must not be OK.  A
    doomed node loses power at its seeded cut time: it may be OK only if
    its command finished before the cut (a first-wave node with a short
    command can), and otherwise must not be.  A straggler's every attempt
    outlasts the deadline, so it ends timed out once its retries are
    spent.  Every healthy node is OK.
    """
    from repro.exec import ExecState

    ok = ExecState.OK.value
    timed_out = {ExecState.TIMEOUT.value, ExecState.RETRIES_EXHAUSTED.value}
    terminal = {state.value for state in ExecState}
    dark = set(summary["dark"])
    doom_at = summary["doom_at"]
    slow = set(summary["slow"])
    states = summary["states"]
    bad = {}
    for name in summary["targets"]:
        state = states.get(name)
        if state not in terminal:
            bad[name] = f"no terminal state ({state!r})"
        elif name in dark:
            if state == ok:
                bad[name] = "node dark from the start reported OK"
        elif name in doom_at:
            if state == ok and summary["finished_at"][name] > doom_at[name]:
                bad[name] = "node reported OK after its power was cut"
        elif name in slow:
            if state not in timed_out:
                bad[name] = f"straggler ended {state}, not timed out"
        elif state != ok:
            bad[name] = f"healthy node ended {state}"
    return bad


def check_fork(summary: dict) -> list[str]:
    problems = []
    targets = summary["targets"]
    n = summary["requested_nodes"]
    if summary["nodes"] != n:
        problems.append(f"lab has {summary['nodes']} nodes, {n} asked for")
    if len(targets) != n or len(set(targets)) != len(targets):
        problems.append(
            f"{len(targets)} targets ({len(set(targets))} distinct) for "
            f"{n} nodes"
        )
    extra = set(summary["states"]) - set(targets)
    if extra:
        problems.append(f"{len(extra)} results for nodes never targeted")
    bad = _fork_bad_targets(summary)
    if bad:
        first = sorted(bad)[:3]
        problems.append(
            f"{len(bad)} targets ended wrongly, e.g. "
            + "; ".join(f"{name}: {bad[name]}" for name in first)
        )
    return problems


def ops_fork(summary: dict) -> tuple[int, int]:
    return len(summary["targets"]), len(_fork_bad_targets(summary))


WORKLOADS = {
    "reinstall": (setup_reinstall, measure_reinstall, check_reinstall,
                  ops_reinstall),
    "storm": (setup_storm, measure_storm, check_storm, ops_storm),
    "fork": (setup_fork, measure_fork, check_fork, ops_fork),
}


def check(workload: str, summary: dict, reference: dict) -> list[str]:
    """Every correctness problem with one repetition's outcome.

    The checks hold under a legitimate float-rounding change: node and
    target outcomes and byte counts are exact, and a recorded reference
    makespan is matched to 1e-9 relative.
    """
    problems = WORKLOADS[workload][2](summary)
    ref = reference_makespan(reference, workload,
                             summary["requested_nodes"], summary["seed"])
    if ref is not None:
        got = summary["sim_makespan_s"]
        if got is None or abs(got - ref) > 1e-9 * abs(ref):
            problems.append(f"sim_makespan_s {got!r} != reference {ref!r}")
    return problems


def ops(workload: str, summary: dict) -> tuple[int, int]:
    """(operations attempted, operations failed) for one repetition."""
    return WORKLOADS[workload][3](summary)


def reference_makespan(reference: dict, workload: str, nodes: int,
                       seed: int):
    by_nodes = reference.get("sim_makespan_s", {}).get(workload, {})
    return by_nodes.get(str(nodes), {}).get(str(seed))


def load_reference() -> dict:
    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as f:
        return json.load(f)


def _phase(fn, args: tuple) -> tuple:
    """Run one phase: (result, (seconds at the nominal host speed,
    CPU seconds, slowdown))."""
    probe = HostSpeed().start()
    result = fn(*args)
    seconds = probe.stop()
    return result, (seconds, probe.cpu_s, probe.slowdown)


def run_once(workload: str, seed: int, nodes: int, trace: bool) -> dict:
    """One repetition: set-up, measured phase, outcome (imports done)."""
    setup, measure = WORKLOADS[workload][:2]
    with contextlib.ExitStack() as stack:
        if trace:
            from layers import LayerTracer
            from repro.netsim.profiler import profiled

            session = stack.enter_context(profiled())
            tracer = stack.enter_context(LayerTracer(ROOT))
        state, setup_phase = _phase(setup, (nodes, seed))
        summary, measured_phase = _phase(measure, (state,))
    summary["seed"] = seed
    summary["requested_nodes"] = nodes
    out = {"summary": summary}
    out["post_import_setup_s"], out["post_import_setup_cpu_s"], _ = (
        setup_phase)
    out["wall_s"], out["wall_cpu_s"], out["slowdown"] = measured_phase
    if trace:
        out["layers"] = tracer.metrics(session)
        name = f"{workload}-n{nodes}-seed{seed}.spans.jsonl"
        tracer.write_spans(SPANS_DIR / name, {
            "workload": workload, "nodes": nodes, "seed": seed,
            "wall_s": tracer.wall_s,
        })
        out["spans_file"] = f"perfbench/out/{name}"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--imports-only", action="store_true",
                        help="import the program and exit (compiles the "
                        "bytecode cache before anything is timed)")
    args = parser.parse_args(argv)
    nodes = args.nodes or DEFAULT_NODES[args.workload]
    # The import phase runs from the interpreter's start (CPU second 0).
    import_probe = HostSpeed().start(cpu_start=0.0)

    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (the import is part of set-up)
    import repro.exec  # noqa: F401
    import repro.load  # noqa: F401
    import repro.netsim.profiler  # noqa: F401

    import_s = import_probe.stop()
    if args.imports_only:
        return 0
    sys.path.insert(0, str(ROOT / "perfbench"))
    out = run_once(args.workload, args.seed, nodes, bool(args.trace))
    summary = out["summary"]
    out["problems"] = check(args.workload, summary, load_reference())
    out["attempted"], out["failed"] = ops(args.workload, summary)
    out["import_s"] = import_s
    out["setup_s"] = import_s + out["post_import_setup_s"]
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    # Bulky per-target data stays in this process.
    for key in ("targets", "states", "dark", "doom_at", "slow",
                "finished_at"):
        summary.pop(key, None)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
