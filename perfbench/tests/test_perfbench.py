"""Fast tests of the benchmark itself, at tiny sizes.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"reinstall": 4, "storm": 8, "fork": 256}
SEED = 7


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
         "--nodes", str(TINY[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def outcomes():
    """An untraced and a traced repetition of every workload, in-process."""
    out = {}
    for workload, nodes in TINY.items():
        plain = workloads.run_once(workload, SEED, nodes, trace=False)
        traced = workloads.run_once(workload, SEED, nodes, trace=True)
        out[workload] = (plain, traced)
    return out


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(spec, workload, trace):
    code, stdout = _bench(workload, trace)
    assert code == 0, stdout
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in declared:
        assert f"  {m['name']} " in stdout  # printed by name too


def test_traced_and_untraced_runs_agree(outcomes):
    for workload, (plain, traced) in outcomes.items():
        assert plain["summary"]["digest"] == traced["summary"]["digest"], (
            workload
        )
        assert plain["summary"]["sim_makespan_s"] == (
            traced["summary"]["sim_makespan_s"]
        )


def test_layer_split_adds_up_and_matches_each_workloads_role(outcomes):
    layers = {w: traced["layers"] for w, (_p, traced) in outcomes.items()}
    for workload, metrics in layers.items():
        assert run.layer_split_problems(metrics) == [], workload
    assert layers["fork"]["flows.transfers"] == 0
    assert layers["fork"]["exec.attempts"] >= TINY["fork"]
    assert layers["fork"]["exec.retries"] > 0  # stragglers time out
    assert layers["fork"]["exec.useful_ratio"] < 1.0
    assert layers["reinstall"]["flows.refills_per_transfer"] == 2.0
    for name in ("telemetry.self_s", "monitoring.self_s",
                 "resilience.self_s"):
        assert layers["storm"][name] > 0, name
        assert layers["reinstall"][name] == 0, name
        assert layers["fork"][name] == 0, name


class _DoubleCountingTracer(layers.LayerTracer):
    """Leaves every nested span's time in its parent's self time too."""

    def _exit(self):
        t0 = self._stack[-1][1]
        super()._exit()
        if self._stack:
            self._stack[-1][2] -= time.perf_counter() - t0


def test_layer_split_catches_a_double_counted_span(monkeypatch):
    monkeypatch.setattr(layers, "LayerTracer", _DoubleCountingTracer)
    traced = workloads.run_once("reinstall", SEED, TINY["reinstall"],
                                trace=True)
    problems = run.layer_split_problems(traced["layers"])
    assert any("sum to" in p for p in problems), problems


def test_checks_pass_on_real_outcomes(outcomes):
    reference = workloads.load_reference()
    for workload, (plain, _traced) in outcomes.items():
        assert workloads.check(workload, plain["summary"], reference) == []


def _fresh(workload):
    """A full (unstripped) summary of one tiny repetition."""
    setup, measure = workloads.WORKLOADS[workload][:2]
    summary = measure(setup(TINY[workload], SEED))
    summary["seed"] = SEED
    summary["requested_nodes"] = TINY[workload]
    return summary


def test_planted_bad_reinstall_is_caught():
    good = _fresh("reinstall")
    assert workloads.check("reinstall", good, {}) == []

    one_failed = copy.deepcopy(good)
    one_failed["failed_nodes"] = ["compute-0-1"]
    assert workloads.check("reinstall", one_failed, {})
    assert workloads.ops("reinstall", one_failed) == (4, 1)

    short_bytes = dict(good, bytes_served=good["bytes_served"] - 1)
    assert workloads.check("reinstall", short_bytes, {})

    # A cluster built one node short, whose every node still finished.
    short_cluster = dict(
        good, nodes=3, reported_nodes=3,
        bytes_served=3 * workloads.REINSTALL_BYTES_PER_NODE,
    )
    assert workloads.check("reinstall", short_cluster, {})
    assert workloads.ops("reinstall", short_cluster) == (4, 1)

    reference = {"sim_makespan_s": {"reinstall": {
        "4": {str(SEED): good["sim_makespan_s"]}}}}
    assert workloads.check("reinstall", good, reference) == []
    tampered = dict(good, sim_makespan_s=good["sim_makespan_s"] * (1 + 1e-6))
    assert workloads.check("reinstall", tampered, reference)


def test_planted_bad_storm_is_caught():
    good = _fresh("storm")
    assert workloads.check("storm", good, {}) == []
    assert workloads.check("storm", dict(good, stable=False), {})
    node_down = dict(good, nodes_up=good["nodes"] - 1)
    assert workloads.check("storm", node_down, {})
    assert workloads.ops("storm", node_down) == (good["nodes"], 1)
    short = dict(good, nodes=good["nodes"] - 1, nodes_up=good["nodes"] - 1)
    assert workloads.check("storm", short, {})


def test_planted_bad_fork_is_caught():
    good = _fresh("fork")
    assert workloads.check("fork", good, {}) == []
    healthy = next(n for n in good["targets"]
                   if n not in good["dark"] and n not in good["doom_at"]
                   and n not in good["slow"])

    for state in ("NODE_DEAD", "TIMEOUT", None):
        bad = copy.deepcopy(good)
        if state is None:
            del bad["states"][healthy]
        else:
            bad["states"][healthy] = state
        assert workloads.check("fork", bad, {}), state
        assert workloads.ops("fork", bad)[1] == 1

    assert good["slow"]
    for straggler in good["slow"]:
        assert good["states"][straggler] == "TIMEOUT", straggler
    straggler_ok = copy.deepcopy(good)
    straggler_ok["states"][good["slow"][0]] = "OK"
    assert workloads.check("fork", straggler_ok, {})

    dark_ok = copy.deepcopy(good)
    dark_ok["states"][good["dark"][0]] = "OK"
    assert workloads.check("fork", dark_ok, {})

    doomed = sorted(good["doom_at"])[0]
    late_ok = copy.deepcopy(good)
    late_ok["states"][doomed] = "OK"
    late_ok["finished_at"][doomed] = good["doom_at"][doomed] + 1.0
    assert workloads.check("fork", late_ok, {})
    early_ok = copy.deepcopy(late_ok)
    early_ok["finished_at"][doomed] = good["doom_at"][doomed] - 1.0
    assert workloads.check("fork", early_ok, {}) == []

    lost = copy.deepcopy(good)
    lost["targets"].pop()
    assert workloads.check("fork", lost, {})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, stdout = _bench("fork", 0, cwd=tmp_path)
    assert code != 0
    assert stdout.strip() == ""
