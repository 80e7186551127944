"""One scenario registry: a name maps to ``fn(nodes, seed=None, **opts)``.

``trace``, ``explain``, ``sanitize``, ``fork``, ``reinstall`` and
``table1`` all dispatch through :func:`run`, which returns one
:class:`ScenarioRun`: the canonical output text (its sha256 is the
determinism digest), the tracer when traced, and the native result.
Heavy imports stay inside the scenario functions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["ScenarioRun", "SCENARIOS", "run"]


@dataclass
class ScenarioRun:
    """One scenario execution; the sanitizer alone fills the last three."""

    scenario: str
    output: str
    result: Any = None
    tracer: Any = None
    perturb_seed: Optional[int] = None
    dispatch_log: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.output.encode("utf-8")).hexdigest()


def run(name: str, nodes: Optional[int] = None, seed: Optional[int] = None,
        traced: bool = False, **opts) -> ScenarioRun:
    """Run scenario ``name`` at ``nodes`` (default: its own size);
    ``seed=None`` keeps the scenario's own seed."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r} "
                         f"(have: {', '.join(sorted(SCENARIOS))})")
    fn, default_nodes = SCENARIOS[name]
    if seed is not None:
        opts["seed"] = seed
    if traced:
        from .telemetry import Tracer

        opts["tracer"] = Tracer()
    output, result, tracer = fn(
        default_nodes if nodes is None else nodes, **opts)
    return ScenarioRun(name, output, result, tracer)


def _reinstall(nodes: int, seed: int = 0, tracer=None, on_ready=None, **build):
    """The paper's Table I point: integrate, then reinstall every node at
    once.  ``on_ready(sim)`` runs between the two."""
    from . import build_cluster

    sim = build_cluster(n_compute=nodes, seed=seed, tracer=tracer, **build)
    sim.integrate_all()
    if on_ready is not None:
        on_ready(sim)
    reports = sim.reinstall_all()
    text = "".join(f"{r.host} {r.method} {r.started_at!r} {r.finished_at!r}\n"
                   for r in sorted(reports, key=lambda r: r.host))
    return text, reports, tracer


def _chaos(nodes: int, seed: Optional[int] = None, tracer=None,
           plan: str = "default", **opts):
    """The reinstall under a fault plan; ``seed=None`` is the plan's own."""
    from .faults import chaos_reinstall

    result = chaos_reinstall(n_nodes=nodes, plan=plan, seed=seed,
                             tracer=tracer, **opts)
    return result.render(), result, tracer


def _storm(nodes: int, seed: int = 42, tracer=None, **opts):
    """Whole-site power-restore storm; always traced by its own tracer."""
    from .load import StormOptions, run_storm

    result = run_storm(StormOptions(n_nodes=nodes, seed=seed, **opts))
    return result.slo_json(), result, result.tracer


def _fork(nodes: int, seed: int = 42, tracer=None, targets=None,
          dead: float = 0.05, stragglers: float = 0.02, **exec_opts):
    """Cluster-fork over a seeded exec lab; ``exec_opts`` are
    :class:`~repro.exec.ExecOptions` fields (fanout 64 by default)."""
    from .exec import ExecLab, ExecOptions, LabOptions
    from .netsim import Environment

    env = Environment()
    if tracer is not None:
        tracer.attach(env)
    lab = ExecLab(LabOptions(nodes=nodes, seed=seed, dead_fraction=dead,
                             straggler_fraction=stragglers), env=env)
    report = lab.run(targets, exec_options=ExecOptions(seed=seed, **exec_opts))
    return report.render() + "\n", report, tracer


def _race_fixture(nodes: int, seed: int = 0, tracer=None):
    """A planted same-tick race: ``nodes`` processes mutate shared state
    at t=10, and both the append order and the non-associative float
    update depend on dispatch order.  The sanitizer's positive control.
    """
    from .netsim import Environment

    env = Environment()
    if tracer is not None:
        tracer.attach(env)
    order: list[int] = []
    shared = [0.0]

    def worker(i: int):
        yield env.timeout(10.0)
        order.append(i)
        shared[0] = shared[0] * 1.0000001 + i + seed  # order-sensitive

    for i in range(nodes):
        env.process(worker(i), name=f"racer{i}")
    env.run()
    return repr((order, shared[0])) + "\n", order, tracer


#: name -> (fn, default node count); ``fn(nodes, tracer=, **opts)``
#: returns ``(output, native result, tracer)``
SCENARIOS: dict[str, tuple[Callable[..., tuple], int]] = {
    "reinstall": (_reinstall, 8),
    "chaos": (_chaos, 8),
    "storm": (_storm, 12),
    "fork": (_fork, 512),
    "race-fixture": (_race_fixture, 8),
}
