"""One scenario registry: a name maps to ``fn(nodes, seed=None, **opts)``.

``trace``, ``explain``, ``sanitize``, ``fork``, ``reinstall`` and
``table1`` all dispatch through :func:`run`, which returns one
:class:`ScenarioRun`: the canonical output text (its sha256 is the
determinism digest), the tracer when traced, and the native result.
Each entry names the options class its ``**opts`` fill, so :func:`run`
can reject an option the scenario does not take; the runners' heavy
imports stay inside the scenario functions.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple, Optional, Union

from .exec import ExecOptions, NodeSet, NodeSetParseError
from .load import StormOptions
from .options import OptionError, require

__all__ = ["Scenario", "ScenarioRun", "SCENARIOS", "run"]


class Scenario(NamedTuple):
    """A registry entry.  ``fn(nodes, tracer=, **opts)`` returns
    ``(output, native result, tracer)``; ``options`` is the class whose
    fields ``**opts`` fill, if any."""

    fn: Callable[..., tuple]
    nodes: int
    options: Optional[type] = None


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


def run(name: str, nodes: Union[int, str, None] = None,
        seed: Optional[int] = None, traced: bool = False,
        **opts) -> ScenarioRun:
    """Run scenario ``name`` on ``nodes``: a count (default: the
    scenario's own) or, for chaos and fork, a nodeset of targets that
    sizes the cluster.  ``seed=None`` keeps the scenario's own seed.  A
    bad ``nodes``, or an option the scenario does not take, raises
    :class:`~repro.options.OptionError`."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r} "
                         f"(have: {', '.join(sorted(SCENARIOS))})")
    fn, default_nodes, _ = SCENARIOS[name]
    for key in opts:
        if key not in _takes(name):
            takers = [n for n in sorted(SCENARIOS) if key in _takes(n)]
            raise OptionError(key, f"{{}} applies only to the "
                                   f"{' and '.join(takers)} scenario, "
                                   f"not {name!r}" if takers else
                                   "{} is not an option of any scenario")
    if seed is not None:
        opts["seed"] = seed
    if traced:
        from .telemetry import Tracer

        opts["tracer"] = Tracer()
    try:
        output, result, tracer = fn(
            default_nodes if nodes is None else nodes, **opts)
    except OptionError as exc:
        if exc.field not in ("n_compute", "n_nodes"):
            raise
        # Every scenario sizes its cluster from ``nodes``.
        raise OptionError("nodes", exc.message) from None
    except NodeSetParseError as exc:
        raise OptionError("nodes", f"{{}}: {exc}") from None
    return ScenarioRun(name, output, result, tracer)


def _takes(name: str) -> set[str]:
    """The options scenario ``name`` takes: its function's keywords, and
    the fields of the options class its ``**opts`` fill."""
    fn, _, options = SCENARIOS[name]
    takes = set(inspect.signature(fn).parameters)
    takes |= {f.name for f in fields(options)} if options else set()
    return takes - {"nodes", "n_nodes", "tracer", "opts"}


def _reinstall(nodes: int, seed: int = 0, tracer=None, on_ready=None):
    """The paper's Table I point: integrate, then reinstall every node at
    once.  ``on_ready(sim)`` runs between the two."""
    from . import build_cluster

    sim = build_cluster(n_compute=nodes, seed=seed, tracer=tracer)
    sim.integrate_all()
    if on_ready is not None:
        on_ready(sim)
    reports = sim.reinstall_all()
    text = "".join(f"{r.host} {r.method} {r.started_at!r} {r.finished_at!r}\n"
                   for r in sorted(reports, key=lambda r: r.host))
    return text, reports, tracer


def _chaos(nodes: Union[int, str], seed: Optional[int] = None, tracer=None,
           plan: str = "default", resilience=False, monitoring=None,
           on_monitoring=None):
    """The reinstall under a fault plan; ``seed=None`` is the plan's own.
    A nodeset ``nodes`` is the campaign's targets, on the smallest
    cluster covering them."""
    from .faults import chaos_reinstall

    targets = None
    if isinstance(nodes, str):
        targets, nodes = nodes, 1
    else:
        # A campaign over no nodes would pass vacuously.
        require(nodes >= 1, "nodes", nodes, ">= 1")
    result = chaos_reinstall(
        n_nodes=nodes, plan=plan, seed=seed, tracer=tracer, targets=targets,
        resilience=resilience, monitoring=monitoring,
        on_monitoring=on_monitoring)
    return result.render(), result, tracer


def _storm(nodes: int, seed: int = 42, tracer=None, **opts):
    """Whole-site power-restore storm; ``opts`` are
    :class:`~repro.load.StormOptions` fields.  Always traced by its own
    tracer."""
    from .load import run_storm

    result = run_storm(StormOptions(n_nodes=nodes, seed=seed, **opts))
    return result.slo_json(), result, result.tracer


def _lab_size(targets: str, size: Optional[int]) -> int:
    """Nodes in a lab covering ``node<i>`` targets, and at least ``size``;
    ``@group`` targets resolve only against a lab of a given ``size``."""
    if size is not None:
        require(size >= 1, "size", size, ">= 1")
    if "@" in targets:
        if size is None:
            raise OptionError("size", "{} is required for @group targets")
        return size
    highest = 0
    for name in NodeSet(targets):
        if not (name.startswith("node") and name[4:].isdigit()):
            raise OptionError("nodes", "{}: lab targets must look like "
                                       f"node<i>, got {name!r}")
        highest = max(highest, int(name[4:]) + 1)
    if not highest:
        raise OptionError("nodes", f"{{}}: empty target set {targets!r}")
    return max(highest, size or 0)


def _fork(nodes: Union[int, str], seed: int = 42, tracer=None,
          size: Optional[int] = None, dead_fraction: float = 0.05,
          straggler_fraction: float = 0.02, **opts):
    """Cluster-fork over a seeded exec lab of ``nodes``, or over a
    nodeset ``nodes`` on a lab of :func:`_lab_size`; ``opts`` are
    :class:`~repro.exec.ExecOptions` fields (fanout 64 by default)."""
    from .exec import ExecLab, LabOptions
    from .netsim import Environment

    targets = None
    if isinstance(nodes, str):
        targets, nodes = nodes, _lab_size(nodes, size)
    env = Environment()
    if tracer is not None:
        tracer.attach(env)
    lab = ExecLab(LabOptions(
        nodes=nodes, seed=seed, dead_fraction=dead_fraction,
        straggler_fraction=straggler_fraction), env=env)
    report = lab.run(targets, exec_options=ExecOptions(seed=seed, **opts))
    return report.render() + "\n", report, tracer


def _race_fixture(nodes: int, seed: int = 0, tracer=None):
    """A planted same-tick race: ``nodes`` processes mutate shared state
    at t=10, and both the append order and the non-associative float
    update depend on dispatch order.  The sanitizer's positive control.
    """
    from .netsim import Environment

    require(nodes >= 0, "nodes", nodes, ">= 0")
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


#: name -> the scenario
SCENARIOS: dict[str, Scenario] = {
    "reinstall": Scenario(_reinstall, 8),
    "chaos": Scenario(_chaos, 8),
    "storm": Scenario(_storm, 12, StormOptions),
    "fork": Scenario(_fork, 512, ExecOptions),
    "race-fixture": Scenario(_race_fixture, 8),
}
