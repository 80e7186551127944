"""The exec lab: a cheap, seeded cluster for campaign-scale fan-out runs.

Driving :class:`~repro.exec.task.ExecTask` across 4096 nodes does not
need the installer, DHCP, or HTTP scaling model — it needs 4096
machines that are ``UP``, a few that are dead or *about to die*, and a
few that run slow.  The lab builds exactly that: machines forced
directly into the ``UP`` state (no boot path), a seeded selection of

* **dark** nodes — already off when the campaign starts (prompt
  ``NODE_DEAD``: "host is off");
* **doomed** nodes — alive at dispatch, killed by a simulated PDU cut
  partway through their command (the mid-run dead-watch path);
* **stragglers** — healthy but running ``straggler_slowdown`` times
  slower than their peers,

and a default timed command that reports the node's kernel version.
Everything flows from ``seed``; the same seed yields a byte-identical
:meth:`~repro.exec.task.ExecReport.render` regardless of
``PYTHONHASHSEED`` — the property the CI golden test pins.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Union

from ..cluster import Machine, MachineState, PowerState
from ..cluster.hardware import CATALOG, MacAllocator
from ..netsim import Environment
from ..options import require
from ..scheduler.rexec import RemoteCommand, RemoteProcess, Rexec
from .nodeset import NodeSet
from .task import ExecOptions, ExecReport, ExecTask

__all__ = ["LabOptions", "ExecLab"]

#: cabinet capacity used for the lab's ``@cabinetN`` groups (matches the
#: 32-node cabinets insert-ethers fills rack by rack)
_CABINET = 32


@dataclass(frozen=True)
class LabOptions:
    """Shape of the lab cluster and its injected misbehaviour."""

    nodes: int = 512
    seed: int = 0
    #: fraction of nodes that are dead; half dark at start, half killed
    #: mid-command by the simulated PDU
    dead_fraction: float = 0.0
    #: fraction of (healthy) nodes running slow
    straggler_fraction: float = 0.0
    straggler_slowdown: float = 10.0
    #: nominal command duration and its per-node jitter fraction
    command_time: float = 4.0
    command_jitter: float = 0.5
    kernel_version: str = "2.4.14-rocks"

    def __post_init__(self) -> None:
        require(self.nodes >= 1, "nodes", self.nodes, ">= 1")
        require(0 <= self.dead_fraction < 1, "dead_fraction",
                self.dead_fraction, "in [0, 1)")
        require(0 <= self.straggler_fraction < 1, "straggler_fraction",
                self.straggler_fraction, "in [0, 1)")
        require(0 < self.command_time < math.inf, "command_time",
                self.command_time, "positive and finite")
        require(1 <= self.straggler_slowdown < math.inf, "straggler_slowdown",
                self.straggler_slowdown, ">= 1 and finite")


class ExecLab:
    """A seeded ``node[0-N]`` cluster wired straight to an exec fabric."""

    def __init__(self, options: LabOptions = LabOptions(),
                 env: Optional[Environment] = None):
        self.options = options
        self.env = env if env is not None else Environment()
        self.machines: dict[str, Machine] = {}
        rng = random.Random(("exec-lab", options.seed).__repr__())
        macs = MacAllocator()
        spec = CATALOG["pIII-733-myri"]
        for i in range(options.nodes):
            machine = Machine(
                self.env, spec, macs.allocate(), name=f"node{i}",
                rng_seed=options.seed,
            )
            self._force_up(machine)
            self.machines[machine.name] = machine

        n_dead = int(options.dead_fraction * options.nodes)
        dead = sorted(rng.sample(range(options.nodes), n_dead))
        #: killed by the PDU mid-command (the dead-watch path); the low
        #: half of the dead indices, so the cuts land on nodes the first
        #: fanout wave has already dispatched
        self.doomed = [f"node{i}" for i in dead[: (n_dead + 1) // 2]]
        #: dark before the campaign starts (prompt "host is off")
        self.dark = [f"node{i}" for i in dead[(n_dead + 1) // 2:]]
        for name in self.dark:
            self.machines[name].power_off()
        #: node -> PDU cut time: inside the command window so the cut
        #: lands mid-run for first-wave nodes and pre-dispatch for later
        #: waves — both classify as NODE_DEAD either way
        self.doom_at = {
            name: 0.25 * options.command_time
            + rng.random() * options.command_time
            for name in self.doomed
        }
        alive = [i for i in range(options.nodes) if i not in set(dead)]
        n_slow = int(options.straggler_fraction * len(alive))
        self.slow = {f"node{i}" for i in sorted(rng.sample(alive, n_slow))}

        self.rexec = Rexec(self.env, self.machines.__getitem__)

    def _force_up(self, machine: Machine) -> None:
        """Skip POST/boot: the lab studies execution, not installation."""
        machine.power = PowerState.ON
        machine.state = MachineState.UP

    # -- groups ------------------------------------------------------------
    def resolver(self, group: str) -> str:
        """Lab group source: ``@all``, ``@cabinetN`` (32-node slices)."""
        if group == "all":
            return f"node[0-{self.options.nodes - 1}]"
        if group.startswith("cabinet"):
            k = int(group[len("cabinet"):])
            lo = k * _CABINET
            hi = min(self.options.nodes, lo + _CABINET) - 1
            if lo > hi:
                raise KeyError(group)
            return f"node[{lo}-{hi}]"
        raise KeyError(group)

    # -- the default command -----------------------------------------------
    def uname_command(self) -> RemoteCommand:
        """A timed ``uname -r`` whose duration is seeded per node."""
        opts = self.options

        def command(machine: Machine, proc: RemoteProcess
                    ) -> Generator:
            rng = random.Random(
                ("exec-lab-cmd", opts.seed, machine.hostid).__repr__()
            )
            duration = opts.command_time * (
                1.0 + opts.command_jitter * rng.random()
            )
            if machine.hostid in self.slow:
                duration *= opts.straggler_slowdown
            yield machine.env.timeout(duration)
            proc.stdout.append(opts.kernel_version)
            return 0

        return command

    def _pdu_killer(self) -> Generator:
        """Cut power to each doomed node at its scheduled time."""
        env = self.env
        for name, at in sorted(self.doom_at.items(),
                               key=lambda kv: (kv[1], kv[0])):
            if at > env.now:
                yield env.timeout(at - env.now)
            self.machines[name].power_off(hard=True)
        if False:  # pragma: no cover - keep this a generator when empty
            yield

    # -- running -----------------------------------------------------------
    def run(
        self,
        targets: Union[str, NodeSet, Sequence[str], None] = None,
        command: Optional[RemoteCommand] = None,
        exec_options: Optional[ExecOptions] = None,
    ) -> ExecReport:
        """Run one campaign to completion and return its report."""
        if targets is None:
            targets = f"node[0-{self.options.nodes - 1}]"
        if command is None:
            command = self.uname_command()
        if exec_options is None:
            exec_options = ExecOptions(seed=self.options.seed)
        task = ExecTask(
            self.env, self.rexec, exec_options, resolver=self.resolver
        )
        if self.doom_at:
            self.env.process(self._pdu_killer(), name="lab:pdu")
        driver = task.run(targets, command)
        self.env.run(until=driver)
        return driver.value
