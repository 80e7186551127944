"""The per-node metric agent (gmond).

Every machine — compute nodes and the frontend — runs a
:class:`MetricAgent`: a perpetual process that samples local state and
multicasts a compact :class:`MetricPacket` to the well-known group
address.  Fidelity notes:

* the agent transmits whenever the node's OS (or anaconda's install
  environment, which carries the same telemetry the eKV console does)
  has the NIC up — ``INSTALLING``, ``BOOTING``, ``UP``.  A node in
  POST, HUNG, or powered off is dark, exactly the §4 "administrator in
  the dark" window, and that silence is the signal the aggregator's
  staleness logic (and the node-down alert) feeds on;
* sampling has **seeded jitter**: each agent's tick phase and period
  wobble come from a ``random.Random`` seeded with the agent's MAC, so
  broadcasts interleave like real unsynchronized daemons yet replay
  byte-identically for a given seed;
* packets are cheap value objects delivered synchronously over
  :class:`~repro.netsim.multicast.MulticastGroup` — no flows, no
  bandwidth contention, so enabling monitoring never perturbs the
  simulation it observes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..cluster import Machine, MachineState
from ..netsim import MulticastGroup

__all__ = ["MetricAgent", "MetricPacket", "GMOND_MULTICAST", "ExtraSampler"]

#: Ganglia's historical default channel; any string works as an address.
GMOND_MULTICAST = "239.2.11.71"

#: The machine states in which the NIC is configured and gmond can talk.
_VISIBLE_STATES = (
    MachineState.INSTALLING,
    MachineState.BOOTING,
    MachineState.UP,
)

#: Hook for host-specific metrics (the frontend adds service health,
#: HTTP admission gauges, and scheduler depths): machine ->
#: (numeric metrics, string labels).
ExtraSampler = Callable[[Machine], tuple[dict[str, float], dict[str, str]]]


@dataclass(frozen=True)
class MetricPacket:
    """One gmond broadcast: numeric metrics plus string labels.

    Tuples, not dicts, keep the packet hashable and its iteration order
    fixed; both views are sorted by name at construction so downstream
    storage order never depends on sampler insertion order.
    """

    host: str        # stable host identity (hostname once assigned)
    addr: str        # network address the packet left from (the MAC)
    t: float         # simulated send time
    seq: int         # per-agent sequence number
    metrics: tuple[tuple[str, float], ...]
    labels: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        # Cached lookup maps (not fields: excluded from eq/hash/repr).
        # The alert engine probes metrics per rule per host per tick, so
        # lookups must not rescan the tuples.
        object.__setattr__(self, "_metric_map", dict(self.metrics))
        object.__setattr__(self, "_label_map", dict(self.labels))

    def metric(self, name: str, default: float = 0.0) -> float:
        return self._metric_map.get(name, default)

    def has_metric(self, name: str) -> bool:
        return name in self._metric_map

    def label(self, name: str, default: str = "") -> str:
        return self._label_map.get(name, default)


class MetricAgent:
    """gmond: samples one machine and multicasts the readings."""

    def __init__(
        self,
        machine: Machine,
        group: MulticastGroup,
        interval: float = 15.0,
        seed: int = 0,
        extra_sampler: Optional[ExtraSampler] = None,
    ):
        if not interval > 0:  # NaN fails too
            raise ValueError("agent interval must be positive")
        self.machine = machine
        self.group = group
        self.interval = interval
        self.extra_sampler = extra_sampler
        # Seeded per-agent: phase offset and per-tick wobble are unique
        # to this MAC but identical across same-seed runs.
        self.rng = random.Random(("gmond", seed, machine.mac).__repr__())
        self.packets_sent = 0
        self.packets_heard = 0  # delivered to at least one listener
        self._seq = 0
        self._proc = machine.env.process(
            self._loop(), name=f"gmond:{machine.hostid}"
        )

    # -- sampling -----------------------------------------------------------
    def sample(self) -> MetricPacket:
        """Read the machine's current state into a packet (no side effects)."""
        machine = self.machine
        env = machine.env
        metrics: dict[str, float] = {}
        labels: dict[str, str] = {}

        n_cpus = max(machine.spec.cpu.count, 1)
        load = len(machine.user_processes)
        installing = machine.state is MachineState.INSTALLING
        metrics["load"] = load
        # cpu proxy: anaconda pegs a CPU while installing; otherwise the
        # running user processes spread over the cores.
        metrics["cpu"] = 1.0 if installing else min(load / n_cpus, 1.0)
        metrics["packages"] = len(machine.rpmdb)
        metrics["installs"] = machine.install_count
        labels["state"] = machine.state.value
        labels["phase"] = machine.install_phase or ""
        labels["kernel"] = machine.kernel_version or ""

        network = self.group.network
        if network.has_host(machine.mac):
            host = network.host(machine.mac)
            metrics["net.tx_bytes"] = host.tx.bytes_carried
            metrics["net.rx_bytes"] = host.rx.bytes_carried
            metrics["net.tx_util"] = host.tx.utilization()
            metrics["net.rx_util"] = host.rx.utilization()

        progress = machine.install_progress
        if installing and progress is not None:
            metrics["install.done_pkgs"] = progress.done_packages
            metrics["install.total_pkgs"] = progress.total_packages
            metrics["install.done_bytes"] = progress.done_bytes

        if self.extra_sampler is not None:
            extra_metrics, extra_labels = self.extra_sampler(machine)
            metrics.update(extra_metrics)
            labels.update(extra_labels)

        packet = MetricPacket(
            host=machine.hostid,
            addr=machine.mac,
            t=env.now,
            seq=self._seq,
            metrics=tuple(sorted(metrics.items())),
            labels=tuple(sorted(labels.items())),
        )
        self._seq += 1
        return packet

    @property
    def visible(self) -> bool:
        """Whether the agent can currently reach the wire."""
        return self.machine.state in _VISIBLE_STATES

    # -- the daemon loop ----------------------------------------------------
    def _loop(self):
        env = self.machine.env
        # Unsynchronized daemons: each starts at a random phase so 32
        # agents don't all broadcast on the same simulated instant.
        yield env.timeout(self.rng.uniform(0.0, self.interval))
        wobble = 0.05 * self.interval
        while True:
            if self.visible:
                packet = self.sample()
                heard = self.group.send(self.machine.mac, packet)
                self.packets_sent += 1
                if heard:
                    self.packets_heard += 1
            yield env.timeout(
                self.interval + self.rng.uniform(-wobble, wobble)
            )
