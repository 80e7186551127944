"""shoot-node: remote reinstallation with eKV monitoring (§6.3).

"A compute node reinstalls itself when an administrator invokes
shoot-node, or after a hard power cycle.  Shoot-node is a command-line
tool that, over Ethernet, instructs a compute node to reboot itself into
installation mode.  It monitors the node's progress and pops open an
xterm window which displays the status of the Red Hat Kickstart
installation."

When the node does not answer over Ethernet, the §4 escalation applies:
hard power cycle its PDU outlet (which itself forces the reinstall).

Shooting can *fail* — the node hangs during installation, never comes
back before the deadline, or has no PDU outlet to fall back on.  A
:class:`ShootReport` therefore has a terminal failed state instead of
raising, so campaign supervisors (:mod:`repro.core.tools.campaign`) can
always render a complete per-node account.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from ...cluster import Machine, MachineState, PowerState
from ...netsim import AllOf, AnyOf, Process
from ..frontend import RocksFrontend
from .ekv import EkvConsole

__all__ = ["shoot_node", "shoot_nodes", "ShootReport", "makespan"]


@dataclass
class ShootReport:
    """One node's reinstall as observed by shoot-node."""

    host: str
    method: str  # "ethernet" | "pdu" | "none"
    started_at: float
    finished_at: Optional[float] = None
    ekv: Optional[EkvConsole] = None
    failed: bool = False
    error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def seconds(self) -> float:
        """Reinstall duration; NaN while unfinished (renderable, not raisy)."""
        if self.finished_at is None:
            return math.nan
        return self.finished_at - self.started_at

    @property
    def minutes(self) -> float:
        return self.seconds / 60.0

    @property
    def ok(self) -> bool:
        return self.finished and not self.failed

    def __str__(self) -> str:
        if self.ok:
            return f"{self.host}: up after {self.minutes:.1f} min via {self.method}"
        return f"{self.host}: FAILED via {self.method} ({self.error or 'unknown'})"


def makespan(reports: Sequence[ShootReport]) -> float:
    """Seconds from the first reinstall's start to the last one's finish."""
    if not reports:
        return 0.0
    return max(r.finished_at for r in reports) - min(r.started_at for r in reports)


def shoot_node(
    frontend: RocksFrontend,
    machine: Machine,
    deadline: Optional[float] = None,
    force_pdu: bool = False,
    parent=None,
) -> Process:
    """Reinstall one node; the process yields a :class:`ShootReport`.

    ``deadline`` bounds the wait for the node to come back UP (seconds);
    without one, shoot-node watches forever, as the original tool did.
    ``force_pdu`` skips the Ethernet attempt — the escalation step a
    campaign supervisor takes after a soft reinstall already failed.
    ``parent`` (a tracer span) is stashed on the machine so the install
    it triggers parents on the shooter's span.
    """
    return frontend.env.process(
        _shoot(frontend, machine, deadline, force_pdu, parent),
        name=f"shoot-node:{machine.hostid}",
    )


def shoot_nodes(
    frontend: RocksFrontend,
    machines: list[Machine],
    deadline: Optional[float] = None,
    parent=None,
) -> Process:
    """Reinstall many nodes concurrently; yields a list of reports.

    This is the §6.3 experiment: N simultaneous reinstalls against one
    install server.  Every node gets a report — failed shoots return a
    report in its failed terminal state rather than poisoning the batch.
    """
    env = frontend.env

    def run_all() -> Generator:
        procs = [
            shoot_node(frontend, m, deadline=deadline, parent=parent)
            for m in machines
        ]
        reports = yield AllOf(env, procs)
        return list(reports)

    return env.process(run_all(), name=f"shoot-nodes:x{len(machines)}")


def _shoot(
    frontend: RocksFrontend,
    machine: Machine,
    deadline: Optional[float],
    force_pdu: bool,
    parent=None,
) -> Generator:
    env = frontend.env
    report = ShootReport(
        host=machine.hostid, method="ethernet", started_at=env.now
    )
    # One span per shoot, covering the whole wall-to-wall window (reboot,
    # POST, install, OS boot, the wait for UP) — the per-node unit a
    # critical-path walk attributes as node-boot time.  The install the
    # shoot triggers parents here via machine.trace_parent.
    span = (
        env.tracer.span("shoot", machine.hostid, parent=parent)
        if env.tracer.enabled
        else None
    )
    if env.tracer.enabled:
        machine.trace_parent = span
    try:
        report = yield from _shoot_body(
            frontend, machine, deadline, force_pdu, report, span
        )
        return report
    finally:
        if span is not None:
            span.end(
                outcome="ok" if report.ok else "failed",
                method=report.method,
            )


def _shoot_body(
    frontend: RocksFrontend,
    machine: Machine,
    deadline: Optional[float],
    force_pdu: bool,
    report: ShootReport,
    span,
) -> Generator:
    env = frontend.env
    reachable = (
        not force_pdu
        and machine.state is MachineState.UP
        and frontend.cluster.ethernet_reachable(frontend.machine, machine)
    )
    if reachable:
        # "over Ethernet, instructs a compute node to reboot itself into
        # installation mode"
        machine.request_reinstall()
    else:
        pdu_outlet = frontend.cluster.pdu_for(machine)
        if pdu_outlet is None:
            report.method = "none"
            report.failed = True
            report.error = "unreachable over Ethernet and no PDU outlet wired"
            return report
        pdu, outlet = pdu_outlet
        report.method = "pdu"
        yield from pdu.hard_cycle(outlet)

    # "pops open an xterm window which displays the status" — the eKV view
    report.ekv = EkvConsole(frontend.cluster, machine)
    t_wait = env.now
    up = machine.wait_for_state(MachineState.UP)
    if deadline is None:
        yield up
    else:
        hung = machine.wait_for_state(MachineState.HUNG)
        timer = env.timeout(deadline)
        yield AnyOf(env, (up, hung, timer))
        if not up.triggered:
            report.failed = True
            if hung.triggered:
                report.error = "node hung during reinstallation"
            else:
                report.error = f"not back up after {deadline:.0f}s"
            if env.tracer.enabled:
                # The whole attempt window was spent waiting on a node
                # that never answered: straggler time a critical-path
                # analysis must see as "dead-wait", not silence.
                env.tracer.record_span(
                    "dead-wait", machine.hostid, t_wait, parent=span,
                    method=report.method, error=report.error,
                )
            return report
    report.finished_at = env.now
    return report
