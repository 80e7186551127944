"""Service supervision for the frontend: probe, restart, escalate.

The frontend is the single point of failure the whole Rocks model leans
on (§3, §6.3): if dhcpd or the install httpd stays dead, every pending
node install stalls forever.  :class:`ServiceSupervisor` is the simulated
equivalent of a process supervisor (daemontools / systemd restart
policy): it probes registered services on a fixed interval and restarts
failed ones with exponential backoff plus deterministic jitter.  Each
service has a bounded *restart budget*; exhausting it escalates to a
typed degraded-mode outcome in the :class:`SupervisorReport` — the same
ladder shape as PR 1's reinstall-campaign escalation, applied to
services instead of nodes.

Supervised objects are duck-typed: anything with ``running``,
``faulted``, ``repair()`` and ``start()`` (i.e. :class:`~repro.services.
base.Faultable` services) qualifies, so the supervisor has no dependency
on the frontend layer.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..netsim import Environment, Interrupt, Process

__all__ = [
    "SupervisorPolicy",
    "ServiceSupervisor",
    "SupervisorReport",
    "ServiceOutcome",
    "RestartRecord",
    "supervise_frontend",
]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Probe/restart knobs; the defaults suit the Table I time scale."""

    probe_interval: float = 15.0
    restart_backoff: float = 5.0
    backoff_factor: float = 2.0
    max_backoff: float = 120.0
    #: Fractional jitter on each backoff: delay *= 1 + jitter*U(0,1).
    #: Drawn from a seeded RNG, so runs stay deterministic.
    jitter: float = 0.25
    restart_budget: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if self.restart_backoff <= 0:
            raise ValueError("restart_backoff must be positive")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be at least 1")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.restart_budget < 1:
            raise ValueError("restart_budget must be at least 1")


class ServiceOutcome(enum.Enum):
    """Typed per-service verdict in the supervisor report."""

    HEALTHY = "healthy"        # never needed a restart
    RECOVERED = "recovered"    # restarted at least once, healthy now
    DEGRADED = "degraded"      # restart budget exhausted; left for a human


@dataclass(frozen=True)
class RestartRecord:
    """One restart the supervisor performed."""

    t: float
    service: str
    attempt: int
    backoff: float


@dataclass
class SupervisorReport:
    """What the supervisor did over its lifetime."""

    probes: int = 0
    restarts: list[RestartRecord] = field(default_factory=list)
    outcomes: dict[str, ServiceOutcome] = field(default_factory=dict)

    @property
    def degraded(self) -> list[str]:
        return sorted(
            name
            for name, outcome in self.outcomes.items()
            if outcome is ServiceOutcome.DEGRADED
        )

    def render(self) -> str:
        lines = [f"supervisor: {self.probes} probes, {len(self.restarts)} restarts"]
        for name in sorted(self.outcomes):
            lines.append(f"  {name:<16} {self.outcomes[name].value}")
        for rec in self.restarts:
            lines.append(
                f"  t={rec.t:8.1f}s restarted {rec.service} "
                f"(attempt {rec.attempt}, backoff {rec.backoff:.1f}s)"
            )
        return "\n".join(lines)


class _Entry:
    """Supervision state for one registered service."""

    __slots__ = ("name", "service", "on_restart", "failures", "degraded", "pending")

    def __init__(self, name: str, service: Any, on_restart):
        self.name = name
        self.service = service
        self.on_restart = on_restart
        self.failures = 0      # consecutive failed probes answered by restarts
        self.degraded = False  # budget exhausted; hands off
        self.pending = False   # a restart process is in flight


class ServiceSupervisor:
    """Probes registered services and restarts the dead ones."""

    def __init__(self, env: Environment, policy: Optional[SupervisorPolicy] = None):
        self.env = env
        self.policy = policy or SupervisorPolicy()
        self._entries: dict[str, _Entry] = {}
        self._rng = random.Random(self.policy.seed)
        self._loop: Optional[Process] = None
        self._report = SupervisorReport()

    @property
    def running(self) -> bool:
        return self._loop is not None and self._loop.is_alive

    def register(
        self,
        name: str,
        service: Any,
        on_restart: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Watch ``service``; ``on_restart`` runs before each revival.

        The hook is where recovery work that must precede the daemon
        coming back lives — e.g. replaying the database journal so dhcpd
        restarts with correct bindings.
        """
        if name in self._entries:
            raise ValueError(f"service {name!r} already supervised")
        self._entries[name] = _Entry(name, service, on_restart)

    def start(self) -> None:
        if self.running:
            return
        self._loop = self.env.process(self._probe_loop(), name="supervisor")

    def stop(self) -> None:
        if self.running:
            self._loop.interrupt("supervisor stopped")
        self._loop = None

    # -- probe loop --------------------------------------------------------
    def _probe_loop(self):
        tracer = self.env.tracer
        try:
            while True:
                yield self.env.timeout(self.policy.probe_interval)
                self._report.probes += 1
                if tracer.enabled:
                    tracer.metrics.inc("supervisor.probes")
                for entry in self._entries.values():
                    self._probe(entry)
        except Interrupt:
            return

    def _probe(self, entry: _Entry) -> None:
        if entry.service.running:
            entry.failures = 0
            return
        if entry.degraded or entry.pending:
            return
        if entry.failures >= self.policy.restart_budget:
            entry.degraded = True
            tracer = self.env.tracer
            if tracer.enabled:
                tracer.event(
                    "supervisor-degraded",
                    entry.name,
                    restarts=entry.failures,
                )
            return
        entry.pending = True
        self.env.process(
            self._restart(entry), name=f"supervisor-restart {entry.name}"
        )

    def _restart(self, entry: _Entry):
        pol = self.policy
        tracer = self.env.tracer
        backoff = min(
            pol.restart_backoff * pol.backoff_factor**entry.failures,
            pol.max_backoff,
        )
        backoff *= 1.0 + pol.jitter * self._rng.random()
        # The restart is a span (not an event) so the service lifecycle
        # events it causes — repair/start below — parent on it, and a
        # critical-path walk sees the backoff as supervisor-owned time.
        span = (
            tracer.span("supervisor-restart", entry.name, backoff=backoff)
            if tracer.enabled
            else None
        )
        try:
            yield self.env.timeout(backoff)
        except Interrupt:
            entry.pending = False
            if span is not None:
                span.end(outcome="interrupted")
            return
        entry.pending = False
        service = entry.service
        if service.running:
            if span is not None:
                span.end(outcome="healed")
            return  # healed while we backed off (e.g. a timed fault expired)
        entry.failures += 1
        attempt = entry.failures
        # Synchronous region: ambient context is safe (no yields), and it
        # makes the service's own fail/repair/start events children of
        # this restart without the service layer knowing about us.
        with tracer.context(span):
            if entry.on_restart is not None:
                entry.on_restart(service)
            if service.faulted:
                service.repair()
            else:
                service.start()
        record = RestartRecord(self.env.now, entry.name, attempt, backoff)
        self._report.restarts.append(record)
        if span is not None:
            span.end(outcome="restarted", attempt=attempt)
            tracer.metrics.inc("supervisor.restarts")
            tracer.metrics.inc(f"supervisor.restarts/{entry.name}")

    # -- reporting ---------------------------------------------------------
    def report(self) -> SupervisorReport:
        for name, entry in self._entries.items():
            if entry.degraded:
                outcome = ServiceOutcome.DEGRADED
            elif any(r.service == name for r in self._report.restarts):
                outcome = ServiceOutcome.RECOVERED
            else:
                outcome = ServiceOutcome.HEALTHY
            self._report.outcomes[name] = outcome
        return self._report


def supervise_frontend(frontend, policy=None) -> ServiceSupervisor:
    """Wire a supervisor over a frontend's critical services.

    Registers dhcpd, the install httpd and nfsd with a shared
    pre-restart hook: if the frontend's database was lost in a crash and
    a journal is attached, the first service revival replays it — so
    dhcpd comes back with correct bindings instead of an empty host
    table.
    """

    def recover_first(_service) -> None:
        if frontend.db_lost and frontend.journal is not None:
            frontend.recover_database()

    supervisor = ServiceSupervisor(frontend.env, policy)
    supervisor.register("dhcpd", frontend.dhcp, on_restart=recover_first)
    supervisor.register("httpd", frontend.install_server, on_restart=recover_first)
    supervisor.register("nfs", frontend.nfs, on_restart=recover_first)
    supervisor.start()
    return supervisor
