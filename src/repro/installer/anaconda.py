"""The simulated Red Hat installer (anaconda) driven by a kickstart.

This is the process a node runs while in the ``INSTALLING`` state:

1. bring up Ethernet and DHCP (retrying until the cluster database knows
   the node — which is exactly the window insert-ethers uses to adopt
   new hardware);
2. fetch the dynamically generated kickstart file over HTTP (§6.1);
3. autodetect hardware, partition disks (non-root preserved);
4. pull each RPM over HTTP and install it — the per-package
   *download-then-unpack* interleaving is what makes install traffic
   bursty (~14 % wire duty cycle) and lets a single 100 Mbit server
   feed many concurrent reinstalls (Table I); every fetch is guarded by
   a timeout and bounded exponential-backoff retries, and payloads are
   checksum-verified (corrupt packages are re-fetched), so transient
   server crashes, link flaps, and bad payloads delay rather than kill
   an installation;
5. run %post scripts, including the Myrinet GM source rebuild on nodes
   with Myrinet hardware (20-30 % time penalty, §6.3);
6. hand back to the lifecycle, which reboots into the fresh OS.

Every line of progress goes to the machine console, where eKV makes it
remotely visible (Figure 7).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from ..cluster.node import Machine
from ..kernel import MyrinetDriver
from ..netsim import (
    AnyOf,
    Environment,
    HostDown,
    HttpError,
    Interrupt,
    Process,
    TransferAborted,
)
from ..rpm import BuildError
from ..services import DhcpLease, DhcpServer, ServiceError
from .hwdetect import probe
from .partition import apply_plan
from .phases import DEFAULT_CALIBRATION, InstallCalibration
from .profile import InstallProfile
from .screen import InstallProgress

__all__ = [
    "KickstartInstaller",
    "InstallError",
    "InstallReport",
    "InstallSource",
    "fetch_with_retry",
]


class InstallError(Exception):
    """Anaconda gave up: the failure verdict a hung installation reports.

    Raising this (rather than looping forever) is what turns a dead
    dhcpd or an unreachable install server into a diagnosable HUNG node
    that shoot-node's §4 escalation can recover.
    """


#: Retriable transport failures: the server crashed (5xx), the transfer
#: was reset (flow cancelled), or an endpoint link is down.
RETRIABLE_ERRORS = (HttpError, TransferAborted, ServiceError, HostDown)


def fetch_with_retry(
    env: Environment,
    make_fetch: Callable[[], Process],
    cal: InstallCalibration,
    what: str,
    say: Callable[[str], None] = lambda line: None,
    expect_checksum: str = "",
    stats: Optional[dict] = None,
    parent=None,
):
    """Fetch with a timeout, bounded retries, and checksum verification.

    ``make_fetch`` builds a fresh fetch process per attempt — against a
    load-balanced source each retry naturally re-selects a live server.
    A response whose checksum disagrees with ``expect_checksum`` counts
    as a failed attempt and is re-fetched.  ``stats`` (if given) gets
    ``retries``/``corrupt`` counters incremented.  Raises
    :class:`InstallError` once ``cal.download_max_attempts`` is spent.

    ``parent`` (a tracer span) parents the retry telemetry: each
    backoff sleep becomes a ``retry-wait`` span, so a critical-path
    analysis can attribute time lost to retry chains.
    """
    attempt = 0
    while True:
        attempt += 1
        fetch = make_fetch()
        deadline = env.timeout(cal.download_timeout_seconds)
        failure = None
        retry_hint = None  # Retry-After from an admission-control 503
        try:
            yield AnyOf(env, (fetch, deadline))
        except Interrupt:
            # The machine died under us: tear down the in-flight fetch.
            if fetch.is_alive:
                fetch.interrupt("installation aborted")
            raise
        except RETRIABLE_ERRORS as err:
            failure = str(err)
            retry_hint = getattr(err, "retry_after", None)
        else:
            if not fetch.triggered:
                fetch.interrupt("download timeout")
                failure = f"no data for {cal.download_timeout_seconds:.0f}s"
                if env.tracer.enabled:
                    env.tracer.event(
                        "download-timeout", what, parent=parent,
                        attempt=attempt,
                        timeout=cal.download_timeout_seconds,
                    )
            elif not fetch.ok:
                failure = str(fetch.value)
                retry_hint = getattr(fetch.value, "retry_after", None)
            else:
                resp = fetch.value
                got = getattr(resp, "checksum", "")
                if expect_checksum and got and got != expect_checksum:
                    failure = f"checksum mismatch ({got})"
                    if stats is not None:
                        stats["corrupt"] = stats.get("corrupt", 0) + 1
                else:
                    return resp
        if attempt >= cal.download_max_attempts:
            if env.tracer.enabled:
                env.tracer.event(
                    "download-failed", what, parent=parent,
                    attempts=attempt, failure=failure,
                )
            raise InstallError(
                f"{what}: giving up after {attempt} attempts ({failure})"
            )
        if stats is not None:
            stats["retries"] = stats.get("retries", 0) + 1
        if env.tracer.enabled:
            env.tracer.event(
                "download-retry", what, parent=parent,
                attempt=attempt, failure=failure,
            )
            env.tracer.metrics.inc("install.download_retries")
        backoff = cal.download_backoff(attempt)
        if retry_hint is not None and retry_hint > backoff:
            # A 503's Retry-After hint overrides a shorter backoff: the
            # server told us when capacity frees up — hammering it
            # sooner just earns another rejection.
            backoff = retry_hint
            if env.tracer.enabled:
                env.tracer.metrics.inc("install.retry_after_honored")
        say(f"{what}: {failure}; retrying in {backoff:.0f}s")
        if env.tracer.enabled:
            # The backoff sleep is dead time on the install's critical
            # path — trace it so `repro explain` can name it.
            with env.tracer.span("retry-wait", what, parent=parent,
                                 attempt=attempt, backoff=backoff):
                yield env.timeout(backoff)
        else:
            yield env.timeout(backoff)


class InstallSource:
    """Protocol the installer pulls from (an InstallServer or InstallReplicaSet).

    Must provide ``fetch_kickstart(client, parent=None) -> Process``
    whose response body is an :class:`InstallProfile`, and
    ``fetch_package(client, dist, pkg, max_rate, parent=None) ->
    Process``: the HTTP request itself, its response carrying the
    checksum of the payload received.  ``parent`` threads trace context
    into the HTTP layer.
    """


@dataclass
class InstallReport:
    """Timings and counters for one completed installation."""

    host: str
    started_at: float
    finished_at: float = 0.0
    ip: Optional[str] = None
    n_packages: int = 0
    bytes_transferred: float = 0.0
    myrinet_rebuilt: bool = False
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: download attempts beyond the first (timeouts, 5xx, resets)
    download_retries: int = 0
    #: packages re-fetched because their payload checksum was wrong
    corrupt_refetches: int = 0

    @property
    def total_seconds(self) -> float:
        return self.finished_at - self.started_at


class KickstartInstaller:
    """Builds install-driver processes for machines (Machine.install_driver)."""

    def __init__(
        self,
        dhcp: DhcpServer,
        source,
        calibration: InstallCalibration = DEFAULT_CALIBRATION,
        myrinet: MyrinetDriver = MyrinetDriver(),
        on_progress: Optional[Callable[[Machine, str], None]] = None,
    ):
        self.dhcp = dhcp
        self.source = source
        self.cal = calibration
        self.myrinet = myrinet
        self.on_progress = on_progress
        self.reports: list[InstallReport] = []

    def attach(self, machine: Machine) -> None:
        """Wire this installer in as the machine's install driver."""
        machine.install_driver = self.driver

    # -- the install process ----------------------------------------------------
    def driver(self, machine: Machine) -> Generator:
        env = machine.env
        cal = self.cal
        tracer = env.tracer
        report = InstallReport(host=machine.hostid, started_at=env.now)
        stats: dict = {}

        def say(line: str) -> None:
            machine.console_write(line)
            if self.on_progress is not None:
                self.on_progress(machine, line)

        phase_span = None

        def enter(phase: str) -> float:
            # Advertised on the machine so monitoring agents (and eKV)
            # can report which phase an installation is sitting in.  The
            # phase opens as a live span under the install span, so the
            # HTTP fetches it issues can nest inside it.
            nonlocal phase_span
            machine.install_phase = phase
            if tracer.enabled:
                phase_span = tracer.span(
                    "install-phase", phase, parent=span, host=machine.hostid
                )
            return env.now

        def mark(phase: str, t0: float) -> None:
            nonlocal phase_span
            report.phase_seconds[phase] = (
                report.phase_seconds.get(phase, 0.0) + env.now - t0
            )
            if phase_span is not None:
                phase_span.end()
                phase_span = None

        # The install span parents on whatever caused this installation
        # (a campaign's per-node span, an exec fanout, a storm) — the
        # shooter stashes its span on the machine before power-cycling.
        span = (
            tracer.span("install", machine.hostid,
                        parent=machine.trace_parent)
            if tracer.enabled
            else None
        )
        if tracer.enabled:
            tracer.metrics.adjust("installs.concurrent", 1)
        outcome = "failed"
        try:
            say("Red Hat Linux (C) 2000 Red Hat, Inc. -- Install System")
            # -- phase: DHCP -----------------------------------------------------
            t0 = enter("dhcp")
            lease = yield from self._dhcp_loop(machine, say)
            machine.ip = lease.ip
            report.ip = lease.ip
            mark("dhcp", t0)

            # -- phase: kickstart fetch ------------------------------------------
            t0 = enter("kickstart")
            resp = yield from fetch_with_retry(
                env,
                lambda: self.source.fetch_kickstart(
                    machine.mac, parent=phase_span
                ),
                cal,
                "kickstart",
                say,
                stats=stats,
                parent=phase_span,
            )
            profile: InstallProfile = resp.body
            if not isinstance(profile, InstallProfile):
                raise TypeError(
                    f"kickstart CGI returned {type(profile).__name__}, "
                    "expected InstallProfile"
                )
            say(f"retrieved kickstart ({profile.appliance}, {profile.n_packages} packages)")
            mark("kickstart", t0)

            # -- phase: hardware detection + partitioning ----------------------------
            t0 = enter("partition")
            hw = probe(machine.spec)
            yield env.timeout(cal.hwdetect_seconds)
            say(f"loaded modules: {', '.join(hw.modules)}")
            formatted = apply_plan(machine, profile.partitions)
            yield env.timeout(cal.format_seconds)
            say(f"formatted {', '.join(formatted)} on {hw.disk_device}")
            mark("partition", t0)

            # -- phase: package installation ---------------------------------------
            t0 = enter("packages")
            machine.rpmdb.wipe()
            total = profile.n_packages
            total_bytes = profile.total_bytes
            done_bytes = 0.0
            progress = InstallProgress(
                total_packages=total,
                total_bytes=total_bytes,
                started_at=env.now,
                now=env.now,
            )
            machine.install_progress = progress
            for i, pkg in enumerate(profile.packages):
                progress.current_name = pkg.nvr
                progress.current_size = pkg.size
                progress.current_summary = pkg.summary
                progress.now = env.now
                yield from fetch_with_retry(
                    env,
                    lambda pkg=pkg: self.source.fetch_package(
                        machine.mac,
                        profile.dist_name,
                        pkg,
                        max_rate=cal.single_stream_rate,
                        parent=phase_span,
                    ),
                    cal,
                    pkg.nvr,
                    say,
                    expect_checksum=pkg.checksum,
                    stats=stats,
                    parent=phase_span,
                )
                yield env.timeout(
                    cal.cpu_install_seconds(pkg.size, hw.relative_cpu_speed)
                )
                machine.rpmdb.install(pkg, nodeps=True)
                done_bytes += pkg.size
                progress.done_packages = i + 1
                progress.done_bytes = done_bytes
                progress.now = env.now
                if i % 20 == 0 or i == total - 1:
                    say(
                        f"Package Installation: {pkg.nvr} "
                        f"[{i + 1}/{total}] "
                        f"{done_bytes / 1e6:.0f}M/{total_bytes / 1e6:.0f}M"
                    )
            report.n_packages = total
            report.bytes_transferred = done_bytes
            kernel = machine.rpmdb.query("kernel")
            if kernel is not None:
                machine.kernel_version = f"{kernel.version}-{kernel.release}"
            mark("packages", t0)

            # -- phase: post configuration ------------------------------------------
            t0 = enter("post")
            for script in profile.post_scripts:
                yield env.timeout(script.seconds / hw.relative_cpu_speed)
                if script.action is not None:
                    script.action(machine)
                say(f"%post: {script.name}")
            yield env.timeout(cal.post_config_seconds / hw.relative_cpu_speed)
            mark("post", t0)

            # -- phase: Myrinet driver rebuild (first-boot, counted in total) ---------
            if hw.needs_myrinet_rebuild:
                t0 = enter("myrinet")
                yield env.timeout(self.myrinet.build_seconds(hw.relative_cpu_speed))
                _pkg, module = self.myrinet.rebuild(
                    machine.kernel_version or "2.4.9-5",
                    available=list(machine.rpmdb),
                )
                machine.loaded_modules.append(module.name)
                report.myrinet_rebuilt = True
                say(f"rebuilt and loaded {module}")
                mark("myrinet", t0)

            report.finished_at = env.now
            report.download_retries = stats.get("retries", 0)
            report.corrupt_refetches = stats.get("corrupt", 0)
            self.reports.append(report)
            say(
                f"installation complete: {report.total_seconds:.0f}s, "
                f"{report.n_packages} packages, {report.bytes_transferred / 1e6:.0f} MB"
            )
            outcome = "ok"
            return report
        except Interrupt:
            # Machine died under us; fetch_with_retry has already torn
            # down any in-flight HTTP transfer on its way out.
            outcome = "aborted"
            say("installation aborted")
            raise
        finally:
            machine.install_phase = None
            if tracer.enabled:
                tracer.metrics.adjust("installs.concurrent", -1)
            if phase_span is not None:
                # The installation died mid-phase: close the phase span
                # with the install's verdict instead of leaking it open.
                phase_span.end(outcome=outcome)
                phase_span = None
            if span is not None:
                span.end(
                    outcome=outcome,
                    packages=report.n_packages,
                    retries=stats.get("retries", 0),
                )

    def _dhcp_loop(self, machine: Machine, say) -> Generator:
        """DISCOVER until the database knows us (insert-ethers window).

        Bounded by ``dhcp_max_attempts``: a dhcpd that never answers
        produces an installer-failure verdict (the node goes HUNG with a
        diagnosis) instead of an install that spins forever.
        """
        env = machine.env
        if self.cal.dhcp_stagger_seconds > 0:
            # Per-MAC seeded stagger, drawn from a dedicated RNG so the
            # machine's own stream (POST jitter) is untouched: nodes
            # restored in the same instant desynchronize deterministically.
            stagger_rng = random.Random(("dhcp-stagger", machine.mac).__repr__())
            yield env.timeout(
                stagger_rng.uniform(0.0, self.cal.dhcp_stagger_seconds)
            )
        attempt = 0
        while True:
            yield env.timeout(self.cal.dhcp_seconds)
            attempt += 1
            try:
                lease: Optional[DhcpLease] = self.dhcp.discover(machine.mac)
            except ServiceError:
                lease = None
            if lease is not None:
                say(f"eth0: bound to {lease.ip} ({lease.hostname})")
                return lease
            if attempt == 1:
                say("eth0: DHCPDISCOVER — waiting to be inserted into the database")
            if self.cal.dhcp_max_attempts and attempt >= self.cal.dhcp_max_attempts:
                raise InstallError(
                    f"DHCP: no answer after {attempt} attempts; "
                    "is dhcpd running and this MAC in the database?"
                )
            # Staggered nodes retry at distinct instants (own slot each);
            # unstaggered nodes collapse into one shared retry timer.
            yield env.slotted_timeout(self.cal.dhcp_retry_seconds)
