"""Engine self-profiler and the one instrumented dispatch loop.

Critical-path analysis (:mod:`repro.telemetry.critpath`) explains
simulated time; this module explains the simulator itself.  An
:class:`EngineProfiler` counts events dispatched, heap pushes and pops,
bulk timeout batches, and fair-share refills, and attributes the
wall-clock time spent inside event callbacks to the *simulation code
site* that consumed it (the process generator a ``Process._resume``
drives, or the function a raw callback points at).

Both observers of the event loop — this profiler and the schedule
sanitizer (:class:`repro.analysis.sanitizer.Sanitizer`) — ride on one
:class:`InstrumentedEnvironment`, each an optional collaborator that is
``None`` when off, so a run can be sanitized and profiled at once.  It
is opt-in and zero-overhead-when-off by a construction-time class swap:
the default ``Environment()`` hot paths
(``_schedule``/``step``/``run``/``timeout_batch``) carry no
instrumentation branch at all — ``bench_scaling_10k.py --quick``'s
overhead guard asserts exactly that.  ``Environment(profile=True)``
profiles one environment; :func:`profiled` reaches the environments
scenarios build internally::

    with profiled() as session:
        result = run_storm(opts)
    print(session.render())

Wall-clock reads are the whole point here, so this module carries the
repo's only sanctioned ``perf_counter`` use (RK201 baseline entry);
profiler output is diagnostic and is never byte-compared in CI.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Optional

from . import engine as _engine
from .engine import Environment, Event, Process, SimulationError, Timeout

__all__ = [
    "EngineProfiler",
    "InstrumentedEnvironment",
    "ProfiledEnvironment",
    "ProfileSession",
    "profiled",
]

_REPO_ROOT = Path(__file__).resolve().parents[3]


def _relpath(filename: str) -> str:
    try:
        return Path(filename).resolve().relative_to(_REPO_ROOT).as_posix()
    except ValueError:
        return filename


def _site_of(cb) -> str:
    """The simulation code a callback spends its wall time in.

    A ``Process._resume`` callback executes the process's *generator*,
    so the generator's code object is the honest attribution target —
    ``installer/anaconda.py:driver``, not ``engine.py:_resume``.
    """
    owner = getattr(cb, "__self__", None)
    if isinstance(owner, Process):
        code = owner.generator.gi_code
        return f"{_relpath(code.co_filename)}:{code.co_name}"
    func = getattr(cb, "__func__", cb)
    code = getattr(func, "__code__", None)
    if code is not None:
        return f"{_relpath(code.co_filename)}:{code.co_name}"
    return type(cb).__name__


class EngineProfiler:
    """Counters accumulated by one profiled environment."""

    def __init__(self, initial_time: float = 0.0):
        self.events_dispatched = 0
        self.heap_pushes = 0
        self.heap_pops = 0
        self.timeout_batches = 0
        self.callback_wall_s = 0.0
        self.sim_t0 = initial_time
        self.sim_t1 = initial_time
        #: site -> [calls, wall seconds]
        self.by_site: dict[str, list] = {}
        self._networks: list = []

    # -- wiring ------------------------------------------------------------
    def note_network(self, network: Any) -> None:
        """Register a FlowNetwork so refill counts land in the report."""
        self._networks.append(network)

    @property
    def fair_share_refills(self) -> int:
        return sum(net.reallocations for net in self._networks)

    @property
    def sim_seconds(self) -> float:
        return self.sim_t1 - self.sim_t0

    # -- reporting ---------------------------------------------------------
    def report(self) -> dict:
        """Everything as plain data (wall figures are non-deterministic)."""
        sites = sorted(
            self.by_site.items(), key=lambda kv: (-kv[1][1], kv[0])
        )
        return {
            "events_dispatched": self.events_dispatched,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "timeout_batches": self.timeout_batches,
            "fair_share_refills": self.fair_share_refills,
            "sim_seconds": self.sim_seconds,
            "callback_wall_s": self.callback_wall_s,
            "sites": [
                {"site": site, "calls": calls, "wall_s": wall}
                for site, (calls, wall) in sites
            ],
        }

    def render(self, top: int = 10) -> str:
        lines = [
            f"engine profile: {self.events_dispatched} events dispatched",
            f"  heap: {self.heap_pushes} pushes, {self.heap_pops} pops, "
            f"{self.timeout_batches} bulk timeout batches",
            f"  fair-share refills: {self.fair_share_refills}",
            f"  simulated {self.sim_seconds:.1f} s in "
            f"{self.callback_wall_s:.3f} s of callback wall time",
        ]
        if self.by_site:
            lines.append("  hottest callback sites (wall seconds):")
            sites = sorted(
                self.by_site.items(), key=lambda kv: (-kv[1][1], kv[0])
            )
            for site, (calls, wall) in sites[:top]:
                lines.append(f"    {wall:9.4f}  {calls:>9} calls  {site}")
            if len(sites) > top:
                lines.append(f"    ({len(sites) - top} more sites)")
        return "\n".join(lines)


class InstrumentedEnvironment(Environment):
    """An :class:`Environment` observed by a sanitizer, a profiler, or both.

    ``sanitizer`` (a :class:`repro.analysis.sanitizer.Sanitizer`) draws
    the seeded ``(perturbation, seq)`` tie-break key of every heap entry
    and logs each dispatch with its scheduling stack; ``profiler`` (an
    :class:`EngineProfiler`) counts heap traffic and times each callback
    by site.  Each is ``None`` when off.  An explicit ``sanitize=`` or
    ``profile=True`` turns one on, and so does the session of an
    enclosing :func:`~repro.analysis.sanitizer.sanitized` or
    :func:`profiled` block, which the environment joins.  Built with
    neither — ``ProfiledEnvironment()`` — it profiles.

    Without a sanitizer the event order, sequence numbers and simulated
    results are those of the base environment.  ``run`` dispatches
    through ``step``, and ``step`` calls every callback from its own
    frame: the sanitizer's stack capture drops this module's frames, and
    ``perfbench/layers.py`` walks up to the ``step`` frame to find the
    callback it is inside.
    """

    __slots__ = ("sanitizer", "profiler")

    def __init__(self, initial_time: float = 0.0, sanitize: Any = None,
                 profile: bool = False):
        super().__init__(initial_time)
        san_session, prof_session = _engine._AMBIENT
        if sanitize is None and san_session is not None:
            sanitize = san_session.options
        self.sanitizer = None
        if sanitize is not None:
            from ..analysis.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(sanitize)
            if san_session is not None:
                san_session.envs.append(self)
        self.profiler = None
        if profile or prof_session is not None or self.sanitizer is None:
            self.profiler = EngineProfiler(initial_time)
            if prof_session is not None:
                prof_session.envs.append(self)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        event._scheduled = True
        if event._cancelled:
            self._n_cancelled += 1
        key = next(self._seq)
        san = self.sanitizer
        if san is not None:
            san.scheduled(event, self._active_process)
            key = san.tiebreak(key)
        if self.profiler is not None:
            self.profiler.heap_pushes += 1
        heapq.heappush(self._queue, (self._now + delay, key, event))

    def timeout_batch(self, delays: Iterable[float],
                      value: Any = None) -> list[Timeout]:
        if self.sanitizer is None:
            out = super().timeout_batch(delays, value)
            pushed = len(out)
        else:
            # The base class pushes raw (due, seq, event) entries, but a
            # sanitized heap needs perturbed keys: create the timeouts one
            # by one (same semantics and sequence-number order), each
            # counted by _schedule.
            out = [Timeout(self, delay, value) for delay in delays]
            pushed = 0
        prof = self.profiler
        if prof is not None:
            prof.heap_pushes += pushed
            prof.timeout_batches += 1
        return out

    # -- dispatch ------------------------------------------------------------
    def step(self) -> None:
        if not self._queue:
            raise SimulationError("no more events to step through")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        san, prof = self.sanitizer, self.profiler
        if san is not None:
            san.dispatched(when, event)
        if prof is not None:
            prof.heap_pops += 1
        if event._cancelled:
            self._n_cancelled -= 1
            event._scheduled = False
            return
        callbacks, event.callbacks = event.callbacks, []
        event._scheduled = False
        self.events_dispatched += 1
        if prof is None:
            for cb in callbacks:
                cb(event)
            return
        prof.events_dispatched += 1
        prof.sim_t1 = when
        perf = time.perf_counter
        by_site = prof.by_site
        for cb in callbacks:
            t0 = perf()
            cb(event)
            dt = perf() - t0
            prof.callback_wall_s += dt
            site = _site_of(cb)
            stat = by_site.get(site)
            if stat is None:
                by_site[site] = [1, dt]
            else:
                stat[0] += 1
                stat[1] += dt

    def run(self, until: Optional[float | Event] = None) -> Any:
        # Same semantics as the base loop, routed through the observing
        # step(); instrumented runs trade raw dispatch speed for
        # visibility.
        step = self.step
        if isinstance(until, Event):
            stop_event = until
            while not stop_event._triggered:
                if stop_event._cancelled:
                    raise SimulationError(
                        "run(until=...) awaits a cancelled event, "
                        "which can never trigger"
                    )
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event triggered"
                    )
                step()
            if stop_event._ok:
                return stop_event._value
            raise stop_event._value
        deadline = float("inf") if until is None else float(until)
        while self._queue and self._queue[0][0] <= deadline:
            step()
        if deadline != float("inf"):
            self._now = max(self._now, deadline)
        return None


#: The profiler's historical name for the class; ``perfbench/layers.py``
#: patches ``step`` and ``run`` through it.
ProfiledEnvironment = InstrumentedEnvironment


class ProfileSession:
    """Collects the profilers of every environment built inside a
    :func:`profiled` block (scenarios usually build exactly one)."""

    def __init__(self):
        self.envs: list[InstrumentedEnvironment] = []

    @property
    def profilers(self) -> list[EngineProfiler]:
        return [env.profiler for env in self.envs]

    def render(self, top: int = 10) -> str:
        if not self.envs:
            return "engine profile: no environments were built"
        return "\n".join(p.render(top=top) for p in self.profilers)


@contextmanager
def profiled():
    """Profile every Environment built inside the block.

    Internally constructed environments (``build_cluster``,
    ``run_storm``) come out instrumented with an :class:`EngineProfiler`,
    and the yielded session holds them.  Nests with
    :func:`repro.analysis.sanitizer.sanitized` in either order: an
    environment built inside both is sanitized *and* profiled, and both
    sessions see it.
    """
    session = ProfileSession()
    with _engine.ambient(profiler=session):
        yield session
