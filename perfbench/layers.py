"""Per-layer wall-time accounting for a traced benchmark run.

The benchmark never edits the program to trace it.  Instead a
:class:`LayerTracer` wraps the public entry points of each layer at
class (or module) level for the duration of one run, and records a span
per call: entry name, start, end and parent span.  Generator entry
points are timed per resume, so a process that sleeps in simulated
time is charged only for the host time it actually runs.

A layer's self time is the time its spans cover minus the part their
child spans cover.  Code that runs inside engine callbacks without
crossing a wrapped entry point (the flow network's completion-side
refills, process generators such as the monitoring agents' loops) has
no span; for it the engine's own self-profiler
(:func:`repro.netsim.profiler.profiled`) gives the wall time per
callback site, and the benchmark charges each site's time, minus the
spans recorded inside that site, to the layer that owns the site's
code.  The dispatch loop's own time is the ``engine`` layer.  ``other``
is measured on its own: the time no span covers (top-level code between
engine runs), timed from the gaps between outermost spans, plus the
callback time of sites in modules with no layer of their own.  The
layers plus ``other`` then add up to the traced wall time only if no
span's time was counted twice or dropped, and a negative layer would
also mean a double count.

The host-speed probe (``hostspeed.py``) samples during a traced run too;
its samples, a few percent of the time, stay in whichever span or gap
they interrupt.

Spans are kept in memory and written out as JSON lines when the run
ends; the export keeps the first ``MAX_EXPORT`` spans (every span still
feeds the counts and self times) so a long storm cannot exhaust memory.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "LayerTracer", "layer_of_site"]

#: Named layers in report order; every span and callback site maps to
#: exactly one of them or to ``other``.
LAYERS = (
    "engine", "flows", "telemetry", "http", "installer", "kickstart", "db",
    "rpm", "monitoring", "resilience", "exec", "rexec", "cluster",
)

#: Source-path prefixes (relative to the checkout) of each layer's code,
#: used to charge callback-site time that no span covers.  Longest
#: prefix wins; the benchmark's own generator wrappers count as engine
#: time, because what they add around a resume is the engine resuming a
#: process.
_SITE_PREFIXES = (
    ("src/repro/netsim/engine.py", "engine"),
    ("src/repro/netsim/profiler.py", "engine"),
    ("src/repro/netsim/flows.py", "flows"),
    ("src/repro/netsim/http.py", "http"),
    ("src/repro/telemetry/", "telemetry"),
    ("src/repro/installer/", "installer"),
    ("src/repro/core/kickstart/", "kickstart"),
    ("src/repro/core/database/", "db"),
    ("src/repro/rpm/", "rpm"),
    ("src/repro/monitoring/", "monitoring"),
    ("src/repro/resilience/", "resilience"),
    ("src/repro/exec/", "exec"),
    ("src/repro/scheduler/rexec.py", "rexec"),
    ("src/repro/cluster/", "cluster"),
    ("perfbench/", "engine"),
)


def layer_of_site(site: str) -> str:
    """The layer owning a profiler callback site (``path:function``)."""
    path = site.rsplit(":", 1)[0]
    best, best_len = "other", -1
    for prefix, layer in _SITE_PREFIXES:
        if path.startswith(prefix) and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


class _Entry:
    """One wrapped entry point: its counters and accumulated times."""

    __slots__ = ("name", "layer", "calls", "outer_calls", "spans", "total_s",
                 "self_s", "exported")

    def __init__(self, name: str, layer: str, exported: bool = True):
        self.name = name
        self.layer = layer
        self.exported = exported
        self.calls = 0     # calls (generator entry points: generators made)
        self.outer_calls = 0  # spans entered from outside the layer
        self.spans = 0     # spans (generator entry points: resumes)
        self.total_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Wraps layer entry points, records spans, splits wall time by layer.

    Use as a context manager around the whole traced run, inside a
    :func:`repro.netsim.profiler.profiled` session::

        tracer = LayerTracer(root)
        with profiled() as session, tracer:
            ...
        split = tracer.layer_split(session)
    """

    #: Spans kept for the export; later spans still count and time.
    MAX_EXPORT = 50_000

    def __init__(self, root: Path):
        self.root = Path(root).resolve()
        self.entries: dict[str, _Entry] = {}
        self.counts: dict[str, int] = {
            "installer.fetch_attempts": 0,
            "resilience.breaker_trips": 0,
        }
        #: HttpServer instances that served requests (for shed counters)
        self.http_servers: dict[int, Any] = {}
        #: processes returned by ExecTask.run (their values are reports)
        self.exec_runs: list = []
        self.export: list[tuple] = []
        self.dropped = 0
        self.t_start = 0.0
        self.t_end = 0.0
        #: host seconds no span covers, and when the last outermost span
        #: ended (or the run started)
        self.outside_s = 0.0
        self._idle_from = 0.0
        self._stack: list[list] = []
        self._next_id = 1
        self._site_child: dict[Any, float] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._step_entry: Optional[_Entry] = None
        self._step_code = None
        self._resume_code = None

    # -- span bookkeeping --------------------------------------------------
    def _entry(self, name: str, layer: str, exported: bool = True) -> _Entry:
        entry = self.entries.get(name)
        if entry is None:
            entry = self.entries[name] = _Entry(name, layer, exported)
        return entry

    def _enter(self, entry: _Entry) -> None:
        stack = self._stack
        t0 = time.perf_counter()
        if not stack:
            self.outside_s += t0 - self._idle_from
        parent = stack[-1] if stack else None
        site = None
        if parent is not None and parent[0] is self._step_entry:
            site = self._callback_code()
        if entry.exported:
            span_id = self._next_id
            self._next_id += 1
        else:
            # Aggregate-only spans (engine steps) lend their children the
            # nearest exported ancestor as parent.
            span_id = parent[3] if parent is not None else 0
        parent_id = parent[3] if parent is not None else 0
        if parent is None or parent[0].layer != entry.layer:
            entry.outer_calls += 1
        stack.append([entry, t0, 0.0, span_id, parent_id, site])

    def _exit(self) -> None:
        t1 = time.perf_counter()
        entry, t0, child_s, span_id, parent_id, site = self._stack.pop()
        duration = t1 - t0
        entry.spans += 1
        entry.total_s += duration
        entry.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self._idle_from = t1
        if site is not None:
            self._site_child[site] = self._site_child.get(site, 0.0) + duration
        if entry.exported:
            if len(self.export) < self.MAX_EXPORT:
                self.export.append((span_id, parent_id, entry.name, t0, t1))
            else:
                self.dropped += 1

    def _callback_code(self):
        """Code object of the engine callback the caller runs inside.

        Walks up to the profiled ``step`` frame; the frame it called is
        the callback.  For a process resume the profiler names the
        process's generator, which is the frame ``_resume`` called.
        """
        frame = sys._getframe(2)  # the wrapper's own frame
        prev = prev2 = None
        step_code = self._step_code
        while frame is not None and frame.f_code is not step_code:
            prev2, prev = prev, frame
            frame = frame.f_back
        if frame is None or prev is None:
            return None
        if prev.f_code is self._resume_code and prev2 is not None:
            return prev2.f_code
        return prev.f_code

    # -- wrappers ----------------------------------------------------------
    def _sync(self, entry: _Entry, fn: Callable,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            entry.calls += 1
            token = before(args) if before is not None else None
            enter(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    def _gen(self, entry: _Entry, fn: Callable,
             adapt: Optional[Callable] = None) -> Callable:
        enter, exit_ = self._enter, self._exit

        def gen_wrapper(*args, **kwargs):
            entry.calls += 1
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            inner = fn(*args, **kwargs)
            value, error = None, None
            while True:
                enter(entry)
                try:
                    if error is None:
                        out = inner.send(value)
                    else:
                        out = inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    exit_()
                value, error = None, None
                try:
                    value = yield out
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as err:  # forwarded into the layer
                    error = err

        return gen_wrapper

    @staticmethod
    def _counted(entry: _Entry, fn: Callable) -> Callable:
        def counter(*args, **kwargs):
            entry.calls += 1
            return fn(*args, **kwargs)

        return counter

    def _patch(self, owner: Any, attr: str, name: str, layer: str,
               count_only: bool = False, exported: bool = True,
               **hooks: Any) -> None:
        original = owner.__dict__[attr]
        entry = self._entry(name, layer, exported)
        if count_only:
            wrapped = self._counted(entry, original)
        elif inspect.isgeneratorfunction(original):
            wrapped = self._gen(entry, original, **hooks)
        else:
            wrapped = self._sync(entry, original, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # -- the layer map -----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points (undone by :meth:`uninstall`)."""
        from repro.cluster import Machine
        from repro.core.database.clusterdb import ClusterDatabase
        from repro.core.kickstart.cgi import KickstartCgi
        from repro.core.kickstart.generator import KickstartGenerator
        from repro.exec.task import ExecTask
        from repro.installer import anaconda
        from repro.monitoring.agent import MetricAgent
        from repro.netsim.engine import Process
        from repro.netsim.flows import FlowNetwork, Link
        from repro.netsim.http import HttpServer
        from repro.netsim import profiler as profiler_module
        from repro.netsim.profiler import ProfiledEnvironment
        from repro.resilience.breaker import (
            BreakerState,
            CircuitBreaker,
            GuardedSource,
        )
        from repro.rpm.rpmdb import RpmDatabase
        from repro.scheduler.rexec import Rexec
        from repro.services.httpd import InstallReplicaSet
        from repro.telemetry.metrics import Metrics
        from repro.telemetry.tracer import Span, Tracer

        # The profiler resolves each callback's source path on every
        # dispatch, a filesystem call that would dwarf the dispatch it
        # measures; memoize it for the run (paths do not move mid-run).
        relpath = profiler_module.__dict__["_relpath"]
        self._patches.append((profiler_module, "_relpath", relpath))
        profiler_module._relpath = functools.lru_cache(maxsize=None)(relpath)

        self._step_code = ProfiledEnvironment.__dict__["step"].__code__
        self._resume_code = Process.__dict__["_resume"].__code__
        patch = self._patch

        patch(ProfiledEnvironment, "run", "engine.run", "engine",
              exported=False)
        patch(ProfiledEnvironment, "step", "engine.step", "engine",
              exported=False)
        self._step_entry = self.entries["engine.step"]

        patch(FlowNetwork, "transfer", "flows.transfer", "flows")
        patch(FlowNetwork, "recompute", "flows.recompute", "flows")
        # Counted, not spanned: a storm samples link utilization about
        # two million times, and a span per sample would turn the traced
        # storm into mostly tracing overhead.  Its time stays with the
        # caller (the flows gauge or a monitoring agent's sample).
        patch(Link, "utilization", "flows.utilization", "flows",
              count_only=True)

        for attr in ("event", "span", "record_span"):
            patch(Tracer, attr, f"telemetry.tracer.{attr}", "telemetry")
        patch(Span, "end", "telemetry.span.end", "telemetry")
        for attr in ("inc", "gauge", "adjust"):
            patch(Metrics, attr, f"telemetry.metrics.{attr}", "telemetry")

        servers = self.http_servers
        patch(HttpServer, "get", "http.get", "http",
              before=lambda args: servers.setdefault(id(args[0]), args[0]))

        patch(anaconda.KickstartInstaller, "driver", "installer.driver",
              "installer")
        counts = self.counts

        def count_attempts(args, kwargs):
            # fetch_with_retry(env, make_fetch, ...): one make_fetch call
            # per attempt, so attempts - calls = retries.
            args = list(args)
            make_fetch = args[1]

            def counted():
                counts["installer.fetch_attempts"] += 1
                return make_fetch()

            args[1] = counted
            return tuple(args), kwargs

        patch(anaconda, "fetch_with_retry", "installer.fetch_with_retry",
              "installer", adapt=count_attempts)

        patch(KickstartCgi, "__call__", "kickstart.cgi", "kickstart")
        patch(KickstartGenerator, "profile", "kickstart.profile", "kickstart")
        patch(KickstartGenerator, "profile_for_row",
              "kickstart.profile_for_row", "kickstart")

        for attr in ("query", "get_global", "membership_id", "memberships",
                     "appliance_for_membership", "nodes", "compute_nodes",
                     "node_by_name", "node_by_mac", "node_by_ip", "has_mac",
                     "next_rank", "next_free_ip", "snapshot"):
            patch(ClusterDatabase, attr, f"db.read.{attr}", "db")
        for attr in ("execute", "set_global", "add_node", "remove_node",
                     "set_os_dist", "lose_state", "restore_from_dump"):
            patch(ClusterDatabase, attr, f"db.write.{attr}", "db")

        for attr in ("install", "erase", "upgrade"):
            patch(RpmDatabase, attr, f"rpm.{attr}", "rpm")

        patch(MetricAgent, "sample", "monitoring.sample", "monitoring")

        patch(CircuitBreaker, "allow", "resilience.breaker.allow",
              "resilience")
        patch(CircuitBreaker, "record_success",
              "resilience.breaker.record_success", "resilience")

        def trip_before(args):
            return args[0].state

        def trip_after(args, _result, state_before):
            if (args[0].state is BreakerState.OPEN
                    and state_before is not BreakerState.OPEN):
                counts["resilience.breaker_trips"] += 1

        patch(CircuitBreaker, "record_failure",
              "resilience.breaker.record_failure", "resilience",
              before=trip_before, after=trip_after)
        for attr in ("fetch_kickstart", "fetch_package"):
            patch(GuardedSource, attr, f"resilience.guarded.{attr}",
                  "resilience")
        patch(InstallReplicaSet, "add_replica", "resilience.add_replica",
              "resilience")
        patch(InstallReplicaSet, "drain_replica", "resilience.drain_replica",
              "resilience")

        for attr in ("__init__", "power_on", "power_off", "reboot",
                     "request_reinstall", "console_write", "wait_for_state",
                     "cancel_wait"):
            patch(Machine, attr, f"cluster.machine.{attr}", "cluster")

        runs = self.exec_runs
        patch(ExecTask, "run", "exec.run", "exec",
              after=lambda _args, proc, _token: runs.append(proc))
        patch(Rexec, "spawn", "rexec.spawn", "rexec")
        patch(Rexec, "run", "rexec.run", "rexec")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        self.t_start = self._idle_from = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.t_end = time.perf_counter()
        self.outside_s += self.t_end - self._idle_from
        self.uninstall()

    # -- results -----------------------------------------------------------
    @property
    def wall_s(self) -> float:
        return self.t_end - self.t_start

    def _site_name(self, code) -> str:
        try:
            path = Path(code.co_filename).resolve().relative_to(self.root)
            filename = path.as_posix()
        except ValueError:
            filename = code.co_filename
        return f"{filename}:{code.co_name}"

    def _calls(self, prefix: str, outer: bool = False) -> int:
        return sum(e.outer_calls if outer else e.calls
                   for name, e in self.entries.items()
                   if name.startswith(prefix))

    def layer_split(self, session) -> dict[str, float]:
        """Self seconds per layer plus ``other``, each measured on its
        own; they sum to :attr:`wall_s` unless a span was double counted.
        """
        self_s = {layer: 0.0 for layer in LAYERS}
        self_s["other"] = self.outside_s
        for entry in self.entries.values():
            self_s[entry.layer] += entry.self_s
        child_by_site: dict[str, float] = {}
        for code, seconds in self._site_child.items():
            site = self._site_name(code)
            child_by_site[site] = child_by_site.get(site, 0.0) + seconds
        for profiler in session.profilers:
            for site, (_calls, wall) in profiler.by_site.items():
                layer = layer_of_site(site)
                residual = wall - child_by_site.get(site, 0.0)
                # Step self time holds every callback's uncovered time;
                # move each site's share to the layer owning its code.
                self_s["engine"] -= residual
                self_s[layer] += residual
        return self_s

    def metrics(self, session) -> dict[str, float]:
        """Per-layer counts and self times (``<layer>.<metric>``)."""
        split = self.layer_split(session)
        profilers = session.profilers
        events = sum(p.events_dispatched for p in profilers)
        refills = sum(p.fair_share_refills for p in profilers)
        transfers = self.entries["flows.transfer"].calls
        attempts = targets = 0
        for proc in self.exec_runs:
            if proc.triggered and proc.ok:
                report = proc.value
                targets += len(report.targets)
                attempts += sum(r.attempts for r in report.results.values())
        fetch_calls = self.entries["installer.fetch_with_retry"].calls
        out = {
            "engine.events": events,
            "engine.heap_pushes": sum(p.heap_pushes for p in profilers),
            "engine.self_s": split["engine"],
            "engine.us_per_event": (
                1e6 * split["engine"] / events if events else 0.0
            ),
            "flows.transfers": transfers,
            "flows.refills": refills,
            "flows.refills_per_transfer": (
                refills / transfers if transfers else 0.0
            ),
            "flows.util_calls": self.entries["flows.utilization"].calls,
            "flows.self_s": split["flows"],
            "telemetry.records": (
                self._calls("telemetry.tracer.")
                + self._calls("telemetry.metrics.")
            ),
            "telemetry.self_s": split["telemetry"],
            "http.requests": self.entries["http.get"].calls,
            "http.rejected": sum(
                s.rejected for s in self.http_servers.values()
            ),
            "http.queue_timeouts": sum(
                s.queue_timeouts for s in self.http_servers.values()
            ),
            "http.self_s": split["http"],
            "installer.installs": self.entries["installer.driver"].calls,
            "installer.fetch_retries": (
                self.counts["installer.fetch_attempts"] - fetch_calls
            ),
            "installer.self_s": split["installer"],
            "kickstart.generated": self.entries["kickstart.cgi"].calls,
            "kickstart.self_s": split["kickstart"],
            # Public database calls made by other layers; the nested
            # calls one makes into another (has_mac -> node_by_mac) are
            # not counted again.
            "db.reads": self._calls("db.read.", outer=True),
            "db.writes": self._calls("db.write.", outer=True),
            "db.self_s": split["db"],
            "rpm.transactions": self._calls("rpm."),
            "rpm.self_s": split["rpm"],
            "monitoring.samples": self.entries["monitoring.sample"].calls,
            "monitoring.self_s": split["monitoring"],
            "resilience.scale_actions": (
                self.entries["resilience.add_replica"].calls
                + self.entries["resilience.drain_replica"].calls
            ),
            "resilience.breaker_trips": self.counts["resilience.breaker_trips"],
            "resilience.self_s": split["resilience"],
            "exec.attempts": attempts,
            "exec.retries": attempts - targets,
            "exec.useful_ratio": targets / attempts if attempts else 0.0,
            "exec.self_s": split["exec"],
            "rexec.commands": self._calls("rexec."),
            "rexec.self_s": split["rexec"],
            "cluster.self_s": split["cluster"],
            "other.self_s": split["other"],
            "trace.wall_s": self.wall_s,
        }
        return out

    def write_spans(self, path: Path, meta: dict) -> int:
        """Write the recorded spans as JSON lines; returns spans written.

        The first line is a header (``meta`` plus the per-entry totals);
        each further line is one span: id, parent id (0 for a root),
        entry name, and start/end in microseconds from the run's start.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.t_start
        header = dict(meta)
        header["spans_written"] = len(self.export)
        header["spans_dropped"] = self.dropped
        header["entries"] = {
            name: {"layer": e.layer, "calls": e.calls, "spans": e.spans,
                   "total_s": e.total_s, "self_s": e.self_s}
            for name, e in sorted(self.entries.items())
        }
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent_id, name, start, end in self.export:
                out.write(json.dumps({
                    "id": span_id, "parent": parent_id, "name": name,
                    "start_us": round(1e6 * (start - t0), 3),
                    "end_us": round(1e6 * (end - t0), 3),
                }) + "\n")
        return len(self.export)
