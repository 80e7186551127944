"""The clush-style execution engine: fanout, timeouts, retries, stragglers.

:class:`ExecTask` runs one command across a nodeset over the
:class:`~repro.scheduler.rexec.Rexec` transport with

* a **sliding fanout window** — at most ``fanout`` nodes in flight; a
  completion immediately launches the next pending node (no barrier
  between waves, so one slow node never stalls the window);
* a **per-node timeout** — an attempt that exceeds ``command_timeout``
  is aborted and retried after seeded-jitter exponential backoff;
* **typed terminal classification** — every target ends in exactly one
  of :class:`ExecState` ``OK`` / ``TIMEOUT`` / ``NODE_DEAD`` /
  ``RETRIES_EXHAUSTED``; a campaign never hangs on a dead node and
  never loses a node from the report;
* **straggler detection** — once enough nodes have finished, a rolling
  percentile of completion times flags nodes running
  ``straggler_factor`` times slower than their peers.

All randomness (retry jitter) flows from per-node RNGs seeded by
``(options.seed, node name)``, so the same seed produces a byte-identical
:meth:`ExecReport.render` regardless of event interleaving or
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import bisect
import enum
import math
import random
from dataclasses import dataclass, field
from typing import Generator, Iterable, Optional, Sequence, Union

from ..netsim import AnyOf, Environment, Process
from ..options import require
from ..scheduler.rexec import (
    RemoteCommand,
    RemoteEnvironment,
    Rexec,
)
from .msgtree import MsgTree
from .nodeset import GroupResolver, NodeSet

__all__ = [
    "ExecState",
    "ExecOptions",
    "NodeResult",
    "ExecReport",
    "ExecTask",
]

_ROOT = RemoteEnvironment(user="root", uid=0, gid=0, cwd="/root")


class ExecState(enum.Enum):
    """Terminal classification of one target node."""

    OK = "OK"                                # exit code 0
    TIMEOUT = "TIMEOUT"                      # final attempt hit the deadline
    NODE_DEAD = "NODE_DEAD"                  # unreachable / died mid-command
    RETRIES_EXHAUSTED = "RETRIES_EXHAUSTED"  # kept failing (nonzero exit)


@dataclass(frozen=True)
class ExecOptions:
    """Knobs for one task; defaults suit the 10-minute reinstall scale."""

    #: sliding-window width: nodes in flight at once
    fanout: int = 64
    #: per-attempt deadline in simulated seconds (None = no deadline)
    command_timeout: Optional[float] = 300.0
    #: extra attempts after the first (timeouts and nonzero exits retry)
    max_retries: int = 2
    #: base retry delay; grows by ``backoff_factor`` per attempt
    backoff: float = 5.0
    backoff_factor: float = 2.0
    #: fractional seeded jitter on each backoff: delay *= 1 + j*U(0,1)
    jitter: float = 0.25
    seed: int = 0
    #: start flagging stragglers once this fraction of nodes finished
    straggler_after: float = 0.5
    #: rolling completion-time percentile stragglers are measured against
    straggler_percentile: float = 0.9
    #: flag nodes slower than factor x percentile
    straggler_factor: float = 3.0
    #: how often (simulated seconds) the straggler monitor looks
    straggler_interval: float = 15.0

    def __post_init__(self) -> None:
        require(self.fanout >= 1, "fanout", self.fanout, ">= 1")
        require(self.command_timeout is None
                or 0 < self.command_timeout < math.inf, "command_timeout",
                self.command_timeout, "positive and finite, or None")
        require(self.max_retries >= 0, "max_retries", self.max_retries,
                ">= 0")
        require(0 < self.backoff < math.inf, "backoff", self.backoff,
                "positive and finite")
        require(1 <= self.backoff_factor < math.inf, "backoff_factor",
                self.backoff_factor, ">= 1 and finite")
        require(0 <= self.jitter < math.inf, "jitter", self.jitter,
                "non-negative and finite")
        # The last retry waits backoff * factor**(max_retries - 1), times
        # up to 1 + jitter; past ~1000 retries that is no float at all.
        try:
            last = self.backoff * self.backoff_factor ** max(
                self.max_retries - 1, 0)
            last *= 1.0 + self.jitter
        except OverflowError:
            last = math.inf
        require(last < math.inf, "max_retries", self.max_retries,
                "small enough that the last backoff is a finite delay")
        require(0 < self.straggler_percentile <= 1, "straggler_percentile",
                self.straggler_percentile, "in (0, 1]")
        require(0 <= self.straggler_after <= 1, "straggler_after",
                self.straggler_after, "in [0, 1]")
        require(0 < self.straggler_interval < math.inf, "straggler_interval",
                self.straggler_interval, "positive and finite")
        require(1 <= self.straggler_factor < math.inf, "straggler_factor",
                self.straggler_factor, ">= 1 and finite")


@dataclass
class NodeResult:
    """Everything the engine learned about one target."""

    node: str
    state: ExecState
    exit_code: Optional[int]
    attempts: int
    stdout: list[str] = field(default_factory=list)
    stderr: list[str] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    straggler: bool = False
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class ExecReport:
    """One task's complete, deterministic account."""

    targets: list[str]
    options: ExecOptions
    started_at: float
    finished_at: float
    results: dict[str, NodeResult]

    @property
    def seconds(self) -> float:
        return self.finished_at - self.started_at

    def count(self, state: ExecState) -> int:
        return sum(1 for r in self.results.values() if r.state is state)

    def nodes(self, state: ExecState) -> NodeSet:
        return NodeSet.from_names(
            name for name in sorted(self.results)
            if self.results[name].state is state
        )

    @property
    def stragglers(self) -> NodeSet:
        return NodeSet.from_names(
            name for name in sorted(self.results)
            if self.results[name].straggler
        )

    @property
    def ok(self) -> bool:
        return all(r.state is ExecState.OK for r in self.results.values())

    def msgtree(self) -> MsgTree:
        """Merged stdout of every node that produced output."""
        tree = MsgTree()
        for name in sorted(self.results):
            result = self.results[name]
            for line in result.stdout:
                tree.add(name, line)
        return tree

    def render(self) -> str:
        """The gathered report: summary, merged output, failure detail."""
        opts = self.options
        lines = [
            f"exec: {len(self.targets)} targets, fanout {opts.fanout}, "
            f"{self.seconds:.1f}s simulated"
        ]
        for state in ExecState:
            lines.append(f"  {state.value:<18} {self.count(state):>5}")
        tree = self.msgtree()
        if len(tree):
            lines.append("---")
            lines.append(tree.render())
        failures: dict[tuple[str, str], NodeSet] = {}
        for name in sorted(self.results):
            result = self.results[name]
            if result.state is ExecState.OK:
                continue
            key = (result.state.value, result.error or "")
            failures.setdefault(key, NodeSet()).add(name)
        if failures:
            lines.append("---")
            for (state, error), nodes in sorted(failures.items()):
                detail = f": {error}" if error else ""
                lines.append(f"{state} {nodes.fold()} ({len(nodes)}){detail}")
        stragglers = self.stragglers
        if stragglers:
            lines.append(
                f"stragglers ({len(stragglers)}): {stragglers.fold()}"
            )
        return "\n".join(lines)


class _TaskState:
    """Mutable bookkeeping shared by the window driver and workers."""

    __slots__ = (
        "names", "command", "launched", "active", "results",
        "durations", "flagged", "started", "done", "span",
    )

    def __init__(self, names: list[str], command: RemoteCommand, done) -> None:
        self.names = names
        self.command = command
        self.launched = 0
        #: the fanout's root `exec` span (None when tracing is off);
        #: per-node `exec-node` spans parent here
        self.span = None
        #: node -> attempt start time, insertion-ordered (live window)
        self.active: dict[str, float] = {}
        #: node -> NodeResult, completion order (render paths re-sort)
        self.results: dict[str, NodeResult] = {}
        #: sorted completion durations of finished nodes
        self.durations: list[float] = []
        #: nodes the straggler monitor has flagged while still running
        self.flagged: dict[str, None] = {}
        self.started = 0.0
        self.done = done


class ExecTask:
    """Run callables across the cluster; survives dead nodes and stragglers."""

    def __init__(
        self,
        env: Environment,
        rexec: Rexec,
        options: ExecOptions = ExecOptions(),
        environment: RemoteEnvironment = _ROOT,
        resolver: Optional[GroupResolver] = None,
    ):
        self.env = env
        self.rexec = rexec
        self.options = options
        self.environment = environment
        self.resolver = resolver

    # -- target normalization ---------------------------------------------
    def expand_targets(
        self, targets: Union[str, NodeSet, Sequence[str]]
    ) -> list[str]:
        """Nodeset text / NodeSet / explicit sequence -> ordered name list."""
        if isinstance(targets, str):
            return NodeSet(targets, resolver=self.resolver).expand()
        if isinstance(targets, NodeSet):
            return targets.expand()
        out: dict[str, None] = {}
        for name in targets:
            out[name] = None
        return list(out)

    # -- the engine --------------------------------------------------------
    def run(
        self,
        targets: Union[str, NodeSet, Sequence[str]],
        command: RemoteCommand,
    ) -> Process:
        """Drive the whole task; the process yields an :class:`ExecReport`."""
        names = self.expand_targets(targets)
        return self.env.process(
            self._drive(names, command), name=f"exec:x{len(names)}"
        )

    def _drive(self, names: list[str], command: RemoteCommand) -> Generator:
        env = self.env
        done = env.event()
        state = _TaskState(names, command, done)
        state.started = env.now
        tracer = env.tracer
        span = (
            tracer.span("exec", f"x{len(names)}",
                        targets=len(names), fanout=self.options.fanout)
            if tracer.enabled
            else None
        )
        state.span = span
        if not names:
            done.succeed()
        else:
            self._fill_window(state)
            if self.options.straggler_factor > 0 and len(names) > 1:
                env.process(self._straggle_monitor(state),
                            name="exec:straggler-monitor")
        yield done
        report = ExecReport(
            targets=names,
            options=self.options,
            started_at=state.started,
            finished_at=env.now,
            results=state.results,
        )
        if span is not None:
            span.end(**{s.value: report.count(s) for s in ExecState},
                     stragglers=len(report.stragglers))
        return report

    def _fill_window(self, state: _TaskState) -> None:
        """Launch pending targets until the fanout window is full."""
        while (state.launched < len(state.names)
               and len(state.active) < self.options.fanout):
            name = state.names[state.launched]
            rank = state.launched
            state.launched += 1
            state.active[name] = self.env.now
            worker = self.env.process(
                self._worker(state, name, rank), name=f"exec:{name}"
            )
            worker.callbacks.append(
                lambda ev, s=state: self._on_worker_done(s, ev)
            )

    def _on_worker_done(self, state: _TaskState, worker: Process) -> None:
        if not worker.ok:
            raise worker.value
        result = worker.value
        state.active.pop(result.node, None)
        result.straggler = result.node in state.flagged
        state.results[result.node] = result
        if result.state is ExecState.OK:
            bisect.insort(state.durations, result.seconds)
        if len(state.results) == len(state.names):
            if not state.done.triggered:
                state.done.succeed()
        else:
            self._fill_window(state)

    def _worker(self, state: _TaskState, name: str, rank: int) -> Generator:
        """One node's attempt loop: dispatch -> classify -> maybe retry."""
        env = self.env
        opts = self.options
        rng = random.Random(("repro.exec", opts.seed, name).__repr__())
        result = NodeResult(
            node=name, state=ExecState.OK, exit_code=None,
            attempts=0, started_at=env.now,
        )
        node_span = (
            env.tracer.span("exec-node", name, parent=state.span,
                            host=name, rank=rank)
            if env.tracer.enabled
            else None
        )
        try:
            result = yield from self._attempts(
                state, name, rank, rng, result, node_span
            )
        finally:
            if node_span is not None:
                node_span.end(
                    outcome=result.state.value, attempts=result.attempts
                )
        return result

    def _attempts(self, state: _TaskState, name: str, rank: int, rng,
                  result: NodeResult, node_span=None) -> Generator:
        env = self.env
        opts = self.options
        while True:
            result.attempts += 1
            state.active[name] = env.now
            dispatch = self.rexec.spawn(
                name, state.command, self.environment, rank=rank
            )
            timer = (
                env.timeout(opts.command_timeout)
                if opts.command_timeout is not None
                else None
            )
            waits = (dispatch.process,) if timer is None else (
                dispatch.process, timer)
            yield AnyOf(env, waits)
            timed_out = not dispatch.process.triggered
            if timed_out:
                dispatch.abort(f"timeout after {opts.command_timeout:g}s")
            elif timer is not None:
                env.cancel(timer)
            proc = dispatch.proc
            result.stdout = proc.stdout
            result.stderr = proc.stderr
            result.exit_code = proc.exit_code
            if timed_out:
                result.error = (
                    f"timed out after {opts.command_timeout:g}s "
                    f"(attempt {result.attempts})"
                )
                terminal = ExecState.TIMEOUT
            elif proc.node_dead:
                # Dead is terminal immediately: rebooting hardware is the
                # reinstall campaign's job, not the command fabric's.
                result.state = ExecState.NODE_DEAD
                result.error = proc.error
                result.finished_at = env.now
                return result
            elif proc.exit_code == 0:
                result.state = ExecState.OK
                result.error = None
                result.finished_at = env.now
                return result
            else:
                result.error = (
                    f"exit {proc.exit_code} (attempt {result.attempts})"
                )
                terminal = ExecState.RETRIES_EXHAUSTED
            if result.attempts > opts.max_retries:
                result.state = terminal
                result.finished_at = env.now
                return result
            delay = opts.backoff * opts.backoff_factor ** (result.attempts - 1)
            delay *= 1.0 + opts.jitter * rng.random()
            if env.tracer.enabled:
                # Backoff between command attempts: straggler time the
                # critical-path analyzer attributes to retry chains.
                with env.tracer.span("exec-retry", name, parent=node_span,
                                     host=name, attempt=result.attempts,
                                     delay=delay):
                    yield env.timeout(delay)
            else:
                yield env.timeout(delay)

    def _straggle_monitor(self, state: _TaskState) -> Generator:
        """Flag in-flight nodes running far behind the completed pack."""
        env = self.env
        opts = self.options
        while len(state.results) < len(state.names):
            yield env.timeout(opts.straggler_interval)
            finished = state.durations
            if len(finished) < max(
                2, int(opts.straggler_after * len(state.names))
            ):
                continue
            idx = min(
                len(finished) - 1,
                max(0, int(opts.straggler_percentile * len(finished)) - 1),
            )
            threshold = opts.straggler_factor * finished[idx]
            if threshold <= 0:
                continue
            for name, started in state.active.items():
                if name not in state.flagged and env.now - started > threshold:
                    state.flagged[name] = None
                    if env.tracer.enabled:
                        env.tracer.event(
                            "exec-straggler", name, parent=state.span,
                            host=name,
                            elapsed=env.now - started, threshold=threshold,
                        )
