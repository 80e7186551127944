"""Minimal HTTP layer on top of the fluid-flow network.

Rocks pulls everything over HTTP: compute nodes fetch their generated
Kickstart file from a CGI script and then pull every RPM from the install
server.  We model an HTTP server as

* a document tree mapping URL paths to byte sizes (static resources),
* optional *CGI handlers* whose response body is computed per-request
  (this is how the Kickstart generator is wired in), and
* a protocol-efficiency factor: the paper observes a 100 Mbit server
  sustains 7-8 MB/s of useful payload, i.e. ~70% of wire speed, so each
  server throttles its aggregate payload rate through a virtual link.

Replicated servers plus :class:`LoadBalancer` model the paper's
"N web servers support N times the concurrent reinstallations" argument.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .engine import AnyOf, Environment, Event, Interrupt, Process
from .flows import Link
from .topology import Network

__all__ = [
    "HttpServer",
    "HttpResponse",
    "HttpError",
    "AdmissionConfig",
    "LoadBalancer",
    "DEFAULT_HTTP_EFFICIENCY",
]

#: Fraction of wire speed an HTTP server can turn into payload (paper §6.3).
DEFAULT_HTTP_EFFICIENCY = 0.70


class HttpError(Exception):
    """An HTTP-level failure, carrying a status code.

    ``retry_after`` mirrors the Retry-After response header: a hint (in
    seconds) for when the client should try again, attached to 503s shed
    by admission control.  ``server`` names the backend that answered,
    so clients behind a load balancer can attribute the failure.
    """

    def __init__(
        self,
        status: int,
        reason: str,
        retry_after: Optional[float] = None,
        server: str = "",
    ):
        super().__init__(f"{status} {reason}")
        self.status = status
        self.reason = reason
        self.retry_after = retry_after
        self.server = server


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control knobs for one :class:`HttpServer`.

    ``max_concurrent`` caps in-flight requests; arrivals beyond the cap
    wait in a FIFO accept queue of at most ``queue_limit`` entries for up
    to ``queue_timeout`` seconds.  Requests shed from a full queue (or
    timed out waiting) get a 503 whose Retry-After is ``retry_after``.

    ``retry_jitter`` spreads the hint: each shed response advertises a
    Retry-After drawn uniformly from ``[retry_after, retry_after *
    (1 + retry_jitter)]`` using a per-server RNG seeded from
    ``jitter_seed`` and the host name.  Without it, a thundering herd
    shed in the same tick retries in the same tick — and is shed again,
    forever in lockstep.  Zero (the default) keeps the fixed hint.
    """

    max_concurrent: int
    queue_limit: int = 16
    queue_timeout: float = 30.0
    retry_after: float = 15.0
    retry_jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if self.queue_timeout <= 0:
            raise ValueError("queue_timeout must be positive")
        if self.retry_after < 0:
            raise ValueError("retry_after must be non-negative")
        if self.retry_jitter < 0:
            raise ValueError("retry_jitter must be non-negative")


@dataclass
class HttpResponse:
    """Outcome of a GET: status, payload size, optional computed body.

    ``checksum`` is filled in by content-aware layers (the install
    server stamps each RPM's payload digest); empty means unverifiable.
    """

    status: int
    path: str
    size: float
    body: Any = None
    server: str = ""
    checksum: str = ""


CgiHandler = Callable[[str, str], tuple[Any, float]]
"""CGI callable: (client_host_name, path) -> (body, body_size_bytes)."""


class HttpServer:
    """An HTTP daemon bound to a host on a :class:`Network`."""

    def __init__(
        self,
        network: Network,
        host: str,
        efficiency: float = DEFAULT_HTTP_EFFICIENCY,
    ):
        if not 0 < efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency!r}")
        self.network = network
        self.host = host
        self.efficiency = efficiency
        link = network.host(host).tx
        # Virtual service link: caps aggregate *payload* below wire speed.
        self.service_link = Link(
            f"{host}.http", (link.capacity or 0.0) * efficiency or None
        )
        self._documents: dict[str, float] = {}
        self._cgi: dict[str, CgiHandler] = {}
        self._requests_served = 0
        self._bytes_served = 0.0
        self.running = True
        self.admission: Optional[AdmissionConfig] = None
        self._in_flight = 0
        self._accept_queue: deque[Event] = deque()
        self._rejected = 0
        self._queue_timeouts = 0
        self._retry_rng: Optional[random.Random] = None

    # -- content management ----------------------------------------------
    def publish(self, path: str, size: float) -> None:
        """Expose a static resource of ``size`` bytes at ``path``."""
        if size < 0:
            raise ValueError("resource size must be non-negative")
        self._documents[self._norm(path)] = float(size)

    def publish_tree(self, tree: dict[str, float], prefix: str = "") -> None:
        for path, size in tree.items():
            self.publish(prefix + path, size)

    def unpublish(self, path: str) -> None:
        self._documents.pop(self._norm(path), None)

    def register_cgi(self, path: str, handler: CgiHandler) -> None:
        """Mount a CGI script (e.g. the kickstart generator) at ``path``."""
        self._cgi[self._norm(path)] = handler

    def cgi_mounts(self) -> dict[str, CgiHandler]:
        """Snapshot of mounted CGI handlers (for cloning onto replicas)."""
        return dict(self._cgi)

    def has_document(self, path: str) -> bool:
        return self._norm(path) in self._documents

    @property
    def requests_served(self) -> int:
        return self._requests_served

    @property
    def bytes_served(self) -> float:
        return self._bytes_served

    def refresh_link_speed(self) -> None:
        """Re-derive the service cap after the host NIC was upgraded."""
        wire = self.network.host(self.host).tx.capacity or 0.0
        self.service_link.capacity = wire * self.efficiency or None

    def configure_admission(self, config: Optional[AdmissionConfig]) -> None:
        """Install (or clear, with ``None``) the admission-control policy.

        Must not be changed while requests are queued — the queued slots
        were admitted under the old policy.
        """
        if self._accept_queue:
            raise RuntimeError("cannot reconfigure admission with queued requests")
        self.admission = config
        if config is not None and config.retry_jitter > 0:
            self._retry_rng = random.Random(
                ("retry-after", self.host, config.jitter_seed).__repr__()
            )
        else:
            self._retry_rng = None

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def queue_depth(self) -> int:
        return len(self._accept_queue)

    @property
    def rejected(self) -> int:
        """Requests shed with a 503 by admission control (full or timed out)."""
        return self._rejected

    @property
    def queue_timeouts(self) -> int:
        """Requests that gave up waiting in the accept queue."""
        return self._queue_timeouts

    def admission_stats(self) -> dict:
        """The admission-control gauges as one snapshot dict.

        This is the single source of truth the monitoring agents sample;
        the keys mirror the ``http.*`` names in the telemetry metrics
        registry so both views always agree.
        """
        return {
            "in_flight": self._in_flight,
            "queue_depth": len(self._accept_queue),
            "rejected": self._rejected,
            "queue_timeouts": self._queue_timeouts,
            "requests_served": self._requests_served,
            "bytes_served": self._bytes_served,
        }

    def abort_transfers(self) -> None:
        """Reset every in-flight connection (the daemon was killed)."""
        for flow in self.network.flows.flows_through(self.service_link):
            flow.cancel()
        self._flush_accept_queue("connection reset")

    # -- request path -------------------------------------------------------
    def get(
        self, client: str, path: str, max_rate: Optional[float] = None,
        parent=None,
    ) -> Process:
        """GET ``path`` from ``client``; yields an HttpResponse process.

        ``parent`` (a tracer span) threads trace context: the request's
        ``http`` span — and everything under it — parents on the caller.
        """
        return self.network.env.process(
            self._do_get(client, self._norm(path), max_rate, parent),
            name=f"GET {path} {client}<-{self.host}",
        )

    def _do_get(self, client: str, path: str, max_rate: Optional[float],
                parent=None):
        tracer = self.network.env.tracer
        span = (
            tracer.span("http", path, parent=parent,
                        client=client, server=self.host)
            if tracer.enabled
            else None
        )
        admitted = False
        try:
            try:
                if not self.running:
                    raise HttpError(
                        503, f"server {self.host} not running", server=self.host
                    )
                if not self.network.reachable(self.host, client):
                    raise HttpError(
                        504,
                        f"no route from {client} to {self.host}",
                        server=self.host,
                    )
                if self.admission is not None:
                    # May suspend in the accept queue; raises a 503 with a
                    # Retry-After hint when the request is shed.  With no
                    # admission policy this branch adds zero sim events.
                    yield from self._admit(client, path, span)
                    admitted = True
                body: Any = None
                if path in self._cgi:
                    body, size = self._cgi[path](client, path)
                elif path in self._documents:
                    size = self._documents[path]
                else:
                    raise HttpError(
                        404, f"{path} not found on {self.host}", server=self.host
                    )
            except HttpError as err:
                if span is not None:
                    span.end(outcome="error", status=err.status)
                raise
            except Exception as err:
                # The requester died in the accept queue, or a CGI handler
                # raised (e.g. UnknownClient for an unregistered MAC).
                if span is not None:
                    span.end(outcome="aborted" if isinstance(err, Interrupt)
                             else "error")
                raise
            wire_path = self.network.path(self.host, client)
            flow = self.network.flows.transfer(
                (self.service_link,) + wire_path,
                size,
                max_rate=max_rate,
                label=f"http:{path}",
                parent=span,
            )
            try:
                yield flow.done
            except Interrupt:
                # The requester died (e.g. node power-cycled mid-download):
                # tear the connection down so bandwidth is freed immediately.
                flow.cancel()
                if span is not None:
                    span.end(outcome="aborted")
                raise
            except BaseException:
                # Connection reset from the transfer side (cancelled flow).
                if span is not None:
                    span.end(outcome="reset")
                raise
            self._requests_served += 1
            self._bytes_served += size
            if span is not None:
                span.end(outcome="ok", status=200, bytes=float(size))
                tracer.metrics.inc(f"http.requests/{self.host}")
                tracer.metrics.inc(f"http.bytes/{self.host}", size)
            return HttpResponse(200, path, size, body=body, server=self.host)
        finally:
            if admitted:
                self._release()

    # -- admission control --------------------------------------------------
    def _admit(self, client: str, path: str, span=None):
        """Claim an in-flight slot, queueing (bounded) when at capacity.

        Raises ``HttpError(503)`` with a Retry-After hint when the accept
        queue is full, the queue wait times out, or the daemon dies while
        the request is parked.  Time parked in the queue is traced as an
        ``http-queue`` span under ``span`` (the request's ``http`` span).
        """
        adm = self.admission
        env = self.network.env
        if self._in_flight < adm.max_concurrent and not self._accept_queue:
            self._in_flight += 1
            self._gauge_in_flight()
            return
        if len(self._accept_queue) >= adm.queue_limit:
            self._shed(client, path, "queue-full")
        slot = env.event()
        self._accept_queue.append(slot)
        self._gauge_queue_depth()
        queue_span = (
            env.tracer.span("http-queue", path, parent=span,
                            client=client, server=self.host)
            if env.tracer.enabled
            else None
        )
        timer = env.timeout(adm.queue_timeout)
        try:
            yield AnyOf(env, (slot, timer))
        except Interrupt:
            if queue_span is not None:
                queue_span.end(outcome="aborted")
            if slot in self._accept_queue:
                self._accept_queue.remove(slot)
                self._gauge_queue_depth()
            else:
                # A releaser granted the slot before the interrupt landed.
                self._release()
            raise
        except HttpError:
            # The queue was flushed (daemon killed): the slot failed with
            # the shedding 503.  The timer is still pending — defuse it.
            if queue_span is not None:
                queue_span.end(outcome="flushed")
            env.cancel(timer)
            raise
        if slot in self._accept_queue:
            # Queue membership is the single source of truth for grant vs
            # timeout: a releaser pops the slot *before* succeeding it, so
            # still-queued here means the wait timed out.
            self._accept_queue.remove(slot)
            self._gauge_queue_depth()
            self._queue_timeouts += 1
            if queue_span is not None:
                queue_span.end(outcome="timeout")
            if env.tracer.enabled:
                env.tracer.metrics.inc(f"http.queue_timeouts/{self.host}")
            self._shed(client, path, "queue-timeout")
        # Granted: the releaser already counted this request in-flight.
        if queue_span is not None:
            queue_span.end(outcome="admitted")
        env.cancel(timer)

    def _retry_hint(self) -> Optional[float]:
        """The Retry-After this shed response advertises (jittered).

        Each call draws fresh jitter, so simultaneous victims of one
        overload spike are told different comeback times and their
        retries arrive desynchronized.
        """
        adm = self.admission
        if adm is None:
            return None
        hint = adm.retry_after
        if self._retry_rng is not None:
            hint *= 1.0 + adm.retry_jitter * self._retry_rng.random()
        return hint

    def _shed(self, client: str, path: str, cause: str) -> None:
        self._rejected += 1
        tracer = self.network.env.tracer
        if tracer.enabled:
            tracer.metrics.inc(f"http.rejected/{self.host}")
            tracer.event(
                "http-reject",
                path,
                client=client,
                server=self.host,
                cause=cause,
            )
        raise HttpError(
            503,
            f"server {self.host} at capacity ({cause})",
            retry_after=self._retry_hint(),
            server=self.host,
        )

    def _release(self) -> None:
        """Free an in-flight slot and promote queued requests under the cap."""
        self._in_flight -= 1
        adm = self.admission
        promoted = False
        while (
            adm is not None
            and self._accept_queue
            and self._in_flight < adm.max_concurrent
        ):
            slot = self._accept_queue.popleft()
            self._in_flight += 1
            promoted = True
            slot.succeed()
        self._gauge_in_flight()
        if promoted:
            self._gauge_queue_depth()

    def _flush_accept_queue(self, reason: str) -> None:
        """Fail every queued request (the daemon died while they waited)."""
        if not self._accept_queue:
            return
        queued, self._accept_queue = list(self._accept_queue), deque()
        self._gauge_queue_depth()
        tracer = self.network.env.tracer
        for slot in queued:
            self._rejected += 1
            if tracer.enabled:
                # Mirror _shed's accounting so the http.rejected counter,
                # the http-reject event count, and self.rejected agree no
                # matter which path shed the request.
                tracer.metrics.inc(f"http.rejected/{self.host}")
                tracer.event(
                    "http-reject", "*", client="", server=self.host,
                    cause=reason,
                )
            slot.fail(
                HttpError(
                    503,
                    f"server {self.host} {reason}",
                    retry_after=self._retry_hint(),
                    server=self.host,
                )
            )

    def _gauge_queue_depth(self) -> None:
        tracer = self.network.env.tracer
        if tracer.enabled:
            tracer.metrics.gauge(
                f"http.queue_depth/{self.host}", float(len(self._accept_queue))
            )

    def _gauge_in_flight(self) -> None:
        tracer = self.network.env.tracer
        if tracer.enabled:
            tracer.metrics.gauge(
                f"http.in_flight/{self.host}", float(self._in_flight)
            )

    @staticmethod
    def _norm(path: str) -> str:
        return "/" + path.strip("/")


class LoadBalancer:
    """Round-robin HTTP load balancing across replicated install servers.

    The paper notes replicating the install web server is trivial because
    serving RPMs is strictly read-only; this class provides the client-side
    view of N replicas behind one name.

    Membership is dynamic: an autoscaler may :meth:`add_backend` and
    :meth:`remove_backend` replicas while requests are in flight.  The
    rotation pointer is index-based (not a frozen cycle) and advances
    exactly once per request, so backends that are down, unreachable, or
    vetoed by the avoidance hook are *skipped deterministically* — a
    skip neither consumes a failover attempt nor perturbs which backend
    the next request starts from.
    """

    def __init__(self, servers: list[HttpServer]):
        if not servers:
            raise ValueError("load balancer needs at least one backend")
        self.servers = list(servers)
        self._rr_next = 0
        #: Optional predicate consulted before dispatch; a circuit breaker
        #: plugs in here to keep requests off backends it has opened on.
        self.should_avoid: Optional[Callable[[HttpServer], bool]] = None
        #: requests actually dispatched to a backend (skips excluded)
        self.dispatches = 0
        #: backends passed over pre-dispatch (down/unreachable/avoided)
        self.skips = 0

    # -- membership --------------------------------------------------------
    def add_backend(self, server: HttpServer) -> None:
        """Put a (replica) server into the rotation."""
        if server in self.servers:
            raise ValueError(f"backend {server.host} already registered")
        self.servers.append(server)

    def remove_backend(self, server: HttpServer) -> None:
        """Drop a server from the rotation; in-flight requests finish.

        The rotation pointer is re-anchored so the remaining backends
        keep their relative order — removal never skips or double-serves
        a backend.
        """
        try:
            idx = self.servers.index(server)
        except ValueError:
            raise ValueError(f"backend {server.host} not registered") from None
        if len(self.servers) == 1:
            raise ValueError("cannot remove the last backend")
        del self.servers[idx]
        if idx < self._rr_next:
            self._rr_next -= 1
        self._rr_next %= len(self.servers)

    def _rotation(self) -> list[HttpServer]:
        """This request's candidate order; advances the pointer by one."""
        n = len(self.servers)
        start = self._rr_next % n
        self._rr_next = (start + 1) % n
        return [self.servers[(start + k) % n] for k in range(n)]

    def get(
        self, client: str, path: str, max_rate: Optional[float] = None,
        parent=None,
    ) -> Process:
        """GET with failover: retries the next live backend on a 503/504."""
        env = self.servers[0].network.env
        return env.process(
            self._do_get(client, path, max_rate, parent),
            name=f"LB GET {path} {client}",
        )

    def _do_get(self, client: str, path: str, max_rate: Optional[float],
                parent=None):
        last_error: Optional[HttpError] = None
        avoided = 0
        for server in self._rotation():
            if not server.running:
                self.skips += 1
                continue
            if not server.network.reachable(server.host, client):
                self.skips += 1
                continue
            if self.should_avoid is not None and self.should_avoid(server):
                avoided += 1
                self.skips += 1
                continue
            self.dispatches += 1
            request = server.get(client, path, max_rate=max_rate,
                                 parent=parent)
            try:
                response = yield request
            except Interrupt:
                if request.is_alive:
                    request.interrupt("request aborted")
                raise
            except HttpError as err:
                if err.status not in (503, 504):
                    raise  # 4xx means the backend is healthy; don't fail over
                last_error = err
                continue
            return response
        if last_error is not None:
            # Every dispatchable backend was tried and shed/crashed.
            raise last_error
        if avoided:
            # Live backends exist but the avoidance hook (circuit breaker)
            # vetoed them all: fast-fail without touching the network.
            raise HttpError(503, "all live backends avoided")
        # All backends down pre-dispatch: surface the first one's error.
        self.dispatches += 1
        request = self.servers[0].get(client, path, max_rate=max_rate,
                                      parent=parent)
        try:
            return (yield request)
        except Interrupt:
            if request.is_alive:
                request.interrupt("request aborted")
            raise
