"""HTTP admission control: cap, bounded queue, shedding, telemetry."""

import pytest

from repro.netsim import (
    FAST_ETHERNET,
    AdmissionConfig,
    Environment,
    HttpError,
    HttpServer,
    Network,
    TransferAborted,
)
from repro.telemetry import Tracer, summarize


def make_http(n_clients=4, tracer=None):
    env = Environment()
    if tracer is not None:
        tracer.attach(env)
    network = Network(env)
    network.attach("www", FAST_ETHERNET)
    for i in range(n_clients):
        network.attach(f"c{i}", FAST_ETHERNET)
    server = HttpServer(network, "www", efficiency=1.0)
    return env, server


def fetch(env, server, client, path, results):
    """GET wrapper recording the response or the HttpError."""
    try:
        resp = yield server.get(client, path)
        results.append(resp)
    except HttpError as err:
        results.append(err)


def test_admission_config_validation():
    with pytest.raises(ValueError, match="max_concurrent"):
        AdmissionConfig(max_concurrent=0)
    with pytest.raises(ValueError, match="queue_limit"):
        AdmissionConfig(max_concurrent=1, queue_limit=-1)
    with pytest.raises(ValueError, match="queue_timeout"):
        AdmissionConfig(max_concurrent=1, queue_timeout=0)
    with pytest.raises(ValueError, match="retry_after"):
        AdmissionConfig(max_concurrent=1, retry_after=-1)


def test_admission_is_off_by_default():
    env, server = make_http()
    assert server.admission is None
    server.publish("/x", 100)
    resp = env.run(until=server.get("c0", "/x"))
    assert resp.status == 200
    # the fast path never touches the slot accounting
    assert server.in_flight == 0 and server.queue_depth == 0
    assert server.rejected == 0


def test_cap_bounds_in_flight_and_queues_the_rest():
    env, server = make_http()
    server.configure_admission(AdmissionConfig(max_concurrent=2, queue_limit=8))
    server.publish("/pkg", FAST_ETHERNET * 4)
    results = []
    for i in range(4):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run(until=0.5)
    assert server.in_flight == 2
    assert server.queue_depth == 2
    env.run()
    assert [r.status for r in results] == [200, 200, 200, 200]
    assert server.rejected == 0
    assert server.requests_served == 4


def test_full_queue_sheds_503_with_retry_after():
    env, server = make_http()
    server.configure_admission(
        AdmissionConfig(max_concurrent=1, queue_limit=1, retry_after=9.0)
    )
    server.publish("/pkg", FAST_ETHERNET * 10)
    results = []
    for i in range(3):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run(until=0.5)
    # third request found one in flight and one queued
    [shed] = [r for r in results if isinstance(r, HttpError)]
    assert shed.status == 503
    assert "queue-full" in shed.reason
    assert shed.retry_after == 9.0
    assert shed.server == "www"
    assert server.rejected == 1
    env.run()
    assert sum(1 for r in results if getattr(r, "status", 0) == 200) == 2


def test_queue_wait_times_out():
    env, server = make_http()
    server.configure_admission(
        AdmissionConfig(max_concurrent=1, queue_limit=4, queue_timeout=5.0)
    )
    server.publish("/pkg", FAST_ETHERNET * 60)  # one transfer takes 60s
    results = []
    env.process(fetch(env, server, "c0", "/pkg", results))
    env.process(fetch(env, server, "c1", "/pkg", results))
    env.run(until=10.0)
    [shed] = [r for r in results if isinstance(r, HttpError)]
    assert shed.status == 503
    assert "queue-timeout" in shed.reason
    assert server.rejected == 1
    assert server.queue_depth == 0  # the timed-out slot was removed
    env.run()
    assert server.requests_served == 1


def test_slot_released_on_error_paths_too():
    env, server = make_http()
    server.configure_admission(AdmissionConfig(max_concurrent=2))
    results = []
    env.process(fetch(env, server, "c0", "/missing", results))
    env.run()
    assert results[0].status == 404
    assert server.in_flight == 0  # the 404 released its admitted slot


def test_daemon_death_flushes_the_queue():
    env, server = make_http()
    server.configure_admission(AdmissionConfig(max_concurrent=1, queue_limit=4))
    server.publish("/pkg", FAST_ETHERNET * 60)
    results = []

    def fetch_any(client):
        try:
            resp = yield server.get(client, "/pkg")
            results.append(resp)
        except (HttpError, TransferAborted) as err:
            results.append(err)

    for i in range(3):
        env.process(fetch_any(f"c{i}"))

    def kill():
        yield env.timeout(2.0)
        server.running = False
        server.abort_transfers()

    env.process(kill())
    env.run()
    assert len(results) == 3
    # the in-flight transfer is reset; both queued slots are flushed 503s
    [aborted] = [r for r in results if isinstance(r, TransferAborted)]
    flushed = [r for r in results if isinstance(r, HttpError)]
    assert len(flushed) == 2
    assert all(e.status == 503 and "connection reset" in e.reason
               for e in flushed)
    assert server.queue_depth == 0


def test_reconfigure_with_queued_requests_rejected():
    env, server = make_http()
    server.configure_admission(AdmissionConfig(max_concurrent=1, queue_limit=4))
    server.publish("/pkg", FAST_ETHERNET * 60)
    results = []
    env.process(fetch(env, server, "c0", "/pkg", results))
    env.process(fetch(env, server, "c1", "/pkg", results))

    def reconfigure():
        yield env.timeout(1.0)
        with pytest.raises(RuntimeError, match="queued"):
            server.configure_admission(None)

    done = env.process(reconfigure())
    env.run(until=done)


def test_queue_depth_gauge_and_reject_counter():
    tracer = Tracer()
    env, server = make_http(n_clients=8, tracer=tracer)
    server.configure_admission(
        AdmissionConfig(max_concurrent=1, queue_limit=3, queue_timeout=120.0)
    )
    server.publish("/pkg", FAST_ETHERNET * 5)
    results = []
    for i in range(8):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run()
    metrics = tracer.metrics
    assert metrics.peak("http.queue_depth/www") <= 3
    assert metrics.counter("http.rejected/www") == server.rejected > 0
    rejects = tracer.events("http-reject")
    assert len(rejects) == server.rejected
    assert all(e["attrs"]["cause"] == "queue-full" for e in rejects)
    # everyone not shed was eventually served
    assert server.requests_served == 8 - server.rejected


def test_admission_stats_snapshot():
    """The first-class gauge view monitoring agents sample."""
    env, server = make_http(n_clients=8)
    server.configure_admission(
        AdmissionConfig(max_concurrent=2, queue_limit=2, queue_timeout=120.0)
    )
    server.publish("/pkg", FAST_ETHERNET * 5)
    stats = server.admission_stats()
    assert stats == {
        "in_flight": 0,
        "queue_depth": 0,
        "rejected": 0,
        "queue_timeouts": 0,
        "requests_served": 0,
        "bytes_served": 0.0,
    }
    results = []
    for i in range(8):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run(until=1.0)
    mid = server.admission_stats()
    assert mid["in_flight"] == 2
    assert mid["queue_depth"] == 2
    assert mid["rejected"] == 4
    env.run()
    done = server.admission_stats()
    assert done["in_flight"] == 0 and done["queue_depth"] == 0
    assert done["requests_served"] == 4
    assert done["bytes_served"] == pytest.approx(FAST_ETHERNET * 5 * 4)
    # the snapshot mirrors the first-class properties exactly
    assert done["rejected"] == server.rejected
    assert done["queue_timeouts"] == server.queue_timeouts


def test_in_flight_gauge_tracks_grants_and_releases():
    tracer = Tracer()
    env, server = make_http(n_clients=4, tracer=tracer)
    server.configure_admission(
        AdmissionConfig(max_concurrent=2, queue_limit=4, queue_timeout=600.0)
    )
    server.publish("/pkg", FAST_ETHERNET * 5)
    results = []
    for i in range(4):
        env.process(fetch(env, server, f"c{i}", "/pkg", results))
    env.run()
    assert server.requests_served == 4
    samples = [v for _, v in tracer.metrics.samples("http.in_flight/www")]
    assert max(samples) == 2  # the cap was reached...
    assert samples[-1] == 0   # ...and fully released at the end


# -- seeded Retry-After jitter ------------------------------------------------


def shed_hints(jitter, seed=0, n=12, retry_after=10.0):
    """Occupy the single slot, shed n requests, return their hints."""
    env, server = make_http(n_clients=n + 1)
    server.configure_admission(
        AdmissionConfig(
            max_concurrent=1,
            queue_limit=0,
            retry_after=retry_after,
            retry_jitter=jitter,
            jitter_seed=seed,
        )
    )
    server.publish("/slow", FAST_ETHERNET * 600)
    server.get("c0", "/slow")  # pins the only slot
    results = []
    for i in range(n):
        env.process(fetch(env, server, f"c{i + 1}", "/pkg", results))
    env.run(until=1.0)
    assert len(results) == n
    assert all(isinstance(r, HttpError) and r.status == 503 for r in results)
    return [r.retry_after for r in results]


def test_retry_jitter_validation():
    with pytest.raises(ValueError, match="retry_jitter"):
        AdmissionConfig(max_concurrent=1, retry_jitter=-0.1)


def test_no_jitter_means_a_fixed_hint():
    assert set(shed_hints(jitter=0.0)) == {10.0}


def test_jitter_spreads_hints_within_the_advertised_band():
    hints = shed_hints(jitter=0.5, retry_after=10.0)
    assert all(10.0 <= h <= 15.0 for h in hints)
    assert len(set(hints)) > 1  # the herd is actually spread


def test_jitter_is_deterministic_in_the_seed():
    assert shed_hints(jitter=0.5, seed=7) == shed_hints(jitter=0.5, seed=7)
    assert shed_hints(jitter=0.5, seed=7) != shed_hints(jitter=0.5, seed=8)


def test_queue_timeout_sheds_carry_jittered_hints_too():
    env, server = make_http(n_clients=3)
    server.configure_admission(
        AdmissionConfig(
            max_concurrent=1,
            queue_limit=2,
            queue_timeout=5.0,
            retry_after=10.0,
            retry_jitter=0.5,
            jitter_seed=3,
        )
    )
    server.publish("/slow", FAST_ETHERNET * 600)
    server.get("c0", "/slow")
    results = []
    for i in range(2):
        env.process(fetch(env, server, f"c{i + 1}", "/pkg", results))
    env.run(until=20.0)
    assert len(results) == 2
    assert server.queue_timeouts == 2
    assert all(10.0 <= r.retry_after <= 15.0 for r in results)


def test_interrupt_in_accept_queue_closes_http_span():
    tracer = Tracer()
    env, server = make_http(n_clients=2, tracer=tracer)
    server.publish("/x", FAST_ETHERNET * 10)
    server.configure_admission(AdmissionConfig(max_concurrent=1))
    first = server.get("c0", "/x")
    queued = server.get("c1", "/x")
    env.run(until=1.0)
    assert server.queue_depth == 1
    queued.interrupt("node power-cycled")
    env.run(until=first)
    assert server.queue_depth == 0
    assert summarize(tracer)["open_by_kind"] == {}
    outcomes = [s.attrs["outcome"] for s in tracer.spans("http")]
    assert outcomes == ["ok", "aborted"]
