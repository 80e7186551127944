"""Tests for the topology and HTTP layers."""

import pytest

from repro.netsim import (
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    MBIT,
    Environment,
    HostDown,
    HttpError,
    HttpServer,
    LoadBalancer,
    Network,
    TransferAborted,
)
from repro.telemetry import Tracer, summarize


@pytest.fixture
def net():
    env = Environment()
    network = Network(env)
    return env, network


def test_attach_and_lookup(net):
    _, network = net
    network.attach("frontend-0", FAST_ETHERNET)
    assert network.host("frontend-0").speed == FAST_ETHERNET
    assert network.has_host("frontend-0")
    assert not network.has_host("compute-0-0")


def test_duplicate_host_rejected(net):
    _, network = net
    network.attach("a")
    with pytest.raises(ValueError):
        network.attach("a")


def test_unknown_host_lookup_raises(net):
    _, network = net
    with pytest.raises(KeyError, match="nonesuch"):
        network.host("nonesuch")


def test_send_between_hosts_bottlenecked_by_slower_nic(net):
    env, network = net
    network.attach("server", GIGABIT_ETHERNET)
    network.attach("client", FAST_ETHERNET)
    flow = network.send("server", "client", FAST_ETHERNET * 10)
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)


def test_host_down_blocks_send(net):
    _, network = net
    network.attach("a")
    network.attach("b")
    network.set_host_up("b", False)
    assert not network.reachable("a", "b")
    with pytest.raises(HostDown):
        network.send("a", "b", 100)


def test_taking_host_down_aborts_inflight(net):
    env, network = net
    network.attach("a")
    network.attach("b")
    flow = network.send("a", "b", FAST_ETHERNET * 100)

    def chaos():
        yield env.timeout(1.0)
        network.set_host_up("b", False)

    def waiter():
        with pytest.raises(TransferAborted):
            yield flow.done
        return True

    env.process(chaos())
    assert env.run(until=env.process(waiter()))


def test_concurrent_clients_share_server_uplink(net):
    env, network = net
    network.attach("server", FAST_ETHERNET)
    for i in range(4):
        network.attach(f"c{i}", FAST_ETHERNET)
    flows = [
        network.send("server", f"c{i}", FAST_ETHERNET * 2.5) for i in range(4)
    ]
    env.run()
    # 4 clients split the server tx link: each gets 1/4 of it.
    assert all(f.finished_at == pytest.approx(10.0) for f in flows)


def test_nic_upgrade_changes_speed(net):
    env, network = net
    host = network.attach("server", FAST_ETHERNET)
    host.set_speed(GIGABIT_ETHERNET)
    network.attach("client", GIGABIT_ETHERNET)
    flow = network.send("server", "client", GIGABIT_ETHERNET * 3)
    env.run(until=flow.done)
    assert env.now == pytest.approx(3.0)


# -- HTTP -------------------------------------------------------------------


def make_http():
    env = Environment()
    network = Network(env)
    network.attach("www", FAST_ETHERNET)
    network.attach("node", FAST_ETHERNET)
    server = HttpServer(network, "www", efficiency=0.7)
    return env, network, server


def test_http_get_static_document():
    env, _, server = make_http()
    server.publish("/dist/pkg.rpm", 7 * MBIT)  # < 1s at service speed
    resp = env.run(until=server.get("node", "/dist/pkg.rpm"))
    assert resp.status == 200
    assert resp.size == 7 * MBIT
    assert server.requests_served == 1
    assert server.bytes_served == 7 * MBIT


def test_http_service_link_caps_payload_rate():
    env, _, server = make_http()
    size = FAST_ETHERNET * 7  # 7 wire-seconds of bytes
    server.publish("/big", size)
    env.run(until=server.get("node", "/big"))
    # At 70% efficiency the payload takes 7/0.7 = 10s.
    assert env.now == pytest.approx(10.0)


def test_http_404():
    env, _, server = make_http()

    def go():
        with pytest.raises(HttpError, match="404"):
            yield server.get("node", "/missing")
        return True

    assert env.run(until=env.process(go()))


def test_http_cgi_handler_returns_body():
    env, _, server = make_http()
    server.register_cgi(
        "/install/kickstart.cgi",
        lambda client, path: (f"# kickstart for {client}", 4096),
    )
    resp = env.run(until=server.get("node", "/install/kickstart.cgi"))
    assert resp.body == "# kickstart for node"
    assert resp.size == 4096


def test_http_server_down_returns_503():
    env, _, server = make_http()
    server.publish("/x", 10)
    server.running = False

    def go():
        with pytest.raises(HttpError, match="503"):
            yield server.get("node", "/x")
        return True

    assert env.run(until=env.process(go()))


def test_http_unreachable_client_504():
    env, network, server = make_http()
    server.publish("/x", 10)
    network.set_host_up("node", False)

    def go():
        with pytest.raises(HttpError, match="504"):
            yield server.get("node", "/x")
        return True

    assert env.run(until=env.process(go()))


def test_http_path_normalisation():
    env, _, server = make_http()
    server.publish("dist/base.rpm", 100)
    assert server.has_document("/dist/base.rpm")
    resp = env.run(until=server.get("node", "//dist/base.rpm/"))
    assert resp.status == 200


def test_publish_tree_and_unpublish():
    _, _, server = make_http()
    server.publish_tree({"/a": 1, "/b": 2}, prefix="/dist")
    assert server.has_document("/dist/a")
    server.unpublish("/dist/a")
    assert not server.has_document("/dist/a")


def test_load_balancer_round_robin_doubles_throughput():
    env = Environment()
    network = Network(env)
    servers = []
    for i in range(2):
        network.attach(f"www{i}", FAST_ETHERNET)
        s = HttpServer(network, f"www{i}", efficiency=1.0)
        s.publish("/pkg", FAST_ETHERNET * 10)
        servers.append(s)
    for i in range(2):
        network.attach(f"c{i}", FAST_ETHERNET)
    lb = LoadBalancer(servers)
    p0 = lb.get("c0", "/pkg")
    p1 = lb.get("c1", "/pkg")
    env.run()
    # Each client got a dedicated backend: both finish at t=10, not t=20.
    assert env.now == pytest.approx(10.0)
    assert servers[0].requests_served == 1
    assert servers[1].requests_served == 1


def test_load_balancer_skips_dead_backend():
    env = Environment()
    network = Network(env)
    servers = []
    for i in range(2):
        network.attach(f"www{i}", FAST_ETHERNET)
        s = HttpServer(network, f"www{i}")
        s.publish("/pkg", 1000)
        servers.append(s)
    network.attach("client", FAST_ETHERNET)
    servers[0].running = False
    lb = LoadBalancer(servers)
    resp = env.run(until=lb.get("client", "/pkg"))
    assert resp.server == "www1"


def test_load_balancer_requires_backends():
    with pytest.raises(ValueError):
        LoadBalancer([])


def make_lb_pair():
    from repro.netsim import AdmissionConfig

    env = Environment()
    network = Network(env)
    servers = []
    for i in range(2):
        network.attach(f"www{i}", FAST_ETHERNET)
        s = HttpServer(network, f"www{i}")
        s.publish("/pkg", 1000)
        servers.append(s)
    network.attach("c0", FAST_ETHERNET)
    network.attach("c1", FAST_ETHERNET)
    return env, network, servers, AdmissionConfig


def test_load_balancer_fails_over_on_mid_request_503():
    """A backend that sheds the request (not merely down) is retried."""
    env, _, servers, AdmissionConfig = make_lb_pair()
    # www0 accepts one connection and queues nothing: the LB's request
    # reaches _do_get and is shed with a live 503.
    servers[0].configure_admission(
        AdmissionConfig(max_concurrent=1, queue_limit=0)
    )
    servers[0].publish("/slow", FAST_ETHERNET * 60)
    occupier = servers[0].get("c1", "/slow")
    lb = LoadBalancer(servers)
    resp = env.run(until=lb.get("c0", "/pkg"))
    assert resp.server == "www1"
    assert servers[0].rejected == 1
    env.run(until=occupier)


def test_load_balancer_does_not_fail_over_on_4xx():
    env, _, servers, _ = make_lb_pair()

    def go():
        with pytest.raises(HttpError, match="404"):
            yield LoadBalancer(servers).get("c0", "/missing")
        return True

    assert env.run(until=env.process(go()))


def test_load_balancer_fast_fails_when_every_backend_is_avoided():
    env, _, servers, _ = make_lb_pair()
    lb = LoadBalancer(servers)
    lb.should_avoid = lambda server: True

    def go():
        with pytest.raises(HttpError, match="avoided"):
            yield lb.get("c0", "/pkg")
        return True

    assert env.run(until=env.process(go()))
    assert all(s.requests_served == 0 for s in servers)


def make_lb_farm(n=3):
    env = Environment()
    network = Network(env)
    servers = []
    for i in range(n):
        network.attach(f"www{i}", FAST_ETHERNET)
        s = HttpServer(network, f"www{i}")
        s.publish("/pkg", 1000)
        servers.append(s)
    network.attach("c0", FAST_ETHERNET)
    return env, network, servers


def test_load_balancer_add_backend_joins_the_rotation():
    env, network, servers = make_lb_farm(n=2)
    lb = LoadBalancer(servers[:1])
    env.run(until=lb.get("c0", "/pkg"))
    lb.add_backend(servers[1])
    picked = [env.run(until=lb.get("c0", "/pkg")).server for _ in range(3)]
    # the new backend joins the tail of the rotation and gets its share
    assert picked == ["www0", "www1", "www0"]
    assert servers[1].requests_served == 1
    with pytest.raises(ValueError, match="already"):
        lb.add_backend(servers[1])


def test_load_balancer_remove_backend_validation():
    env, network, servers = make_lb_farm(n=2)
    lb = LoadBalancer(servers[:1])
    with pytest.raises(ValueError, match="not registered"):
        lb.remove_backend(servers[1])
    with pytest.raises(ValueError, match="last backend"):
        lb.remove_backend(servers[0])


def test_load_balancer_remove_keeps_rotation_fair():
    """Removing a backend behind the cursor must not skip the next one."""
    env, _, servers = make_lb_farm(n=3)
    lb = LoadBalancer(servers)
    env.run(until=lb.get("c0", "/pkg"))  # www0; cursor now at www1
    lb.remove_backend(servers[0])
    picked = []
    for _ in range(4):
        picked.append(env.run(until=lb.get("c0", "/pkg")).server)
    # www1 and www2 alternate, starting from the undisturbed cursor
    assert picked == ["www1", "www2", "www1", "www2"]


def test_load_balancer_skips_do_not_consume_failover_attempts():
    """An avoided/dead backend is skipped, not tried: with N-1 of N
    backends unavailable the single live one still serves every request."""
    env, _, servers = make_lb_farm(n=3)
    servers[0].running = False
    lb = LoadBalancer(servers)
    lb.should_avoid = lambda server: server.host == "www2"
    for _ in range(4):
        resp = env.run(until=lb.get("c0", "/pkg"))
        assert resp.server == "www1"
    assert lb.dispatches == 4
    # skipped backends ahead of www1 in each request's rotation:
    # starts 0,1,2,0 -> 1 + 0 + 2 + 1 skips, none of them dispatched
    assert lb.skips == 4
    assert servers[2].requests_served == 0


def test_raising_cgi_handler_closes_its_http_span(net):
    env, network = net
    tracer = Tracer().attach(env)
    network.attach("www")
    network.attach("node")
    server = HttpServer(network, "www")

    def unknown_client(client, path):
        raise LookupError(f"{client} is not in the database")

    server.register_cgi("/ks.cgi", unknown_client)
    get = server.get("node", "/ks.cgi")
    with pytest.raises(LookupError):
        env.run(until=get)
    assert summarize(tracer)["open_by_kind"] == {}
    (span,) = tracer.spans("http")
    assert span.attrs["outcome"] == "error"
