"""The installer's package sources: one install server, or a replica set.

Both hand back the HTTP request process itself, and its response carries
the checksum of the payload the client received.
"""

import pytest

from repro.netsim import (
    FAST_ETHERNET,
    AdmissionConfig,
    Environment,
    HttpServer,
    LoadBalancer,
    Network,
)
from repro.rpm import Package
from repro.services import InstallReplicaSet, InstallServer

PKG = Package("glibc", "2.2.4", "13", size=FAST_ETHERNET * 10)


def wait(env, request):
    """Yield ``request`` as the installer does; return its response.

    The stamp lands when the GET's completion is dispatched, before any
    waiter resumes; ``env.run(until=request)`` would return as soon as
    the GET is triggered, a step earlier.
    """

    def waiter():
        return (yield request)

    return env.run(until=env.process(waiter()))


def single_server(primary):
    return primary, [primary], HttpServer._do_get


def one_replica(primary):
    replicas = InstallReplicaSet(primary)
    return replicas, [primary, replicas.add_replica()], LoadBalancer._do_get


@pytest.mark.parametrize("make_source", [single_server, one_replica])
def test_fetch_package_is_the_stamped_http_request(make_source):
    env = Environment()
    net = Network(env)
    net.attach("frontend", FAST_ETHERNET)
    net.attach("node", FAST_ETHERNET)
    primary = InstallServer(env, net, "frontend")
    primary.publish_packages("d", [PKG])
    primary.http.configure_admission(AdmissionConfig(max_concurrent=4))
    source, servers, request_code = make_source(primary)
    hosts = [server.host for server in servers]

    # The returned process is the HTTP request, not a wrapper around it.
    get = source.fetch_package("node", "d", PKG)
    assert get.generator.gi_code is request_code.__code__

    # Every server's response (round robin) carries the checksum.
    responses = [wait(env, get)] + [
        wait(env, source.fetch_package("node", "d", PKG)) for _ in hosts[1:]
    ]
    assert [r.server for r in responses] == hosts
    assert all(r.checksum == PKG.checksum for r in responses)

    # A hook installed on the primary after the replica exists still
    # corrupts what the replica serves.
    primary.corruption_hook = lambda client, pkg: True
    responses = [
        wait(env, source.fetch_package("node", "d", PKG)) for _ in hosts
    ]
    assert [r.server for r in responses] == hosts
    assert all(r.checksum == f"corrupt:{PKG.checksum}" for r in responses)

    # Interrupted mid-transfer: the connection is gone at the same instant
    # and nothing is stamped.
    get = source.fetch_package("node", "d", PKG)
    env.run(until=env.now + 5.0)
    get.interrupt("node power-cycled")
    t = env.now
    while env.peek() == t:
        env.step()
    assert env.now == t
    assert get.ok and get.value is None
    for server in servers:
        assert not net.flows.flows_through(server.http.service_link)
        assert server.http.in_flight == 0
