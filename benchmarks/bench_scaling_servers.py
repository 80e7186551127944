"""§6.3 scaling claims: Gigabit uplinks and replicated install servers.

Paper: "By adding a Gigabit Ethernet connection to the web server, it
will theoretically be able to support 10 times the number of concurrent
full-speed reinstallations" (7.0-9.5x in practice, per the Loeb et al.
footnote), and "by deploying N web servers, one can support N times the
number of concurrent full-speed reinstallations that a single web
server can support" — replication is trivial because serving RPMs is
strictly read-only.

We measure the *32-node* reinstall (the contended Table I point) under
(a) the baseline Fast Ethernet server, (b) a Gigabit server, and
(c) two replicated Fast Ethernet servers behind round-robin load
balancing, and check contention disappears.
"""

import pytest

from helpers import print_rows
from repro import build_cluster
from repro.core.tools.shoot_node import makespan
from repro.netsim import GIGABIT_ETHERNET
from repro.services import InstallReplicaSet

N = 32

_cache = {}


def _span(reports):
    return makespan(reports) / 60.0


def _baseline():
    if "base" not in _cache:
        sim = build_cluster(n_compute=N)
        sim.integrate_all()
        _cache["base"] = _span(sim.reinstall_all())
        # uncontended single-node reference on the same topology
        sim1 = build_cluster(n_compute=1)
        sim1.integrate_all()
        _cache["one"] = _span(sim1.reinstall_all())
    return _cache["base"], _cache["one"]


def bench_gigabit_uplink(benchmark):
    """Upgrade the frontend NIC to Gigabit: 32 installs go flat again."""

    def run():
        sim = build_cluster(n_compute=N)
        sim.frontend.cluster.network.host(sim.frontend.machine.mac).set_speed(
            GIGABIT_ETHERNET
        )
        sim.frontend.install_server.http.refresh_link_speed()
        sim.integrate_all()
        return _span(sim.reinstall_all())

    gig = benchmark.pedantic(run, rounds=1, iterations=1)
    base, one = _baseline()
    benchmark.extra_info["fast_ethernet_minutes"] = round(base, 2)
    benchmark.extra_info["gigabit_minutes"] = round(gig, 2)
    # Gigabit removes the contention: back to the uncontended plateau.
    assert gig == pytest.approx(one, rel=0.12)
    assert gig < base
    # Capacity ratio: paper's footnote says 7.0-9.5x Fast Ethernet.
    print_rows(
        "§6.3 server scaling: Gigabit uplink (32 concurrent reinstalls)",
        ("configuration", "minutes"),
        [
            ("1 node, Fast Ethernet (reference)", f"{one:.1f}"),
            ("32 nodes, Fast Ethernet", f"{base:.1f}"),
            ("32 nodes, Gigabit", f"{gig:.1f}"),
        ],
    )


def bench_replicated_servers(benchmark):
    """Two read-only replicas behind a load balancer halve the contention."""

    def run():
        sim = build_cluster(n_compute=N)
        # One read-only replica beside the frontend's install server, and
        # the installer pointed at the balanced pair.
        replicas = InstallReplicaSet(sim.frontend.install_server)
        replicas.add_replica()
        sim.frontend.installer.source = replicas
        sim.integrate_all()
        return _span(sim.reinstall_all())

    two = benchmark.pedantic(run, rounds=1, iterations=1)
    base, one = _baseline()
    benchmark.extra_info["one_server_minutes"] = round(base, 2)
    benchmark.extra_info["two_server_minutes"] = round(two, 2)
    # N servers -> N times the concurrent capacity: the 32-node point
    # with two servers behaves like the 16-node point with one, i.e.
    # close to flat.  It must strictly beat the single server.
    assert two < base
    assert two <= one * 1.35
    print_rows(
        "§6.3 server scaling: HTTP load balancing (32 concurrent reinstalls)",
        ("configuration", "minutes"),
        [
            ("one 100 Mbit server", f"{base:.1f}"),
            ("two replicated servers", f"{two:.1f}"),
        ],
    )
