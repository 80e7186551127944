"""Tests for the gmond agents and the gmetad aggregator on a live cluster."""

import pytest

from repro import build_cluster
from repro.cluster import MachineState
from repro.monitoring import (
    MetricAgent,
    enable_cluster_monitoring,
)


@pytest.fixture
def stack3():
    sim = build_cluster(n_compute=3)
    sim.integrate_all()
    stack = enable_cluster_monitoring(sim.frontend, sim.nodes)
    sim.env.run(until=sim.env.now + 60)
    return sim, stack


def test_every_machine_reports(stack3):
    sim, stack = stack3
    snap = stack.aggregator.snapshot()
    assert set(snap) == {
        "frontend-0", "compute-0-0", "compute-0-1", "compute-0-2"
    }
    for host, pkt in snap.items():
        assert pkt.label("state") == "up"
        assert pkt.metric("packages") > 100
    assert stack.aggregator.down_hosts() == []


def test_packets_feed_the_store(stack3):
    sim, stack = stack3
    series = stack.store.get("compute-0-0/load")
    assert series is not None
    assert series.n_samples >= 3
    # per-host per-metric naming, sorted on export
    names = stack.store.series_names()
    assert all("/" in name for name in names)
    assert names == sorted(names)


def test_frontend_agent_carries_service_and_http_metrics(stack3):
    sim, stack = stack3
    pkt = stack.aggregator.last_packet("frontend-0")
    assert pkt.metric("svc.dhcp") == 1.0
    assert pkt.metric("svc.install") == 1.0
    assert pkt.metric("svc.nfs") == 1.0
    assert pkt.has_metric("http.in_flight")
    assert pkt.has_metric("jobs.queued")
    # compute nodes don't have the frontend sampler
    assert not stack.aggregator.last_packet("compute-0-0").has_metric("svc.dhcp")


def test_agents_go_dark_outside_visible_states(stack3):
    sim, stack = stack3
    agent = stack.agents[1]  # compute-0-0
    assert agent.visible
    agent.machine.power_off()
    assert not agent.visible
    sent_before = agent.packets_sent
    sim.env.run(until=sim.env.now + 60)
    assert agent.packets_sent == sent_before
    assert stack.aggregator.is_stale("compute-0-0")
    assert stack.aggregator.down_hosts() == ["compute-0-0"]


def test_installing_node_stays_visible_with_phase(stack3):
    sim, stack = stack3
    node = sim.nodes[0]
    node.request_reinstall()
    # long enough to be mid-packages, short of install completion
    sim.env.run(until=sim.env.now + 400)
    assert node.state is MachineState.INSTALLING
    pkt = stack.aggregator.last_packet("compute-0-0")
    assert pkt.label("state") == "installing"
    assert pkt.label("phase") != ""
    assert not stack.aggregator.is_stale("compute-0-0")


def test_agent_jitter_is_seeded_per_mac(stack3):
    sim, stack = stack3
    phases = set()
    for agent in stack.agents:
        rng_copy = type(agent.rng)(("gmond", 0, agent.machine.mac).__repr__())
        phases.add(rng_copy.uniform(0.0, agent.interval))
    # distinct MACs -> distinct phases (unsynchronized daemons)
    assert len(phases) == len(stack.agents)


def test_agent_rejects_bad_interval(stack3):
    sim, stack = stack3
    with pytest.raises(ValueError):
        MetricAgent(sim.nodes[0], stack.group, interval=0.0)


def test_dead_gmetad_drops_packets(stack3):
    sim, stack = stack3
    agg = stack.aggregator
    received = agg.packets_received
    agg.stop()
    sim.env.run(until=sim.env.now + 60)
    assert agg.packets_received == received
    agg.start()
    sim.env.run(until=sim.env.now + 60)
    assert agg.packets_received > received


def test_legacy_monitor_flags_never_heartbeated_host():
    """Regression: an expected host that dies before its first packet."""
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    sim.nodes[1].power_off()  # down before monitoring even starts
    stack = enable_cluster_monitoring(sim.frontend, sim.nodes)
    sim.env.run(until=sim.env.now + 60)
    agg = stack.aggregator
    assert agg.age("compute-0-1") == float("inf")
    assert "compute-0-1" in agg.down_hosts()
    assert "compute-0-1" not in agg.up_hosts()
    assert "compute-0-0" in agg.up_hosts()


def test_cluster_top_and_xml_render(stack3):
    sim, stack = stack3
    top = stack.render_top()
    assert "cluster-top" in top
    assert "compute-0-2" in top
    xml = stack.render_xml()
    assert xml.startswith('<?xml version="1.0"')
    assert '<GANGLIA_XML VERSION="2.5.7"' in xml
    assert '<HOST NAME="compute-0-0"' in xml
    assert "</GANGLIA_XML>" in xml
