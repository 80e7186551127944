"""Node heartbeat monitoring on the frontend: the gmetad aggregator's
up/down view, the one source of shoot-node candidates."""

import pytest

from repro import build_cluster
from repro.cluster import MachineState
from repro.monitoring import enable_cluster_monitoring, render_cluster_top


@pytest.fixture
def monitored():
    sim = build_cluster(n_compute=3)
    sim.integrate_all()
    stack = enable_cluster_monitoring(sim.frontend, sim.nodes)
    sim.env.run(until=sim.env.now + 30)
    return sim, stack.aggregator


def test_heartbeats_flow_from_up_nodes(monitored):
    sim, agg = monitored
    snap = agg.snapshot()
    assert set(snap) == {"frontend-0", "compute-0-0", "compute-0-1", "compute-0-2"}
    assert agg.packets_received >= 4
    for packet in snap.values():
        assert packet.label("state") == "up"
        assert packet.metric("packages") > 100


def test_metrics_carry_load(monitored):
    sim, agg = monitored
    sim.nodes[0].user_processes.extend(["gamess", "gamess"])
    sim.env.run(until=sim.env.now + 20)
    assert agg.last_packet("compute-0-0").metric("load") == 2


def test_down_node_detected_by_stale_heartbeat(monitored):
    sim, agg = monitored
    assert agg.down_hosts() == []
    sim.nodes[1].power_off()
    sim.env.run(until=sim.env.now + 60)
    assert agg.down_hosts() == ["compute-0-1"]
    assert "compute-0-1" not in agg.up_hosts()
    # recovery: power back on (hard cycle forced a reinstall) and heartbeat resumes
    sim.nodes[1].power_on()
    sim.env.run(until=sim.nodes[1].wait_for_state(MachineState.UP))
    sim.env.run(until=sim.env.now + 20)
    assert agg.down_hosts() == []
    assert "compute-0-1" in agg.up_hosts()


def test_reinstalling_node_goes_quiet_then_returns(monitored):
    sim, agg = monitored
    node = sim.nodes[2]
    node.request_reinstall()
    sim.env.run(until=sim.env.now + 60)  # rebooting: no NIC, no gmond
    assert node.state is MachineState.POST
    assert "compute-0-2" in agg.down_hosts()
    sim.env.run(until=node.wait_for_state(MachineState.UP))
    sim.env.run(until=sim.env.now + 20)
    assert "compute-0-2" in agg.up_hosts()
    assert agg.last_packet("compute-0-2").metric("installs") == 2


def test_report_is_tabular(monitored):
    _, agg = monitored
    report = render_cluster_top(agg)
    assert report.splitlines()[1].startswith("host")
    assert "compute-0-0" in report


def test_stopped_monitor_drops_heartbeats(monitored):
    sim, agg = monitored
    agg.stop()
    before = agg.packets_received
    sim.env.run(until=sim.env.now + 50)
    assert agg.packets_received == before


def test_age_unseen_host_is_inf(monitored):
    _, agg = monitored
    assert agg.age("ghost") == float("inf")


def test_expected_host_that_never_heartbeats_reports_down(monitored):
    """A host that dies before its first heartbeat must not be invisible."""
    sim, agg = monitored
    agg.expect("compute-0-9")
    sim.env.run(until=sim.env.now + 100)
    assert agg.down_hosts() == ["compute-0-9"]
    assert "compute-0-9" not in agg.up_hosts()
    assert agg.last_packet("compute-0-9") is None


def test_enable_monitoring_expects_every_machine():
    """A node down from the start appears in down_hosts despite zero beats."""
    sim = build_cluster(n_compute=2)
    sim.integrate_all()
    sim.nodes[0].power_off()
    agg = enable_cluster_monitoring(sim.frontend, sim.nodes).aggregator
    sim.env.run(until=sim.env.now + 60)
    assert agg.packets_received > 0  # the live nodes are beating
    assert agg.age(sim.nodes[0].hostid) == float("inf")
    assert sim.nodes[0].hostid in agg.down_hosts()
    assert sim.nodes[1].hostid in agg.up_hosts()
    assert agg.snapshot().get(sim.nodes[0].hostid) is None
