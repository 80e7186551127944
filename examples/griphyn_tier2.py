#!/usr/bin/env python3
"""A GriPhyN Tier-2 prototype on Rocks (§7, Current Status & Future Work).

The paper closes with an announced deployment: Paul Avery's GriPhyN
project chose Rocks for a prototype Tier-2 server feeding LHC physics.
This example stands up a larger, multi-cabinet cluster with dedicated
NFS appliances (bulk storage for event data), monitors it, and accounts
for its peak compute — the same way the authors tallied "over 2 TFLOPS
(peak) of clustered computing" across the Rocks install base.

Run:  python examples/griphyn_tier2.py
"""

from repro import build_cluster
from repro.core.tools import InsertEthers, queue_cluster_reinstall
from repro.monitoring import enable_cluster_monitoring

#: peak double-precision flops per cycle for a PIII-class core
FLOPS_PER_CYCLE = 1.0

NODES_PER_CABINET = 16
CABINETS = 2


def peak_gflops(machine) -> float:
    cpu = machine.spec.cpu
    return cpu.mhz * 1e6 * cpu.count * FLOPS_PER_CYCLE / 1e9


def main() -> None:
    print("== Tier-2 prototype: 2 cabinets of compute + storage appliances ==")
    sim = build_cluster(n_compute=0)
    f = sim.frontend

    # cabinet 0 and 1: compute nodes, integrated per-cabinet so the
    # (rack, rank) naming matches physical position (§6.4 footnote)
    for cab_no in range(CABINETS):
        cab = sim.hardware.cabinets[0] if cab_no == 0 else sim.hardware.add_cabinet()
        machines = [
            sim.hardware.add_machine("pIII-1000-myri", cabinet=cab)
            for _ in range(NODES_PER_CABINET)
        ]
        for m in machines:
            f.adopt(m)
        sim.nodes.extend(machines)
        ie = InsertEthers(f, cabinet=cab_no).start()
        for m in machines:
            m.power_on()
            while not f.db.has_mac(m.mac):
                sim.env.step()
        ie.stop()
    # storage appliances for event data
    storage = []
    for i in range(2):
        m = sim.hardware.add_machine("nfs-server")
        f.adopt(m)
        with InsertEthers(f, membership="NFS Servers") as ie:
            ie.insert(m.mac)
        m.power_on()
        storage.append(m)
    for m in sim.nodes + storage:
        sim.env.run(until=m.wait_for_state(m.state.UP))
    print(f"  integrated {len(sim.nodes)} compute nodes in "
          f"{CABINETS} cabinets + {len(storage)} NFS appliances "
          f"in {sim.env.now / 60:.0f} simulated minutes")

    rows = sim.db.query(
        "select memberships.name, count(*) from nodes, memberships "
        "where nodes.membership = memberships.id group by memberships.name"
    )
    for membership, count in rows:
        print(f"    {membership:<18} {count}")

    print("\n== peak compute accounting (the paper's 2 TFLOPS tally) ==")
    gflops = sum(peak_gflops(m) for m in sim.nodes)
    print(f"  {len(sim.nodes)} x {sim.nodes[0].spec.model}: "
          f"{gflops:.1f} GFLOPS peak for this Tier-2 prototype")
    print(f"  ({2000 / gflops:.0f} such clusters ≈ the 2 TFLOPS install base)")

    print("\n== monitoring the production floor ==")
    stack = enable_cluster_monitoring(f, sim.nodes + storage)
    sim.env.run(until=sim.env.now + 60)
    up = stack.aggregator.up_hosts()
    stale = stack.aggregator.down_hosts()
    print(f"  {len(up)} hosts heartbeating; {len(stale)} stale")

    print("\n== nightly security refresh via the queue (unattended) ==")
    f.maui.start()
    from repro.rpm import UpdateStream

    stream = UpdateStream(f.rocks_dist.sources[0], updates_per_year=124)
    f.add_update_source(stream.updates_repository(90))
    f.rebuild_distribution()
    f.generator.invalidate()
    campaign = queue_cluster_reinstall(f)
    sim.env.run(until=campaign.wait_event(sim.env))
    span = (max(j.finished_at for j in campaign.jobs)
            - min(j.submitted_at for j in campaign.jobs)) / 60
    print(f"  {len(campaign.jobs)} nodes refreshed in {span:.0f} simulated "
          f"minutes; fleet consistent: "
          f"{all(not sim.nodes[0].rpmdb.diff(n.rpmdb) for n in sim.nodes[1:])}")


if __name__ == "__main__":
    main()
