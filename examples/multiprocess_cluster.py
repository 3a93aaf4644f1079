#!/usr/bin/env python3
"""Multi-process deployment walkthrough: the paper's servers as real
OS processes talking over UDP sockets.

Every other example runs the hierarchy inside one interpreter (the
simulated or asyncio runtime).  This one deploys it the way the paper's
system would actually run: :class:`repro.net.ClusterLauncher` spawns
one process per ``LocationServer`` from the hierarchy spec, wires the
address book (logical server id → host:port), starts the tree root
first, and probes each node until it answers.  The driver process then
speaks the ordinary protocol — the same ``RegisterReq`` /
``UpdateBatchReq`` / ``PosQueryReq`` dataclasses, serialized through
the versioned wire codec (:mod:`repro.net.wire`) — to servers it shares
no memory with.

The walkthrough:

1. start a five-process UDP cluster (table-2 hierarchy: root + 4 leaves);
2. register a delivery van and report it moving across a leaf border
   (a real cross-process handover);
3. query it from a *different* entry leaf, routing through the root
   process;
4. bump the topology epoch and have every process adopt it;
5. shut the cluster down leaves-first.

Run:  python examples/multiprocess_cluster.py
"""

import asyncio

from repro.core import messages as m
from repro.core.hierarchy import Hierarchy, build_table2_hierarchy
from repro.geo import Point
from repro.model import SightingRecord
from repro.net import ClusterLauncher
from repro.runtime.base import Endpoint

AREA_SIDE = 1500.0  # meters; 4 leaf quadrants of 750 m


async def main() -> None:
    hierarchy = build_table2_hierarchy(AREA_SIDE)
    launcher = ClusterLauncher(hierarchy, transport="udp")

    print("starting 5 node processes (root first, then the leaves)...")
    await launcher.start()
    print("  node processes:")
    for server_id in launcher.order:
        host, port = launcher.transport.book.resolve(server_id)
        print(f"    {server_id:8s} -> pid {launcher._processes[server_id].pid}, "
              f"udp {host}:{port}")

    try:
        client = launcher.join(Endpoint("example-client"))
        # UDP may drop a datagram: ``ask`` re-sends an unanswered request
        # under a fresh id, up to ``retries`` times.

        # -- 1. register at the entry leaf owning the position ------------
        start = Point(700.0, 300.0)  # inside root.0, near the border
        entry = hierarchy.leaf_for_point(start)
        res = await client.ask(
            entry,
            lambda rid: m.RegisterReq(
                request_id=rid,
                reply_to=client.address,
                sighting=SightingRecord("van-1", 0.0, start, 10.0),
                des_acc=25.0,
                min_acc=100.0,
                registrar=client.address,
            ),
            timeout=2.0,
            retries=4,
        )
        print(f"\nregistered van-1 at {entry} (agent={res.agent}, "
              f"offered {res.offered_acc} m)")

        # -- 2. report it across the leaf border (cross-process handover) --
        agent = res.agent
        for t, pos in enumerate(
            [Point(730.0, 300.0), Point(760.0, 300.0), Point(800.0, 300.0)], 1
        ):
            res = await client.ask(
                agent,
                lambda rid: m.UpdateBatchReq(
                    request_id=rid,
                    reply_to=client.address,
                    sightings=(SightingRecord("van-1", float(t), pos, 10.0),),
                    epoch=hierarchy.epoch,
                ),
                timeout=2.0,
                retries=4,
            )
            outcome = res.outcomes[0]
            if outcome.agent and outcome.agent != agent:
                print(f"  t={t}: moved to {pos.x:.0f}m -> handover "
                      f"{agent} => {outcome.agent}")
                agent = outcome.agent
            else:
                print(f"  t={t}: moved to {pos.x:.0f}m (agent {agent})")

        # -- 3. query from a different entry leaf --------------------------
        far_leaf = next(
            leaf for leaf in hierarchy.leaf_ids() if leaf not in (entry, agent)
        )
        res = await client.ask(
            far_leaf,
            lambda rid: m.PosQueryReq(
                request_id=rid, reply_to=client.address, object_id="van-1"
            ),
            timeout=2.0,
            retries=4,
        )
        print(f"\nposition query entered at {far_leaf}, routed through the "
              f"root process:\n  van-1 is at ({res.descriptor.pos.x:.0f}, "
              f"{res.descriptor.pos.y:.0f}) ± {res.descriptor.acc:.0f} m")
        print(f"cluster-wide tracked objects: {await launcher.total_tracked()}")

        # -- 4. epoch bump adopted by every process ------------------------
        bumped = Hierarchy(dict(hierarchy.configs), epoch=hierarchy.epoch + 1)
        adopted = await launcher.adopt_hierarchy(bumped)
        print(f"\nepoch bump adopted by all {len(adopted)} processes: "
              f"{sorted(set(adopted.values()))}")
    finally:
        print("\nshutting down (leaves first, root last)...")
        await launcher.stop()
    print("all node processes exited.")


if __name__ == "__main__":
    asyncio.run(main())
