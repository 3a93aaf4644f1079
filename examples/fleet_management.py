#!/usr/bin/env python3
"""Fleet-management scenario (paper Section 3.2's running example).

A logistics operator tracks a truck fleet over a 10 km x 10 km region:

* *position query* — "get the current position of a certain truck,
  which has been scheduled for an inspection at short notice";
* *range query* — "find all trucks that are in a given part of a city";
* *nearest-neighbor query* — "find the nearest (free) truck for a load
  of goods".

The example also contrasts two update-reporting policies from [15]: the
paper's distance-based protocol versus dead reckoning, showing the
update traffic each needs to maintain the same accuracy bound.

Run:  python examples/fleet_management.py
"""

from repro import LocationService, Point, Rect, build_quad_hierarchy
from repro.protocols import DeadReckoningPolicy, DistancePolicy, simulate_policy
from repro.sim.mobility import RandomWaypointWalker

REGION = Rect(0, 0, 10_000, 10_000)
DEPOT = Point(5_000, 5_000)
FLEET_SIZE = 40
ACCURACY = 50.0  # meters the dispatcher can tolerate
SENSOR_ACC = 10.0  # each truck's positioning error
# A truck reports once it drifts more than the offer leaves beyond its
# sensor (Section 6.2); the shoot-out below runs both rows at that.
THRESHOLD = ACCURACY - SENSOR_ACC


def main() -> None:
    # Depth-2 quad hierarchy: 16 leaf servers of 2.5 km x 2.5 km each.
    service = LocationService(build_quad_hierarchy(REGION, depth=2))

    # -- roll out the fleet --------------------------------------------------
    fleet = {}
    walkers = {}
    for i in range(FLEET_SIZE):
        walker = RandomWaypointWalker(
            REGION, seed=1000 + i, min_speed=8.0, max_speed=14.0  # 30-50 km/h
        )
        truck = service.register(
            f"truck-{i:02d}", walker.position, des_acc=ACCURACY, min_acc=200.0,
            sensor_acc=SENSOR_ACC,
        )
        assert truck.policy.threshold == THRESHOLD
        fleet[truck.object_id] = truck
        walkers[truck.object_id] = walker

    # Drive for 30 simulated minutes with the paper's distance-based
    # update protocol (report when drifted more than THRESHOLD).
    updates_sent = 0
    for _ in range(60):  # 30 min in 30 s ticks
        for oid, walker in walkers.items():
            pos = walker.step(30.0)
            if service.run(fleet[oid].move_to(pos)):
                updates_sent += 1
    handovers = sum(s.stats.handovers_admitted for s in service.servers.values())
    print(
        f"fleet of {FLEET_SIZE} trucks, 30 min driven: "
        f"{updates_sent} updates sent, {handovers} handovers"
    )

    # -- 1. inspection call: where is truck-17 right now? -----------------------
    ld = service.pos_query("truck-17")
    print(
        f"inspection: truck-17 is at ({ld.pos.x:.0f}, {ld.pos.y:.0f}) "
        f"within {ld.acc:.0f} m"
    )

    # -- 2. district sweep: all trucks in the north-east district ----------------
    district = Rect(6_000, 6_000, 10_000, 10_000)
    answer = service.range_query(district, req_acc=100.0, req_overlap=0.5)
    print(
        f"district sweep: {len(answer.entries)} trucks in the NE district "
        f"({answer.servers_involved} leaf servers consulted)"
    )

    # -- 3. new load at the depot: closest truck wins ------------------------------
    nn = service.neighbor_query(DEPOT, req_acc=100.0, near_qual=2 * 100.0)
    oid, ld = nn.result.nearest
    print(
        f"dispatch: {oid} is closest to the depot "
        f"({ld.pos.distance_to(DEPOT):.0f} m recorded, guaranteed ≥ "
        f"{nn.result.guaranteed_min_distance:.0f} m); "
        f"{len(nn.result.near_set)} runner(s)-up could potentially be closer"
    )

    # -- 4. update-protocol shoot-out ([15]) -----------------------------------------
    print(f"\nupdate-protocol comparison (same trajectory, {THRESHOLD:.0f} m threshold):")
    for name, policy_factory in [
        ("distance-based (paper §6.2)", lambda: DistancePolicy(threshold=THRESHOLD)),
        ("dead reckoning (DOMINO [24])", lambda: DeadReckoningPolicy(threshold=THRESHOLD)),
    ]:
        total_updates = 0
        worst = 0.0
        for seed in range(10):
            walker = RandomWaypointWalker(REGION, seed=seed, min_speed=8.0, max_speed=14.0)
            outcome = simulate_policy(policy_factory(), walker.trajectory(1800.0, 5.0))
            total_updates += outcome["updates"]
            worst = max(worst, outcome["max_deviation"])
        print(
            f"  {name:<30} {total_updates:4d} updates / 10 trucks / 30 min,"
            f" worst server-side error {worst:.0f} m"
        )

    service.check_consistency()
    print("\nforwarding paths verified consistent after the whole run")


if __name__ == "__main__":
    main()
